"""Metrics, profiles and table renderer tests."""

import numpy as np
import pytest

from repro.analysis import (
    Profile,
    amortization_profile,
    best_of,
    geomean,
    positive_fraction,
    positive_geomean,
    ratio_profile,
    render_box_figure,
    render_dataset_bars,
    render_matrix_table,
    render_profile,
    render_table2,
    summarize_speedups,
)


class TestMetrics:
    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geomean_ignores_nan(self):
        assert geomean([2.0, float("nan"), 8.0]) == pytest.approx(4.0)

    def test_geomean_empty_is_nan(self):
        assert np.isnan(geomean([]))

    def test_positive_fraction(self):
        assert positive_fraction([0.5, 1.5, 2.0, 0.9]) == pytest.approx(0.5)

    def test_positive_geomean_only_winners(self):
        assert positive_geomean([0.1, 2.0, 8.0]) == pytest.approx(4.0)
        assert np.isnan(positive_geomean([0.5, 0.9]))

    def test_summary_quartiles(self):
        s = summarize_speedups([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.median == 3.0
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.count == 5

    def test_best_of_per_matrix_max(self):
        per = {"a": [1.0, 0.5], "b": [0.8, 2.0]}
        assert best_of(per) == [1.0, 2.0]

    def test_best_of_rejects_misaligned(self):
        with pytest.raises(ValueError, match="misaligned"):
            best_of({"a": [1.0], "b": [1.0, 2.0]})


class TestProfiles:
    def test_amortization_excludes_non_improving(self):
        p = amortization_profile([1.0, 5.0, float("inf")], max_x=20)
        assert p.n_problems == 2
        assert p.fraction_at(20.0) == pytest.approx(1.0)
        assert p.fraction_at(2.0) == pytest.approx(0.5)

    def test_ratio_profile_cdf(self):
        p = ratio_profile([0.5, 1.0, 2.0, 4.0], max_x=5)
        assert p.fraction_at(1.0) == pytest.approx(0.5)
        assert p.fraction_at(5.0) == pytest.approx(1.0)

    def test_profile_points(self):
        p = ratio_profile([1.0], max_x=2, points=3)
        assert len(p.points()) == 3

    def test_empty_profile(self):
        p = amortization_profile([float("inf")])
        assert p.n_problems == 0
        assert np.isnan(p.fraction_at(1.0))


class TestRenderers:
    def test_box_figure_contains_rows(self):
        boxes = {"rcm": summarize_speedups([1.0, 2.0]), "gp": summarize_speedups([3.0])}
        out = render_box_figure("Fig 2", boxes)
        assert "rcm" in out and "gp" in out and "GM" in out

    def test_table2_layout(self):
        rows = {"hp": {"rowwise": [2.0, 1.5], "fixed": [1.2], "variable": [0.8]}}
        out = render_table2(rows)
        assert "hp" in out and "Pos.%" in out

    def test_dataset_bars(self):
        out = render_dataset_bars("Fig 8", ["cage12", "M6"], {"hier": [1.1, 1.4]})
        assert "cage12" in out and "1.40" in out

    def test_profile_render(self):
        p = ratio_profile([1.0, 2.0], max_x=4)
        out = render_profile("Fig 11", {"fixed": p}, xs=[1.0, 2.0, 4.0])
        assert "fixed" in out

    def test_matrix_table_with_mean(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = render_matrix_table("Table 4", ["d1", "d2"], ["i1", "i2"], vals, mean_col=True)
        assert "Mean" in out and "d1" in out
        assert "1.50" in out  # mean of first row

    def test_nan_rendering(self):
        out = render_dataset_bars("x", ["d"], {"m": [float("nan")]})
        assert "n/a" in out


# ======================================================================
# Static-analysis checker suite (repro.analysis.checks)
# ======================================================================
import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.checks import SCHEMA_VERSION, analyze_paths, render_json
from repro.analysis.checks.framework import analyze_file
from repro.analysis.checks.rules import ALL_RULES, default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"


def _findings(path, *rule_ids):
    rules = default_rules(only=rule_ids or None)
    return analyze_file(FIXTURES / path, rules, REPO_ROOT)


def _active(path, *rule_ids):
    return [f for f in _findings(path, *rule_ids) if not f.suppressed]


class TestRuleFixtures:
    """Each rule: one clean fixture stays silent, violating ones fire."""

    def test_ra001_clean(self):
        assert _active("repro/engine/ra001_clean.py", "RA001") == []

    @pytest.mark.parametrize(
        "fixture", ["repro/engine/ra001_direct_call.py", "repro/engine/ra001_attr_call.py"]
    )
    def test_ra001_violations(self, fixture):
        found = _active(fixture, "RA001")
        assert found and all(f.rule == "RA001" for f in found)
        assert "repro.backends.execute" in found[0].message

    def test_ra002_clean(self):
        assert _active("repro/engine/ra002_clean.py", "RA002") == []

    def test_ra002_unguarded_span(self):
        assert len(_active("repro/engine/ra002_unguarded_span.py", "RA002")) == 1

    def test_ra002_unguarded_and_late_guard(self):
        found = _active("repro/engine/ra002_unguarded_event.py", "RA002")
        assert len(found) == 2  # bare event + guard placed after the call

    def test_ra003_clean(self):
        assert _active("repro/engine/ra003_clean.py", "RA003") == []

    @pytest.mark.parametrize(
        "fixture, expected",
        [
            ("repro/engine/ra003_wallclock.py", 3),
            ("repro/engine/ra003_unseeded.py", 5),
            ("repro/engine/ra003_set_iter.py", 2),
        ],
    )
    def test_ra003_violations(self, fixture, expected):
        assert len(_active(fixture, "RA003")) == expected

    def test_ra004_register_sites(self):
        found = _active("repro/reordering/ra004_missing_family.py", "RA004")
        assert len(found) == 1  # fixture_tagged declares family=, fixture_order does not
        assert "family" in found[0].message

    def test_ra004_good_specs(self):
        assert _active("ra004_good_specs.py", "RA004") == []

    def test_ra004_bad_specs(self):
        # Messages are the runtime parser's (PipelineSpec.parse).
        messages = [f.message for f in _active("ra004_bad_specs.py", "RA004")]
        assert len(messages) == 4
        assert any("unknown pipeline component 'nosuchclustering'" in m for m in messages)
        assert any("kernel 'cluster' requires a clustering" in m for m in messages)
        assert any("'scipy' is an execution backend" in m for m in messages)
        assert any("unknown pipeline component 'vectorized_magic'" in m for m in messages)  # PipelineSpec.parse arg

    def test_ra004_markdown(self):
        found = _findings("ra004_bad_specs.md", "RA004")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 2
        assert any("unknown pipeline component 'bogus_stage'" in f.message for f in active)
        assert any("unknown backend 'nosuchbackend'" in f.message for f in active)  # fenced block
        suppressed = [f for f in found if f.suppressed]
        assert any("not_a_component" in f.message for f in suppressed)

    def test_ra006_bypass_tuple(self):
        found = _active("repro/engine/ra006_bypass.py", "RA006")
        assert len(found) == 1 and "PLANNER_REORDERINGS" in found[0].message

    def test_ra006_clean(self):
        assert _active("repro/engine/ra006_clean.py", "RA006") == []

    def test_ra002_applies_to_serve(self):
        found = _active("repro/serve/ra002_unguarded.py", "RA002")
        assert len(found) == 1 and found[0].line == 5

    def test_ra003_applies_to_serve(self):
        found = _active("repro/serve/ra003_wallclock.py", "RA003")
        assert len(found) == 1 and "time.time" in found[0].message

    def test_ra007_clean(self):
        # Condition.wait(timeout) with a monotonic deadline is the
        # sanctioned idiom — neither RA007 nor RA003 may fire on it.
        assert _active("repro/serve/ra007_clean.py", "RA007", "RA003") == []

    def test_ra007_sleeps(self):
        found = _active("repro/serve/ra007_sleep.py", "RA007")
        assert sorted(f.line for f in found) == [9, 14]
        assert all("sleep" in f.message for f in found)

    def test_ra009_direct_construction(self):
        found = _active("repro/core/ra009_direct_construction.py", "RA009")
        # Both call forms fire (bare name + attribute); imports do not.
        assert sorted(f.line for f in found) == [8, 14]
        assert all("make_accumulator" in f.message for f in found)

    def test_ra009_clean(self):
        assert _active("repro/core/ra009_clean.py", "RA009") == []

    def test_ra009_owner_module_is_exempt(self):
        # The factory module constructs the classes it dispenses.
        assert _active("repro/core/accumulators.py", "RA009") == []


class TestSuppressions:
    def test_round_trip(self):
        found = _findings("repro/engine/ra001_suppressed.py", "RA001")
        assert len(found) == 1
        assert found[0].suppressed and found[0].suppression_reason == "fixture oracle path"
        assert all(f.suppressed for f in found)  # nothing gates

    def test_bare_suppression_is_ra000(self):
        found = _findings("repro/engine/ra000_bare_suppression.py", "RA001")
        by_rule = {f.rule for f in found}
        assert "RA000" in by_rule  # reasonless allow is itself a finding
        active = [f for f in found if not f.suppressed]
        assert [f.rule for f in active] == ["RA000"]


class TestReportAndCli:
    def test_json_envelope_schema(self):
        findings, files = analyze_paths(
            [FIXTURES / "repro" / "engine" / "ra001_direct_call.py"],
            default_rules(),
            REPO_ROOT,
        )
        env = json.loads(render_json(findings, files, rules={"RA001": "t"}))
        assert env["schema"] == SCHEMA_VERSION
        assert env["tool"] == "repro.analysis"
        assert set(env) == {"schema", "tool", "rules", "summary", "findings"}
        assert set(env["summary"]) == {"files", "findings", "suppressed", "by_rule"}
        for f in env["findings"]:
            assert {"rule", "severity", "path", "line", "col", "message", "suppressed"} <= set(f)

    def test_cli_gates_on_fixtures(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--rules", "RA001",
             str(FIXTURES / "repro" / "engine" / "ra001_direct_call.py")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "RA001" in proc.stdout

    def test_real_tree_is_clean(self):
        # The acceptance criterion: the committed tree carries no
        # unsuppressed finding (suppressions all carry reasons).
        findings, files = analyze_paths(
            [REPO_ROOT / p for p in ("src", "benchmarks", "examples", "README.md", "DESIGN.md")],
            default_rules(),
            REPO_ROOT,
        )
        active = [f for f in findings if not f.suppressed]
        assert active == [], [f"{f.path}:{f.line} {f.rule} {f.message}" for f in active]
        assert files > 50


def test_ra004_accepts_a_name_registered_at_runtime(tmp_path):
    # RA004 reads the live registry: no static copy to fall behind.
    from repro.pipeline import registry as preg
    from repro.reordering import ReorderingResult, register

    spec_file = tmp_path / "specs.py"
    spec_file.write_text('SPEC = "test_runtime_order+fixed:4+cluster"\n')
    before = analyze_file(spec_file, default_rules(only=["RA004"]), tmp_path)
    assert any("test_runtime_order" in f.message for f in before)
    try:

        @register("test_runtime_order", family="other", square_only=False)
        def runtime_order(A, *, seed=0):
            return ReorderingResult(list(range(A.nrows)), "test_runtime_order")

        assert analyze_file(spec_file, default_rules(only=["RA004"]), tmp_path) == []
    finally:
        preg._REGISTRY.pop("test_runtime_order", None)
