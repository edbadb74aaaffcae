"""The execution-backend API: registry entries and capability tags, the
``@backend`` spec grammar, the single dispatch path, engine integration
and backend-aware plan-cache keys."""

import numpy as np
import pytest

from repro.backends import (
    ExecutionContext,
    backend_supports,
    execute,
    get_backend,
    parse_backend,
)
from repro.core import spgemm_rowwise
from repro.engine import ExecutionPlan, SpGEMMEngine
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, available_components, components, get_component

A = G.web_graph(220, seed=3)
REF = spgemm_rowwise(A, A)


def _bitwise(C):
    return C.same_pattern(REF) and np.array_equal(C.values, REF.values)


# ----------------------------------------------------------------------
# Registry entries and capability tags
# ----------------------------------------------------------------------
def test_builtin_backends_registered_with_capabilities():
    names = available_components("backend")
    assert names[0] == "reference"
    assert set(names) == {"reference", "scipy", "vectorized"}
    ref = get_component("backend", "reference")
    assert ref.bitwise_reference and ref.supported_kernels is None
    vec = get_component("backend", "vectorized")
    assert vec.bitwise_reference and vec.supported_kernels == ("cluster", "rowwise")
    # No built-in backend takes parameters, and none is a planned
    # candidate: a planner targets the one backend it is given.
    for name in names:
        info = get_component("backend", name)
        assert info.planner_rank is None and info.params == (), name


def test_scipy_backend_registered_when_scipy_importable():
    import scipy  # noqa: F401  (the test env has it; skip-free assertion)

    info = get_component("backend", "scipy")
    assert not info.bitwise_reference  # allclose + identical pattern only
    assert info.model_speed_factor < 1.0


def test_get_backend_memoises_per_canonical_params():
    assert get_backend("reference") is get_backend("reference")
    # Tuple pairs and mappings name the same canonical (empty) params.
    a = get_backend("vectorized", ())
    assert get_backend("vectorized", {}) is a and a.name == "vectorized"
    assert get_backend("scipy") is not a
    with pytest.raises(KeyError) as e:
        get_backend("nope")
    assert "reference" in str(e.value)


def test_parse_backend_and_supports():
    assert parse_backend("scipy") == ("scipy", ())
    assert parse_backend(" vectorized ") == ("vectorized", ())
    assert parse_backend(("reference", {})) == ("reference", ())
    # No built-in backend takes parameters: any given one is unknown.
    with pytest.raises(ValueError):
        parse_backend("scipy:workers=2")
    assert backend_supports("vectorized", (), "cluster")
    assert backend_supports("vectorized", (), "rowwise")
    assert not backend_supports("vectorized", (), "tiled")
    assert backend_supports("scipy", (), "tiled")  # every kernel runs as one matmul


def test_describe_lists_backends():
    from repro.pipeline import describe

    text = describe()
    assert "backends:" in text
    backend_lines = text.split("backends:")[1].splitlines()[1:]
    assert [line.split()[0] for line in backend_lines] == ["reference", "scipy", "vectorized"]
    assert "kernels:cluster,rowwise" in text


# ----------------------------------------------------------------------
# Spec grammar: @backend round-trips and errors
# ----------------------------------------------------------------------
def test_spec_backend_round_trip():
    for s in (
        "rcm+fixed:8+cluster@scipy",
        "rcm@scipy",
        "original+variable+cluster@vectorized",
        "rcm+hierarchical:max_th=8+cluster@vectorized",
    ):
        spec = PipelineSpec.parse(s)
        assert PipelineSpec.parse(str(spec)) == spec
        assert "@" in str(spec)


def test_spec_default_backend_is_reference_and_omitted():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    assert spec.backend == "reference" and spec.backend_params == ()
    assert "@" not in str(spec)
    assert spec == PipelineSpec.parse("rcm+fixed:8+cluster@reference").with_backend("reference")


def test_spec_backend_only_string():
    spec = PipelineSpec.parse("@scipy")
    assert (spec.reordering, spec.clustering, spec.kernel, spec.backend) == (
        "original",
        None,
        "rowwise",
        "scipy",
    )
    assert PipelineSpec.parse(str(spec)) == spec


def test_spec_backend_errors():
    with pytest.raises(KeyError, match="backend"):
        PipelineSpec.parse("rcm@nope")
    with pytest.raises(ValueError, match="backend"):
        PipelineSpec.parse("rcm@scipy@scipy")
    with pytest.raises(ValueError, match="'@'"):
        PipelineSpec.parse("rcm@")
    # Backend names are not '+' segments.
    with pytest.raises(ValueError, match="@scipy"):
        PipelineSpec.parse("rcm+scipy")
    # Backend–kernel incompatibility is a construction error.
    with pytest.raises(ValueError, match="support"):
        PipelineSpec.parse("rcm+tiled@vectorized")
    with pytest.raises(ValueError, match="support"):
        PipelineSpec(kernel="tiled", backend="vectorized")
    # Backend parameters go through the backend's (empty) schema.
    with pytest.raises(ValueError, match="workers"):
        PipelineSpec.parse("rcm@scipy:workers=2")


def test_spec_with_backend_and_label():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    s2 = spec.with_backend("vectorized")
    assert s2.backend == "vectorized" and s2.backend_params == ()
    # Labels carry the backend so distinct configurations stay distinct
    # in the engine ledger.
    assert s2.label == "rcm+fixed/cluster@vectorized"
    assert spec.with_backend("scipy").label.endswith("@scipy")
    assert spec.label == "rcm+fixed/cluster"
    assert spec.bitwise and s2.bitwise and not spec.with_backend("scipy").bitwise


# ----------------------------------------------------------------------
# Dispatch: one path, correct results
# ----------------------------------------------------------------------
def test_execute_rejects_incompatible_kernel():
    built = PipelineSpec.parse("original+none+tiled").build(A)
    with pytest.raises(ValueError, match="support"):
        execute(built, A, kernel="tiled", backend="vectorized")


def test_context_accumulates_stats_across_executions():
    ctx = ExecutionContext()
    built = PipelineSpec.parse("original+none+rowwise").build(A)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    execute(built, A, kernel="rowwise", kernel_params={"accumulator": "sort"}, ctx=ctx)
    assert ctx.stats["reference_calls"] == 2


def test_vectorized_matches_cluster_kernel_bitwise():
    from repro.backends import vectorized_cluster_spgemm
    from repro.clustering import get_clustering
    from repro.core.cluster_spgemm import cluster_spgemm

    for name, kw in (("fixed", {"cluster_size": 8}), ("variable", {}), ("hierarchical", {})):
        cl = get_clustering(name)(A, **kw)
        Ac = cl.to_csr_cluster(A)
        want = cluster_spgemm(Ac, A, restore_order=True)
        got = vectorized_cluster_spgemm(Ac, A, restore_order=True)
        assert got.same_pattern(want)
        assert np.array_equal(got.values, want.values), name


def test_scipy_backend_pattern_identical_allclose():
    C = PipelineSpec.parse("rcm+fixed:8+cluster@scipy").run(A)
    assert C.same_pattern(REF) and C.allclose(REF)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_engine_default_backend_stays_bitwise():
    eng = SpGEMMEngine(policy="heuristic")
    assert _bitwise(eng.multiply(A))
    assert eng.plan_for(A).backend == "reference"


def test_engine_constructor_backend_pins_every_plan():
    eng = SpGEMMEngine(policy="heuristic", backend="scipy")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    assert plan.backend == "scipy" and plan.label.endswith("@scipy")
    assert C.same_pattern(REF) and C.allclose(REF)
    assert eng.stats().backend_events.get("scipy_calls") == 1


def test_engine_per_call_backend_override():
    eng = SpGEMMEngine(policy="heuristic")
    eng.multiply(A)
    C = eng.multiply(A, backend="vectorized")
    assert _bitwise(C)
    plan = eng.plan_for(A, backend="vectorized")
    assert plan.backend == "vectorized" and plan.backend_params == ()
    # Pinning vectorized restricts the space to the kernels it supports.
    assert plan.kernel in {"cluster", "rowwise"}
    assert eng.stats().backend_events["vectorized_calls"] == 1


def test_plan_cache_keys_include_backend():
    # A plan tuned for scipy must never be served to a reference call:
    # the two calls build two distinct cache entries.
    eng = SpGEMMEngine(policy="heuristic")
    eng.multiply(A)
    eng.multiply(A, backend="scipy")
    st = eng.stats()
    assert st.plans_built == 2 and st.plan_cache_hits == 0
    assert len(eng.plan_cache) == 2
    # And repeating each call hits its own entry.
    eng.multiply(A)
    eng.multiply(A, backend="scipy")
    assert eng.stats().plan_cache_hits == 2
    assert eng.stats().plans_built == 2


def test_engine_auto_backend_plans_and_matches_pattern():
    eng = SpGEMMEngine(policy="autotune", backend="auto")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    # "auto" is scipy: its execution contract holds.
    assert C.same_pattern(REF) and C.allclose(REF)
    assert plan.backend == "scipy"


def test_predictor_policy_honours_auto_backend():
    # The predictor re-targets its chosen triple at the engine's backend
    # ("auto" is scipy) rather than silently staying on reference.
    eng = SpGEMMEngine(policy="predictor", backend="auto")
    C = eng.multiply(A)
    plan = eng.plan_for(A)
    assert plan.backend == "scipy"
    assert C.same_pattern(REF) and C.allclose(REF)


def test_auto_backend_pins_a_pipeline_spec_to_scipy(capsys):
    # "auto" with a fixed pipeline pins the spec to scipy, like any other
    # backend name: at construction, per call, and per call on a
    # pipeline-policy engine (which re-pins its own spec).
    from repro.experiments.cli import main

    eng = SpGEMMEngine(pipeline="rcm", backend="auto")
    assert eng.plan_for(A).backend == "scipy"
    assert eng.planner.spec.label == "rcm+csr/rowwise@scipy"
    C = SpGEMMEngine().multiply(A, pipeline="rcm", backend="auto")
    assert C.same_pattern(REF) and C.allclose(REF)
    pinned = SpGEMMEngine(pipeline="rcm")
    C = pinned.multiply(A, backend="auto")
    assert C.same_pattern(REF) and C.allclose(REF)
    assert pinned.plan_for(A, backend="auto").backend == "scipy"
    assert pinned.plan_for(A).backend == "reference"
    rc = main(["engine", "--matrix", "pdb1", "--pipeline", "rcm", "--backend", "auto", "--iters", "1"])
    assert rc == 0 and "plan: rcm+csr/rowwise@scipy" in capsys.readouterr().out


def test_engine_pipeline_spec_with_backend():
    eng = SpGEMMEngine(pipeline="rcm+fixed:8+cluster@vectorized")
    assert _bitwise(eng.multiply(A))
    plan = eng.plan_for(A)
    assert plan.backend == "vectorized" and plan.pipeline().backend == "vectorized"
    assert eng.stats().backend_events["vectorized_calls"] == 1


def test_engine_multiply_many_with_backend():
    Bs = [G.web_graph(220, seed=s) for s in (10, 11)]
    eng = SpGEMMEngine(policy="heuristic")
    outs = eng.multiply_many(A, Bs, backend="scipy")
    for B, C in zip(Bs, outs):
        want = spgemm_rowwise(A, B)
        assert C.same_pattern(want) and C.allclose(want)


@pytest.mark.parametrize("call", ["multiply", "multiply_many", "power"])
@pytest.mark.parametrize("name", ["reference", "scipy", "vectorized"])
def test_engine_resolves_backend_once_per_call(monkeypatch, name, call):
    # A public call resolves its backend once, at bind time, and hands
    # that instance to every product it runs — no per-product lookup.
    import repro.engine.engine as engine_mod

    eng = SpGEMMEngine(policy="heuristic", backend=name)
    eng.multiply(A)  # plan and prepare outside the counted call
    lookups, dispatched = [], []
    real_get, real_execute = engine_mod.get_backend, engine_mod.backend_execute

    def counting_get(*args, **kwargs):
        lookups.append(args)
        return real_get(*args, **kwargs)

    def recording_execute(*args, backend, **kwargs):
        dispatched.append(backend)
        return real_execute(*args, backend=backend, **kwargs)

    monkeypatch.setattr(engine_mod, "get_backend", counting_get)
    monkeypatch.setattr(engine_mod, "backend_execute", recording_execute)
    Bs = [G.web_graph(220, seed=s) for s in (20, 21, 22)]
    if call == "multiply":
        outs, wants = [eng.multiply(A)], [REF]
    elif call == "multiply_many":
        outs, wants = eng.multiply_many(A, Bs), [spgemm_rowwise(A, B) for B in Bs]
    else:
        A3 = spgemm_rowwise(A, REF)
        outs, wants = [eng.power(A, 4)], [spgemm_rowwise(A, A3)]
    assert lookups == [(name, ())]
    assert len(dispatched) == {"multiply": 1, "multiply_many": 3, "power": 3}[call]
    assert all(be is real_get(name) for be in dispatched)
    for C, want in zip(outs, wants):
        assert C.same_pattern(want) and C.allclose(want)


@pytest.mark.parametrize("name", ["reference", "scipy", "vectorized"])
def test_builtin_backend_rejects_parameters(name):
    # No built-in backend takes a parameter (``workers``/``inner`` went
    # with the process-sharded backend): naming one is an error in the
    # backend grammar and in a pipeline spec alike.
    with pytest.raises(ValueError):
        parse_backend(f"{name}:workers=2")
    with pytest.raises(ValueError):
        parse_backend((name, {"inner": "scipy"}))
    with pytest.raises(ValueError):
        PipelineSpec.parse(f"rcm+fixed:8+rowwise@{name}:workers=2")
    assert parse_backend(f"{name}:") == (name, ())


def test_no_source_module_starts_processes_or_shares_memory():
    # Every built-in backend runs in the calling process, so the tier-1
    # leak guard only has threads to watch for: nothing under src/
    # imports multiprocessing or its shared-memory module.
    import ast
    from pathlib import Path

    import repro

    banned = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.ProcessPoolExecutor")
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith(banned)]
    assert offenders == []


def _sparsetools_importers(root):
    """Python files under ``root`` importing scipy's private
    ``scipy.sparse._sparsetools`` module (or a name from it)."""
    import ast

    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.startswith("scipy.sparse._sparsetools") for n in names):
                found.add(path.relative_to(root).as_posix())
    return found


def test_only_scipy_backend_imports_private_sparsetools(tmp_path):
    # scipy's unchecked C++ passes are called only where their buffers
    # are sized from a count taken on the same index arrays.
    import shutil
    from pathlib import Path

    import repro

    pkg = Path(repro.__file__).parent
    assert _sparsetools_importers(pkg) == {"backends/scipy_backend.py"}
    # An injected import anywhere else fails the scan.
    copy = tmp_path / "repro"
    shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for line in ("from scipy.sparse._sparsetools import csr_matmat", "from scipy.sparse import _sparsetools"):
        (copy / "engine" / "engine.py").write_text((pkg / "engine" / "engine.py").read_text() + f"\n{line}\n")
        assert _sparsetools_importers(copy) == {"backends/scipy_backend.py", "engine/engine.py"}


# ----------------------------------------------------------------------
# Planner robustness: reference-only registries
# ----------------------------------------------------------------------
def test_planner_valid_with_only_reference_registered(monkeypatch):
    from repro.engine.fingerprint import fingerprint
    from repro.engine.planner import HeuristicPlanner
    from repro.pipeline import registry as reg

    only_ref = {
        k: v for k, v in reg._REGISTRY.items() if v.kind != "backend" or v.name == "reference"
    }
    monkeypatch.setattr(reg, "_REGISTRY", only_ref)
    planner = HeuristicPlanner(seed=0)
    plan = planner.plan(A, A, fingerprint(A), "asquare")
    assert plan.backend == "reference"
    assert {c.backend for c in planner._candidates(A)} == {"reference"}
    # "auto" is an alias of scipy, which this registry lacks: the error
    # names the alias instead of a bare registry miss.
    for make in (
        lambda: HeuristicPlanner(backend="auto", seed=0),
        lambda: PipelineSpec.parse("rcm").with_backend("auto"),
    ):
        with pytest.raises(ValueError, match="'auto' is an alias of 'scipy', which is not installed"):
            make()


# ----------------------------------------------------------------------
# Plan serialisation with the backend axis
# ----------------------------------------------------------------------
def test_plan_backend_serialisation_round_trip():
    plan = ExecutionPlan(
        reordering="rcm",
        clustering="fixed",
        kernel="cluster",
        backend="vectorized",
        predicted_cost=10.0,
        baseline_cost=12.0,
    )
    again = ExecutionPlan.from_json(plan.to_json())
    assert again == plan and again.backend == "vectorized" and again.backend_params == ()


def test_plan_dicts_without_backend_fields_load_as_reference():
    # A plan persisted before the backend axis has no backend fields.
    # It must still load — as reference — and still execute.
    d = ExecutionPlan(reordering="rcm", clustering=None, kernel="rowwise").to_dict()
    d.pop("backend")
    d.pop("backend_params")
    plan = ExecutionPlan.from_dict(d)
    assert plan.backend == "reference" and plan.backend_params == ()
    C = plan.pipeline().run(A)
    assert _bitwise(C)  # executes on the reference backend, bitwise


def test_plan_dicts_with_a_calibration_epoch_still_load():
    # Plans persisted while backend calibration existed carry its epoch;
    # the key is dropped on load and the plan still executes.
    want = ExecutionPlan(reordering="rcm", clustering="fixed", kernel="cluster", backend="scipy")
    plan = ExecutionPlan.from_dict(dict(want.to_dict(), calibration_epoch=2))
    assert plan == want
    C = plan.pipeline().run(A)
    assert C.same_pattern(REF) and C.allclose(REF)


def test_plan_rejects_unknown_or_incompatible_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutionPlan(reordering="original", clustering=None, kernel="rowwise", backend="nope")
    with pytest.raises(ValueError, match="support"):
        ExecutionPlan(
            reordering="original", clustering=None, kernel="tiled", backend="vectorized"
        )
