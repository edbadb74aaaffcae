"""The unified component registry: capability queries, the clustering
registry, planner-space derivation (no drift), late registration, and the
removal of the legacy (pre-registry) entry points."""

import pytest

from repro.clustering import available_clusterings, get_clustering
from repro.engine.planner import default_candidates, planner_reorderings
from repro.pipeline import (
    KINDS,
    PipelineSpec,
    available_components,
    components,
    find_component,
    get_component,
)
from repro.reordering import available_reorderings, get_reordering_meta


def test_every_reordering_and_clustering_is_mirrored():
    assert available_components("reordering") == available_reorderings()
    assert available_components("clustering") == available_clusterings()
    assert set(available_components("kernel")) == {"rowwise", "cluster", "tiled"}


def test_available_clusterings_symmetric_to_reorderings():
    assert available_clusterings() == ["fixed", "variable", "hierarchical"]
    # The uniform registered signature: (A, **params) -> Clustering.
    from repro.matrices import generators as G

    cl = get_clustering("fixed")(G.grid2d(4, 4, seed=0), cluster_size=4)
    assert cl.method == "fixed"
    assert cl.nclusters == 4


def test_capability_tags():
    assert get_component("reordering", "original").square_only is False
    assert get_component("reordering", "rcm").square_only is True
    assert get_component("reordering", "rcm").family == "bandwidth"
    assert get_component("reordering", "rabbit").family == "hub"
    assert get_component("clustering", "hierarchical").embeds_reordering is True
    assert get_component("clustering", "fixed").embeds_reordering is False
    assert get_component("kernel", "cluster").requires_clustering is True
    assert get_component("kernel", "rowwise").requires_clustering is False
    assert get_component("reordering", "rcm").pre_cost_kind == "graph"
    assert get_component("clustering", "variable").pre_cost_kind == "kernel"


def test_find_component_resolves_kind_and_lists_on_miss():
    assert find_component("rcm").kind == "reordering"
    assert find_component("variable").kind == "clustering"
    assert find_component("tiled").kind == "kernel"
    with pytest.raises(KeyError) as e:
        find_component("nonsense")
    for kind in KINDS:
        assert kind in str(e.value)


def test_param_schema_carries_aliases_and_config_mapping():
    info = get_component("clustering", "hierarchical")
    names = [p.name for p in info.params]
    assert names == ["jacc_th", "max_cluster_th", "column_cap"]
    assert "max_th" in info.param_spec("max_cluster_th").aliases
    assert info.param_spec("jacc_th").config_attr == "jacc_th"
    # Config resolution through the mapping (satellite: no elif-chain).
    from repro.experiments import ExperimentConfig

    cfg = ExperimentConfig(max_cluster_th=4)
    assert info.resolve_params((), cfg)["max_cluster_th"] == 4


# ----------------------------------------------------------------------
# Planner-space derivation: no drift between registry and planner
# ----------------------------------------------------------------------
def test_planner_reorderings_derived_from_registry_ranks():
    ranked = [
        (c.planner_rank, c.name) for c in components("reordering") if c.planner_rank is not None
    ]
    assert planner_reorderings() == tuple(n for _, n in sorted(ranked))
    assert planner_reorderings() == ("rcm", "amd", "rabbit", "degree", "slashburn")


def test_default_candidates_cover_every_planned_component():
    cands = default_candidates(square=True)
    # Candidates are specs; a clustered one carries its build's parameters.
    assert all(isinstance(c, PipelineSpec) for c in cands)
    assert all(c.clustering_params for c in cands if c.clustering is not None)
    reorderings = {c.reordering for c in cands}
    clusterings = {c.clustering for c in cands if c.clustering}
    assert reorderings == {"original", *planner_reorderings()}
    assert clusterings == set(available_clusterings())
    # Order-embedding clusterings pair only with the natural order.
    for c in cands:
        if c.clustering and get_component("clustering", c.clustering).embeds_reordering:
            assert c.reordering == "original"
    # Non-square spaces drop square-only reorderings entirely.
    assert {c.reordering for c in default_candidates(square=False)} == {"original"}


def test_late_registration_is_visible_everywhere():
    from repro.clustering.base import _REGISTRY as CLUSTER_REGISTRY
    from repro.reordering.base import _META, _REGISTRY, ReorderingMeta

    import numpy as np

    from repro.reordering.base import ReorderingResult

    def reversed_order(A, *, seed=0):
        return ReorderingResult(np.arange(A.nrows, dtype=np.int64)[::-1].copy(), "test_reversed")

    _REGISTRY["test_reversed"] = reversed_order
    _META["test_reversed"] = ReorderingMeta(family="other", square_only=False, planner_rank=99)
    try:
        # Visible in the unified registry without any pipeline edit…
        assert "test_reversed" in available_components("reordering")
        # …planned automatically (the drift the satellite kills)…
        assert planner_reorderings()[-1] == "test_reversed"
        assert any(c.reordering == "test_reversed" for c in default_candidates(square=True))
        # …and spec-addressable, bitwise-correct through run().
        from repro.core import spgemm_rowwise
        from repro.matrices import generators as G

        A = G.grid2d(5, 5, seed=0)
        C = PipelineSpec.parse("test_reversed+fixed:4+cluster").run(A)
        ref = spgemm_rowwise(A, A)
        assert np.array_equal(C.values, ref.values)
        assert np.array_equal(C.indices, ref.indices)
    finally:
        _REGISTRY.pop("test_reversed")
        _META.pop("test_reversed")
        # The mirror keeps its entry (source registries are append-only
        # in normal use); drop it so other tests see a clean space.
        from repro.pipeline import registry as preg

        preg._REGISTRY.pop(("reordering", "test_reversed"), None)
        from repro.pipeline import builtin as pbuiltin

        pbuiltin._seen_reorderings.discard("test_reversed")
    assert "test_reversed" not in available_components("reordering")
    assert CLUSTER_REGISTRY  # unrelated registry untouched


# ----------------------------------------------------------------------
# Deprecation shims: removed (PR 2's window elapsed).  The legacy names
# must now fail loudly, and RA006 guards against hardcoded replacements.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module_name, attr",
    [
        ("repro.engine.planner", "PLANNER_REORDERINGS"),
        ("repro.engine.planner", "_BANDWIDTH_ALGOS"),
        ("repro.engine.planner", "_HUB_ALGOS"),
        ("repro.engine.plan", "CLUSTERINGS"),
        ("repro.engine.plan", "KERNELS"),
    ],
)
def test_legacy_constants_are_gone(module_name, attr):
    import importlib

    mod = importlib.import_module(module_name)
    with pytest.raises(AttributeError):
        getattr(mod, attr)


def test_engine_modules_pass_registry_bypass_rule():
    # RA006: no module-level tuples of registered component names may
    # reappear in engine code (what the removed shims used to paper over).
    import pathlib

    from repro.analysis.checks.framework import analyze_file
    from repro.analysis.checks.rules import default_rules

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    rules = default_rules(repo_root, only=["RA006"])
    engine_dir = repo_root / "src" / "repro" / "engine"
    findings = [
        f
        for path in sorted(engine_dir.glob("*.py"))
        for f in analyze_file(path, rules, repo_root)
        if not f.suppressed
    ]
    assert findings == []


def test_planner_module_has_no_hardcoded_algorithm_tuples():
    # The acceptance criterion, checked literally: no registered
    # algorithm name appears as a string literal in engine/planner.py.
    import pathlib

    import repro.engine.planner as planner_mod

    source = pathlib.Path(planner_mod.__file__).read_text()
    algorithm_names = set(available_reorderings()) | set(available_clusterings())
    algorithm_names.discard("original")  # the identity is a structural constant
    for name in algorithm_names:
        assert f'"{name}"' not in source and f"'{name}'" not in source, name


def test_component_names_unique_across_kinds():
    from repro.pipeline import ComponentInfo, register_component

    with pytest.raises(ValueError, match="unique across kinds"):
        register_component(
            ComponentInfo(name="rowwise", kind="clustering", factory=lambda A: None)
        )
    # And still within a kind.
    with pytest.raises(ValueError, match="duplicate"):
        register_component(
            ComponentInfo(name="rowwise", kind="kernel", factory=lambda op, B: None)
        )


def test_reordering_meta_accessible():
    meta = get_reordering_meta("rcm")
    assert meta.family == "bandwidth"
    assert meta.planner_rank == 1
    with pytest.raises(KeyError, match="available"):
        get_reordering_meta("nope")
