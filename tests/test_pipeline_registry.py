"""The unified component registry: capability queries, registration
order, planner-space derivation (no drift), runtime registration through
the decorators, and the removal of the legacy (pre-registry) entry
points."""

import pytest

from repro.engine.planner import default_candidates, planner_reorderings
from repro.pipeline import (
    KINDS,
    PipelineSpec,
    available_components,
    components,
    describe,
    find_component,
    get_component,
)

# Candidate order breaks exact cost ties, so each kind's registration
# order is part of the planners' behaviour.
REGISTRATION_ORDER = {
    "reordering": [
        "original", "shuffled", "degree", "gray", "rcm", "amd", "nd", "gp", "hp", "rabbit", "slashburn",
    ],
    "clustering": ["fixed", "variable", "hierarchical"],
    "kernel": ["rowwise", "cluster", "tiled"],
    "backend": ["reference", "scipy"],
}

DESCRIBE = """\
reorderings:
  original [baseline] — Identity permutation (the paper's baseline order).
  shuffled [square-only baseline] — Uniform random permutation (paper's extreme baseline).
  degree [square-only planner#4 hub] — Rows sorted by descending degree (nnz), ties by original index.
  gray (blocks,dense_threshold) [square-only bandwidth] — Gray-code ordering [51].
  rcm [square-only planner#1 bandwidth] — Reverse Cuthill–McKee over the undirected graph of ``A``.
  amd (work_budget) [square-only planner#2 bandwidth] — Approximate minimum degree ordering (quotient-graph based).
  nd (leaf_size) [square-only bandwidth] — Nested-dissection ordering of the graph of ``A``.
  gp (k,target_rows) [square-only bandwidth] — Graph-partitioning ordering (edge-cut objective, recursive bisection).
  hp (k,target_rows,method,clique_cap) [square-only bandwidth] — Column-net hypergraph partitioning ordering (see module docstring).
  rabbit [square-only planner#3 hub] — Rabbit-style community merge ordering (see module docstring).
  slashburn (k_ratio,max_rounds) [square-only planner#5 hub] — SlashBurn with hub fraction ``k_ratio`` per round (paper default 0.5%).
clusterings:
  fixed (cluster_size) — Cluster consecutive rows of ``A`` into groups of ``cluster_size``.
  variable (jacc_th,max_cluster_th) — Build variable-length clusters of consecutive similar rows (Alg. 2).
  hierarchical (jacc_th,max_cluster_th,column_cap) [embeds-reordering] — Build hierarchical clusters of ``A`` (paper Alg. 3).
kernels:
  rowwise (accumulator) [planner#0] — row-wise Gustavson SpGEMM (two-phase; the bitwise reference)
  cluster [requires-clustering planner#1] — cluster-wise SpGEMM over CSR_Cluster fibers (paper Alg. 1)
  tiled (tile_cols) — column-tiled SpGEMM (paper §5 alternative dataflow)
backends:
  reference — pure-python registry kernels (the bitwise correctness oracle)
  scipy — native scipy CSR matmul (row-wise values, pattern minus exact zeros)"""


@pytest.mark.parametrize("kind", KINDS)
def test_registration_order_is_pinned(kind):
    assert available_components(kind) == REGISTRATION_ORDER[kind]
    assert [c.name for c in components(kind)] == REGISTRATION_ORDER[kind]


def test_describe_listing_is_pinned():
    assert describe() == DESCRIBE


def test_registered_clusterings_share_one_signature():
    # The uniform registered signature: (A, **params) -> Clustering.
    from repro.matrices import generators as G

    cl = get_component("clustering", "fixed").factory(G.grid2d(4, 4, seed=0), cluster_size=4)
    assert cl.method == "fixed"
    assert cl.nclusters == 4


def test_query_after_bootstrap_imports_nothing(monkeypatch):
    import builtins
    import importlib

    available_components("kernel")  # bootstrap, if nothing has yet

    def no_import(*args, **kwargs):
        raise AssertionError(f"registry query imported {args[0]!r}")

    monkeypatch.setattr(importlib, "import_module", no_import)
    monkeypatch.setattr(builtins, "__import__", no_import)
    get_component("reordering", "rcm")
    find_component("hierarchical")
    components("clustering", planned=False)
    available_components("backend")


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


ALL_COMPONENTS = [(kind, name) for kind, names in REGISTRATION_ORDER.items() for name in names]


@pytest.mark.parametrize(
    "kind, name", ALL_COMPONENTS, ids=[name for _, name in ALL_COMPONENTS]
)
def test_name_lookup_checks_the_kind(kind, name):
    # One registry keyed by name: the bare-name lookup and the kinded one
    # return the same entry, and asking for it under another kind is a
    # miss that lists that kind's components.
    info = find_component(name)
    assert (info.kind, info.name) == (kind, name)
    assert get_component(kind, name) is info
    for other in KINDS:
        if other != kind:
            with pytest.raises(KeyError, match=f"unknown {other} '{name}'; available: "):
                get_component(other, name)


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
    assert clusterings == set(available_components("clustering"))
    # Order-embedding clusterings pair only with the natural order.
    for c in cands:
        if c.clustering and get_component("clustering", c.clustering).embeds_reordering:
            assert c.reordering == "original"
    # Non-square spaces drop square-only reorderings entirely.
    assert {c.reordering for c in default_candidates(square=False)} == {"original"}


def test_runtime_registration_through_the_decorators():
    import numpy as np

    from repro.clustering import fixed_length_clustering, register_clustering
    from repro.core import spgemm_rowwise
    from repro.matrices import generators as G
    from repro.pipeline import registry as preg
    from repro.reordering import ReorderingResult, register

    available_components("kernel")  # every built-in kind is registered
    try:

        @register("test_reversed", family="other", square_only=False, planner_rank=99)
        def reversed_order(A, *, seed=0):
            """Rows in reverse order."""
            return ReorderingResult(np.arange(A.nrows, dtype=np.int64)[::-1].copy(), "test_reversed")

        @register_clustering("test_pairs")
        def pairs(A, *, cluster_size=2):
            """Consecutive row pairs."""
            return fixed_length_clustering(A, cluster_size=cluster_size)

        # Planned last (the highest rank)…
        assert planner_reorderings()[-1] == "test_reversed"
        cands = default_candidates(square=True)
        assert cands[-1].reordering == "test_reversed"
        # …the clustering joins the default candidate space…
        assert any(c.clustering == "test_pairs" for c in cands)
        # …and both are spec-addressable, bitwise-correct through run().
        A = G.grid2d(5, 5, seed=0)
        ref = spgemm_rowwise(A, A)
        for text in ("test_reversed+fixed:4+cluster", "rcm+test_pairs:3+cluster"):
            C = PipelineSpec.parse(text).run(A)
            assert np.array_equal(C.indptr, ref.indptr), text
            assert np.array_equal(C.indices, ref.indices), text
            assert np.array_equal(C.values, ref.values), text

        # Names are unique across kinds, checked at the decorator.
        with pytest.raises(ValueError, match="unique across kinds"):

            @register_clustering("rcm")
            def clash(A):
                return None

        with pytest.raises(ValueError, match="unique across kinds"):

            @register("rowwise", family="other")
            def clash_kernel(A, *, seed=0):
                return None

    finally:
        preg._REGISTRY.pop("test_reversed", None)
        preg._REGISTRY.pop("test_pairs", None)
    assert available_components("reordering") == REGISTRATION_ORDER["reordering"]
    assert available_components("clustering") == REGISTRATION_ORDER["clustering"]


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
    rules = default_rules(only=["RA006"])
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
    algorithm_names = set(available_components("reordering")) | set(available_components("clustering"))
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


def test_reordering_tags_come_from_the_register_site():
    info = get_component("reordering", "rcm")
    assert info.family == "bandwidth"
    assert info.planner_rank == 1
    with pytest.raises(KeyError, match="available"):
        get_component("reordering", "nope")
