"""PipelineSpec: string grammar, round-trips, validation errors, and
ExecutionPlan interop (ISSUE 2 satellite: spec parsing coverage)."""

import pytest

from repro.engine import ExecutionPlan
from repro.pipeline import PipelineSpec, get_component

# ----------------------------------------------------------------------
# Round-trips: parse(str(spec)) == spec
# ----------------------------------------------------------------------
ROUND_TRIP_TEXTS = [
    "original+none+rowwise",
    "rcm+none+rowwise",
    "rcm+hierarchical:max_th=8+cluster",  # the ISSUE acceptance spec
    "rcm+fixed:8+cluster",  # positional parameter
    "rcm+fixed:cluster_size=4+cluster",
    "slashburn+variable:jacc_th=0.25,max_cluster_th=4+cluster",
    "rabbit+tiled:tile_cols=64",
    "gray:blocks=16+rowwise",
    "degree+rowwise:accumulator=hash",
    "hierarchical",  # clustering alone implies original + cluster kernel
    "original+variable+cluster",
]


@pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
def test_parse_str_round_trip(text):
    spec = PipelineSpec.parse(text)
    assert PipelineSpec.parse(str(spec)) == spec


def test_aliases_and_positional_values_normalise_to_one_spec():
    a = PipelineSpec.parse("rcm+hierarchical:max_th=8+cluster")
    b = PipelineSpec.parse("rcm+hierarchical:max_cluster_th=8+cluster")
    assert a == b
    assert PipelineSpec.parse("rcm+fixed:8+cluster") == PipelineSpec.parse(
        "rcm+fixed:size=8+cluster"
    )


def test_segment_order_is_free_and_kinds_are_inferred():
    canonical = PipelineSpec.parse("rcm+fixed+cluster")
    assert PipelineSpec.parse("fixed+rcm+cluster") == canonical
    assert PipelineSpec.parse("cluster+fixed+rcm") == canonical
    # Omitted segments default sensibly.
    assert PipelineSpec.parse("rcm") == PipelineSpec(reordering="rcm")
    assert PipelineSpec.parse("fixed").kernel == "cluster"
    assert PipelineSpec.parse("rcm+rowwise").clustering is None


def test_construction_equals_parse():
    spec = PipelineSpec(
        reordering="rcm",
        clustering="hierarchical",
        kernel="cluster",
        clustering_params=(("max_th", "8"),),  # alias + string value coerce
    )
    assert spec == PipelineSpec.parse("rcm+hierarchical:max_cluster_th=8+cluster")
    assert spec.clustering_params == (("max_cluster_th", 8),)


def test_str_emits_three_segments_with_canonical_params():
    spec = PipelineSpec.parse("rcm+fixed:8+cluster")
    assert str(spec) == "rcm+fixed:cluster_size=8+cluster"
    assert str(PipelineSpec()) == "original+none+rowwise"


# ----------------------------------------------------------------------
# Errors: unknown components and invalid parameters
# ----------------------------------------------------------------------
def test_unknown_component_raises_keyerror_listing_names():
    with pytest.raises(KeyError) as e:
        PipelineSpec.parse("frobulate+rowwise")
    msg = str(e.value)
    assert "frobulate" in msg
    for expected in ("rcm", "hierarchical", "rowwise"):  # one name per kind
        assert expected in msg


def test_unknown_clustering_name_lists_clusterings():
    with pytest.raises(KeyError) as e:
        get_component("clustering", "quantum")
    assert "fixed" in str(e.value) and "hierarchical" in str(e.value)


def test_unknown_param_raises_valueerror_listing_schema():
    with pytest.raises(ValueError, match="cluster_size"):
        PipelineSpec.parse("rcm+fixed:wat=3+cluster")


def test_ill_typed_param_raises():
    with pytest.raises(ValueError, match="expects int"):
        PipelineSpec.parse("rcm+fixed:0.5+cluster")


def test_incompatible_kernel_raises():
    with pytest.raises(ValueError, match="requires a clustering"):
        PipelineSpec.parse("rcm+none+cluster")


def test_duplicate_kind_and_double_param_raise():
    with pytest.raises(ValueError, match="two reorderings"):
        PipelineSpec.parse("rcm+amd+rowwise")
    with pytest.raises(ValueError, match="twice"):
        PipelineSpec.parse("rcm+fixed:8,cluster_size=4+cluster")


def test_clustering_params_without_clustering_raise():
    with pytest.raises(ValueError):
        PipelineSpec(clustering=None, clustering_params=(("cluster_size", 8),))


# ----------------------------------------------------------------------
# ExecutionPlan interop
# ----------------------------------------------------------------------
def test_to_plan_from_plan_round_trip():
    spec = PipelineSpec.parse("rcm+hierarchical:max_th=8+cluster")
    plan = spec.to_plan()
    assert isinstance(plan, ExecutionPlan)
    assert (plan.reordering, plan.clustering, plan.kernel) == ("rcm", "hierarchical", "cluster")
    assert dict(plan.params)["max_cluster_th"] == 8.0
    assert PipelineSpec.from_plan(plan) == spec
    assert plan.pipeline() == spec


def test_accumulator_survives_plan_round_trip():
    spec = PipelineSpec.parse("degree+rowwise:accumulator=hash")
    plan = spec.to_plan()
    assert plan.accumulator == "hash"
    assert "accumulator" not in dict(plan.params)
    assert plan.pipeline() == spec


def test_with_clustering_preserves_explicit_kernels():
    # Only the parameterless default kernel upgrades to `cluster`.
    assert PipelineSpec.parse("rcm").with_clustering("fixed").kernel == "cluster"
    tiled = PipelineSpec.parse("degree+tiled:tile_cols=3").with_clustering("fixed")
    assert tiled.kernel == "tiled"
    assert tiled.kernel_params == (("tile_cols", 3),)
    hashed = PipelineSpec.parse("rowwise:accumulator=hash").with_clustering("fixed")
    assert hashed.kernel == "rowwise"
    # Clearing the clustering under a cluster kernel falls back cleanly.
    cleared = PipelineSpec.parse("rcm+fixed+cluster").with_clustering(None)
    assert cleared.kernel == "rowwise" and cleared.clustering is None


def test_build_base_reuse_requires_matching_config():
    from repro.experiments import ExperimentConfig
    from repro.matrices import generators as G

    A = G.grid2d(6, 6, seed=0)
    spec = PipelineSpec.parse("original+variable+cluster")
    b1 = spec.build(A, cfg=ExperimentConfig())
    cfg2 = ExperimentConfig(jacc_th=0.99, max_cluster_th=2)
    b2 = spec.build(A, cfg=cfg2, base=b1)
    fresh = spec.build(A, cfg=cfg2)
    assert b2.clustering is not b1.clustering
    assert b2.clustering.nclusters == fresh.clustering.nclusters
    # Same config *does* reuse the stage.
    b3 = spec.build(A, cfg=cfg2, base=b2)
    assert b3.clustering is b2.clustering


def test_square_only_reordering_rejected_on_rectangle():
    import numpy as np

    from repro.matrices import generators as G

    A = G.grid2d(6, 6, seed=0).extract_rows(np.arange(20))
    with pytest.raises(ValueError, match="square"):
        PipelineSpec.parse("rcm+rowwise").build(A)
