"""RA004 clean: valid spec literals in every position the rule scans."""

CASES = (
    "rcm+fixed:8+cluster",
    "rcm+hierarchical:max_th=8+cluster",
    "original+none+rowwise",
    "rabbit+tiled:tile_cols=128",
    "original+variable+cluster@reference",
)


def parsed():
    from repro.pipeline import PipelineSpec

    return PipelineSpec.parse("rcm+fixed:8+cluster@scipy")
