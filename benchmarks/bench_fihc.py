"""T3 bench: FIHC pipeline (one collect of the mined set -> driver-side
label encoding + features -> 3x pdist + HAC + geo validation) over the
full-scale mining result."""
from __future__ import annotations

from repro.core.fihc import fihc


def test_bench_fihc_pipeline(benchmark, spark, recipes_full, mined_full):
    def run():
        return fihc(recipes_full, mined=mined_full)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert set(res.trees) == {"euclidean", "cosine", "jaccard"}
    assert res.features.shape[0] == 26
