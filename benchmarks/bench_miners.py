"""T6 bench: FP-Growth vs Apriori vs Spark MLlib — the paper's §V-A claim
that FP-Growth is "an efficient and scalable method" vs candidate
generation — plus the bitmap Eclat that the grouped miner runs.

Two workload shapes:
* Italian (16,582 recipes, shallow lattice of 63 patterns) — largest n;
* Northern Africa (1,611 recipes, deep 134-pattern lattice from the spice
  blocks) — where candidate generation pays the combinatorial price and
  FP-Growth's advantage shows (~2x in our runs).
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.spark_fpm import mine_region_mllib
from repro.recipedb.generator import cuisine_pdf
from repro.recipedb.vocab import MIN_SUPPORT

REGIONS_UNDER_TEST = ["Italian", "Northern Africa"]
# The reference, the candidate-generation baseline, the grouped engine.
LOCAL_MINERS = [fpgrowth, apriori, eclat]


@pytest.fixture(scope="module")
def tx_by_region():
    return {
        r: cuisine_pdf(r, scale=BENCH_SCALE, seed=BENCH_SEED)["items"].to_pylist()
        for r in REGIONS_UNDER_TEST
    }


@pytest.mark.parametrize("region", REGIONS_UNDER_TEST)
@pytest.mark.parametrize("miner", LOCAL_MINERS, ids=lambda m: m.__name__)
def test_bench_local_miner(benchmark, tx_by_region, miner, region):
    res = benchmark.pedantic(
        miner, args=(tx_by_region[region], MIN_SUPPORT), rounds=3, iterations=1
    )
    assert len(res) > 20


def test_bench_mllib_fpgrowth(benchmark, spark, recipes_full):
    def run():
        return mine_region_mllib(recipes_full, "Italian", MIN_SUPPORT).count()

    n = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert n > 30


def test_miners_agree_at_bench_scale(tx_by_region):
    for tx in tx_by_region.values():
        expected = fpgrowth(tx, MIN_SUPPORT)
        for miner in LOCAL_MINERS[1:]:
            assert miner(tx, MIN_SUPPORT) == expected, miner.__name__
