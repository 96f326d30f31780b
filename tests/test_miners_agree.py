"""Miner agreement (reference FP-Growth, Apriori, Spark MLlib and the
grouped engine's bitmap Eclat) on real synthetic-RecipeDB cuisines — the
correctness leg of T6."""
from __future__ import annotations

import pytest

from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.mining.spark_fpm import mine_region_mllib


def _transactions(recipes_small_pdf, region):
    sub = recipes_small_pdf[recipes_small_pdf["region"] == region]
    return [list(t) for t in sub["items"]]


@pytest.mark.parametrize("region", ["Korean", "Northern Africa"])
def test_fpgrowth_apriori_agree_on_cuisine(recipes_small_pdf, region):
    tx = _transactions(recipes_small_pdf, region)
    assert fpgrowth(tx, 0.2) == apriori(tx, 0.2) == eclat(tx, 0.2)


@pytest.mark.parametrize("min_support", [0.15, 0.25, 0.35])
def test_fpgrowth_apriori_agree_across_thresholds(recipes_small_pdf, min_support):
    tx = _transactions(recipes_small_pdf, "US")
    expected = fpgrowth(tx, min_support)
    assert apriori(tx, min_support) == expected
    assert eclat(tx, min_support) == expected


def test_three_way_agreement(spark, recipes_small, recipes_small_pdf):
    region = "Middle Eastern"
    tx = _transactions(recipes_small_pdf, region)
    local = fpgrowth(tx, 0.2)
    level = apriori(tx, 0.2)
    mllib = {
        frozenset(r["items"]): r["freq"]
        for r in mine_region_mllib(recipes_small, region, 0.2).collect()
    }
    assert local == level == mllib == eclat(tx, 0.2)


def test_support_values_match_containment(recipes_small_pdf):
    """Mined counts equal direct containment counts on the raw data."""
    region = "Greek"
    tx = _transactions(recipes_small_pdf, region)
    sets = [frozenset(t) for t in tx]
    mined = fpgrowth(tx, 0.25)
    assert mined  # Greek has olive oil at ~0.41
    for itemset, count in mined.items():
        assert count == sum(1 for s in sets if itemset <= s)
