"""Miner agreement on whole test-scale cuisines: FP-Growth, the bitmap
Eclat and Apriori return the same itemsets with the same counts. The
shared hand, brute-force and property cases are in ``test_miners``."""
from __future__ import annotations

import pytest

from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import fpgrowth
from repro.recipedb.generator import cuisine_pdf
from tests.conftest import TEST_SCALE, TEST_SEED


def _transactions(region):
    return cuisine_pdf(region, scale=TEST_SCALE, seed=TEST_SEED)["items"].to_pylist()


@pytest.mark.parametrize("region", ["Korean", "Northern Africa"])
def test_fpgrowth_apriori_agree_on_cuisine(region):
    tx = _transactions(region)
    assert fpgrowth(tx, 0.2) == apriori(tx, 0.2) == eclat(tx, 0.2)


@pytest.mark.parametrize("min_support", [0.15, 0.25, 0.35])
def test_fpgrowth_apriori_agree_across_thresholds(min_support):
    tx = _transactions("US")
    expected = fpgrowth(tx, min_support)
    assert apriori(tx, min_support) == expected
    assert eclat(tx, min_support) == expected
