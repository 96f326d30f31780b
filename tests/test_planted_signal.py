"""Planted-signal controls (ROADMAP item 5): the generator plants
Canadian's link to French (``FAMILIES`` gives it franco 0.6) and Northern
Africa's link to India (the spice family). Removing either link flips the
probes that read it, so the probes test the pipeline's view of the planted
signal, and have power to fail."""
from __future__ import annotations

import pytest

from repro.core.authenticity import authenticity_clustering
from repro.core.fihc import fihc
from repro.mining.spark_fpm import mine_all_regions
from repro.recipedb import vocab
from repro.recipedb.generator import recipes
from tests.conftest import TEST_SCALE, TEST_SEED

CANADA = "canadian_closer_to_french_than_us"
INDIA = ("indian_closer_to_nafrica_than_thai", "indian_closer_to_nafrica_than_seasia")
FIHC_TREES = ("euclidean", "cosine", "jaccard")
ALL_TREES = (*FIHC_TREES, "authenticity")

# Variant -> (families patched in, the (tree, probe) pairs that fail).
VARIANTS = {
    "baseline": ({}, set()),
    "canadian-anglo": (
        {"Canadian": [("anglo", 1.0)]},
        {(tree, CANADA) for tree in ALL_TREES},
    ),
    "nafrica-no-spice": (
        {"Northern Africa": [("mediterranean", 0.6), ("africa", 0.4)]},
        {(tree, probe) for tree in FIHC_TREES for probe in INDIA},
    ),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_probes_flip_when_the_planted_link_is_removed(spark, monkeypatch, variant):
    """Scale 0.05, seed 0, support 0.2: every probe passes on the baseline;
    without Canadian's franco share the Canada probe fails under all four
    trees; without Northern Africa's spice share both India probes fail
    under the three FIHC metrics and still pass under authenticity."""
    families, expected_failures = VARIANTS[variant]
    for region, fams in families.items():
        monkeypatch.setitem(vocab.FAMILIES, region, fams)
        monkeypatch.setitem(vocab.PROFILES, region, vocab._build_profile(region))
    df = recipes(spark, scale=TEST_SCALE, seed=TEST_SEED)
    probes = {
        **fihc(df, mined=mine_all_regions(df, vocab.MIN_SUPPORT)).probes,
        "authenticity": authenticity_clustering(df).probes,
    }
    assert set(probes) == set(ALL_TREES)
    failures = {(tree, p) for tree, ps in probes.items() for p, ok in ps.items() if not ok}
    assert failures == expected_failures
