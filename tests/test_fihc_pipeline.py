"""FIHC pipeline (Figs 2-4): structure, metrics, qualitative relations.

Tree-level probes need full-scale statistics to be stable, so pipeline
tests assert the *raw-distance* relations (which already hold at test
scale) plus structural validity of the trees; full-scale tree probes are
recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.distance import pdist, squareform
from repro.core.fihc import fihc
from repro.mining.spark_fpm import MINED_SCHEMA
from repro.recipedb.vocab import REGIONS


@pytest.fixture(scope="module")
def fihc_result(spark, recipes_small, mined_small):
    return fihc(recipes_small, mined=mined_small)


def test_feature_matrix_shape(fihc_result):
    X = fihc_result.features
    assert X.shape[0] == 26
    assert X.shape[1] == len(fihc_result.patterns)
    assert X.sum() > 0


def test_trees_for_all_metrics(fihc_result):
    assert set(fihc_result.trees) == {"euclidean", "cosine", "jaccard"}
    for Z in fihc_result.trees.values():
        assert Z.shape == (25, 4)


def test_newicks_wellformed(fihc_result):
    for nk in fihc_result.newicks.values():
        assert nk.endswith(";")
        assert nk.count("(") == 25


def test_geo_scores_table(fihc_result):
    gs = fihc_result.geo_scores
    assert sorted(gs["metric"]) == ["cosine", "euclidean", "jaccard"]
    assert gs["cophenetic_corr_vs_geo"].between(-1, 1).all()
    assert gs["triplet_agreement_vs_geo"].between(0, 1).all()


def test_geo_agreement_beats_random(fihc_result):
    """Every metric's tree must agree with geography far above the ~1/3
    random-triplet baseline."""
    gs = fihc_result.geo_scores
    assert (gs["triplet_agreement_vs_geo"] > 0.38).all()


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "jaccard"])
def test_raw_distance_canada_france(fihc_result, metric):
    X = fihc_result.features
    D = squareform(pdist(X, metric), 26)
    i = {r: k for k, r in enumerate(REGIONS)}
    assert (
        D[i["Canadian"], i["French"]] < D[i["Canadian"], i["US"]]
    ), "Canadian cuisine must be closer to French than to US (paper §VII)"


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "jaccard"])
def test_raw_distance_india_nafrica(fihc_result, metric):
    X = fihc_result.features
    D = squareform(pdist(X, metric), 26)
    i = {r: k for k, r in enumerate(REGIONS)}
    ind = i["Indian Subcontinent"]
    assert D[ind, i["Northern Africa"]] < D[ind, i["Thai"]]
    assert D[ind, i["Northern Africa"]] < D[ind, i["Southeast Asian"]]


def test_shared_patterns_india_nafrica(fihc_result):
    """India and N.Africa share their spice-block lattice: >= 60 common
    patterns at test scale."""
    X = fihc_result.features
    i = {r: k for k, r in enumerate(REGIONS)}
    shared = (X[i["Indian Subcontinent"]] * X[i["Northern Africa"]]).sum()
    assert shared >= 60


def test_probes_reported_per_metric(fihc_result):
    for metric, probes in fihc_result.probes.items():
        assert set(probes) == {
            "canadian_closer_to_french_than_us",
            "indian_closer_to_nafrica_than_thai",
            "indian_closer_to_nafrica_than_seasia",
        }


def test_soy_family_clusters_in_features(fihc_result):
    """East-Asian cuisines share soy-family patterns: Japanese must be
    closer to Korean than to Mexican in every metric."""
    X = fihc_result.features
    i = {r: k for k, r in enumerate(REGIONS)}
    for metric in ("euclidean", "cosine", "jaccard"):
        D = squareform(pdist(X, metric), 26)
        assert D[i["Japanese"], i["Korean"]] < D[i["Japanese"], i["Mexican"]]


def test_fihc_names_cuisines_that_mined_nothing(spark, recipes_small):
    """A cuisine without patterns has an all-zero feature row; fihc stops
    before any distance is computed and names every such cuisine."""
    missing = ("Korean", "Thai")
    mined = spark.createDataFrame(
        [(r, ["salt"], 1, 0.5) for r in REGIONS if r not in missing],
        schema=MINED_SCHEMA,
    )
    with pytest.raises(ValueError, match="2 cuisine") as err:
        fihc(recipes_small, mined=mined)
    for region in missing:
        assert region in str(err.value)
    assert "Japanese" not in str(err.value)
