"""Authenticity pipeline (Fig 5): structure + raw-distance relations."""
from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.distance import pdist
from repro.cluster.hac import to_newick
from repro.core.authenticity import authenticity_clustering
from repro.recipedb.vocab import REGIONS


@pytest.fixture(scope="module")
def auth_result(spark, recipes_small):
    return authenticity_clustering(recipes_small)


def test_matrix_shape(auth_result):
    assert auth_result.matrix.shape[0] == 26
    assert auth_result.matrix.shape[1] == len(auth_result.items)


def test_items_are_ingredients_only(auth_result):
    from repro.recipedb.vocab import item_type

    assert all(item_type(i) == "ingredient" for i in auth_result.items)


def test_tree_shape(auth_result):
    assert auth_result.tree.shape == (25, 4)
    assert to_newick(auth_result.tree, REGIONS).endswith(";")


def test_geo_scores(auth_result):
    gs = auth_result.geo_scores
    assert len(gs) == 1
    assert -1 <= gs["cophenetic_corr_vs_geo"].iloc[0] <= 1
    assert gs["triplet_agreement_vs_geo"].iloc[0] > 0.36


def test_probes_reported(auth_result):
    assert set(auth_result.probes) == {
        "canadian_closer_to_french_than_us",
        "indian_closer_to_nafrica_than_thai",
        "indian_closer_to_nafrica_than_seasia",
    }


def test_raw_distance_canada(auth_result):
    D = pdist(auth_result.matrix, "euclidean")
    i = {r: k for k, r in enumerate(REGIONS)}
    assert D[i["Canadian"], i["French"]] < D[i["Canadian"], i["US"]]


def test_raw_distance_india(auth_result):
    D = pdist(auth_result.matrix, "euclidean")
    i = {r: k for k, r in enumerate(REGIONS)}
    ind = i["Indian Subcontinent"]
    assert D[ind, i["Northern Africa"]] < D[ind, i["Thai"]]
    assert D[ind, i["Northern Africa"]] < D[ind, i["Southeast Asian"]]


def test_raw_distance_families(auth_result):
    """Family structure shows up in authenticity space."""
    D = pdist(auth_result.matrix, "euclidean")
    i = {r: k for k, r in enumerate(REGIONS)}
    assert D[i["Japanese"], i["Korean"]] < D[i["Japanese"], i["Mexican"]]
    assert D[i["Greek"], i["Italian"]] < D[i["Greek"], i["Japanese"]]
    assert D[i["UK"], i["Irish"]] < D[i["UK"], i["Thai"]]

