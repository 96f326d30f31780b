"""Authenticity metric (paper Section V-B; Ahn et al. 2011).

Prevalence of ingredient *i* in cuisine *c*:

    P_i^c = n_i^c / N_c                                   (eq. 1)

where ``n_i^c`` is the number of recipes of cuisine *c* containing *i* and
``N_c`` the number of recipes in the cuisine. (The paper's prose says
"total number of recipes in the dataset", but the cited Ahn et al. metric
— and any scale-invariant reading — normalises per cuisine, which is what
is implemented.)

Relative prevalence (authenticity):

    p_i^c = P_i^c - <P_i^k>_{k != c}                      (eq. 2)

i.e. the item's prevalence in *c* minus its mean prevalence over all other
cuisines. Both the most positive and most negative entries fingerprint a
cuisine. Spark does the one large step, a (region, ingredient) count over
the ~1.2M exploded ingredient rows; the per-cuisine totals come from
``stats.region_counts``. The 26 × ingredient matrix and eq. 2 are NumPy on
the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..recipedb.stats import region_counts


def prevalence(
    recipes: DataFrame, regions: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Dense cuisine × ingredient prevalence matrix P (eq. 1).

    Rows follow ``regions``; columns are the sorted ingredient vocabulary.
    An ingredient a cuisine never uses has prevalence 0 there.
    """
    counts = (
        recipes.select("region", F.explode("ingredients").alias("item"))
        .groupBy("region", "item")
        .count()
        .toPandas()
    )
    totals = region_counts(recipes).toPandas().set_index("region")["n_recipes"]
    row = pd.Categorical(counts["region"], categories=regions).codes
    if (row < 0).any():
        unknown = sorted(set(counts["region"]) - set(regions))
        raise ValueError(f"recipes from regions not in `regions`: {unknown}")
    item = pd.Categorical(counts["item"])
    P = np.zeros((len(regions), len(item.categories)), dtype=np.float64)
    P[row, item.codes] = (
        counts["count"].to_numpy() / totals.reindex(regions).to_numpy()[row]
    )
    return P, list(item.categories)


def authenticity_matrix(
    recipes: DataFrame, regions: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Dense cuisine × ingredient relative-prevalence matrix (eq. 2).

    Rows follow ``regions``; columns are the sorted ingredient vocabulary.
    An item absent from cuisine c gets P_i^c = 0 but still a (negative)
    relative prevalence — "least prevalent items contribute to the culinary
    fingerprint" (Section V-B) — which the dense form represents exactly.
    """
    P, items = prevalence(recipes, regions)
    # p_i^c = P_i^c - (sum_k P_i^k - P_i^c) / (n - 1)
    rel = P - (P.sum(axis=0, keepdims=True) - P) / (len(regions) - 1)
    return rel, items


def top_authentic_items(
    rel_matrix: np.ndarray, items: list[str], regions: list[str], k: int = 5
) -> pd.DataFrame:
    """Most-positive and most-negative authenticity items per cuisine —
    the "culinary fingerprint" view used for qualitative inspection."""
    rows = []
    for i, region in enumerate(regions):
        order = np.argsort(rel_matrix[i])
        for j in order[-k:][::-1]:
            rows.append((region, items[j], float(rel_matrix[i, j]), "most"))
        for j in order[:k]:
            rows.append((region, items[j], float(rel_matrix[i, j]), "least"))
    return pd.DataFrame(
        rows, columns=["region", "item", "relative_prevalence", "side"]
    )
