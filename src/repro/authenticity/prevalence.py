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
cuisine. Spark does the one large step, one (region, ingredient) count over
the ~1.2M exploded ingredient rows, each recipe's list led by a null
sentinel whose count is N_c. Like every recipe aggregation, it reads the
cached frame one task per core (coalesced to ``defaultParallelism``
partitions before the shuffle). The 26 × ingredient matrix and eq. 2 are
NumPy on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..recipedb.vocab import REGIONS, cuisine_matrix


def prevalence(recipes: DataFrame) -> tuple[np.ndarray, list[str]]:
    """Dense cuisine × ingredient prevalence matrix P (eq. 1), laid out by
    ``cuisine_matrix`` over the sorted ingredient vocabulary; an ingredient
    a cuisine never uses has prevalence 0 there. One query: each recipe's
    ingredients are exploded behind a null sentinel, so the null rows of
    the (region, item) count are the N_c. Raises ``ValueError`` for a
    frame with no recipes."""
    cores = recipes.sparkSession.sparkContext.defaultParallelism
    counts = (
        recipes.coalesce(cores)
        .select(
            "region",
            F.explode(
                F.concat(F.array(F.lit(None).cast("string")), "ingredients")
            ).alias("item"),
        )
        .groupBy("region", "item")
        .count()
        .toPandas()
    )
    if counts.empty:
        raise ValueError("prevalence: the frame holds no recipes")
    # Each row's N_c: the count of its region's sentinel row.
    sentinel = counts["item"].isna()
    n_c = counts["count"].where(sentinel).groupby(counts["region"]).transform("max")
    return cuisine_matrix(counts["region"], counts["item"], counts["count"] / n_c)


def authenticity_matrix(recipes: DataFrame) -> tuple[np.ndarray, list[str]]:
    """Dense cuisine × ingredient relative-prevalence matrix (eq. 2), laid
    out as ``prevalence``. An item absent from cuisine c gets P_i^c = 0 but
    still a (negative) relative prevalence — "least prevalent items
    contribute to the culinary fingerprint" (Section V-B) — which the dense
    form represents exactly."""
    P, items = prevalence(recipes)
    # p_i^c = P_i^c - (sum_k P_i^k - P_i^c) / (n - 1)
    rel = P - (P.sum(axis=0, keepdims=True) - P) / (len(REGIONS) - 1)
    return rel, items


def top_authentic_items(
    rel_matrix: np.ndarray, items: list[str], k: int
) -> pd.DataFrame:
    """Most-positive and most-negative authenticity items per cuisine, rows
    of ``rel_matrix`` in ``REGIONS`` order — the "culinary fingerprint" view
    used for qualitative inspection. Raises ``ValueError`` for ``k < 1``."""
    if k < 1:
        raise ValueError(f"top_authentic_items: k must be >= 1, got {k!r}")
    rows = []
    for i, region in enumerate(REGIONS):
        order = np.argsort(rel_matrix[i])
        for j in order[-k:][::-1]:
            rows.append((region, items[j], float(rel_matrix[i, j]), "most"))
        for j in order[:k]:
            rows.append((region, items[j], float(rel_matrix[i, j]), "least"))
    return pd.DataFrame(
        rows, columns=["region", "item", "relative_prevalence", "side"]
    )
