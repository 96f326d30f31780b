"""Authenticity metric (paper Section V-B; Ahn et al. 2011).

Prevalence of item *i* in cuisine *c*:

    P_i^c = n_i^c / N_c                                   (eq. 1)

where ``n_i^c`` is the number of recipes of cuisine *c* containing *i* and
``N_c`` the number of recipes in the cuisine. (The paper's prose says
"total number of recipes in the dataset", but the cited Ahn et al. metric
— and any scale-invariant reading — normalises per cuisine; we default to
per-cuisine and expose ``norm='dataset'`` for the literal reading.)

Relative prevalence (authenticity):

    p_i^c = P_i^c - <P_i^k>_{k != c}                      (eq. 2)

i.e. the item's prevalence in *c* minus its mean prevalence over all other
cuisines. Both the most positive and most negative entries fingerprint a
cuisine. Computed with Spark aggregations; densified to a cuisine ×
ingredient matrix on the driver for HAC.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..recipedb.stats import region_counts


def prevalence(
    recipes: DataFrame, column: str = "ingredients", norm: str = "cuisine"
) -> DataFrame:
    """(region, item, n_recipes_with_item, prevalence).

    ``norm='cuisine'``: divide by the cuisine's recipe count (default).
    ``norm='dataset'``: divide by the total recipe count (paper's literal
    eq. 1 text).
    """
    if norm not in ("cuisine", "dataset"):
        raise ValueError(f"unknown norm: {norm!r}")
    long = recipes.select("region", "recipe_id", F.explode(column).alias("item"))
    counts = long.groupBy("region", "item").agg(
        F.count(F.lit(1)).alias("n_recipes_with_item")
    )
    if norm == "cuisine":
        counts = counts.join(region_counts(recipes), "region")
        n_total = F.col("n_recipes")
    else:
        n_total = F.lit(recipes.count())
    return counts.select(
        "region",
        "item",
        "n_recipes_with_item",
        (F.col("n_recipes_with_item") / n_total).alias("prevalence"),
    )


def relative_prevalence(prev: DataFrame, n_regions: int) -> DataFrame:
    """Authenticity p_i^c = P_i^c - mean_{k != c} P_i^k.

    Items absent from a cuisine count as prevalence 0 there, so the mean
    over "other cuisines" divides the sum of *other* cuisines' prevalences
    by ``n_regions - 1`` regardless of sparsity — done with a window over
    each item, no densification in Spark.
    """
    w = Window.partitionBy("item")
    return prev.withColumn(
        "relative_prevalence",
        F.col("prevalence")
        - (F.sum("prevalence").over(w) - F.col("prevalence"))
        / F.lit(float(n_regions - 1)),
    ).select("region", "item", "prevalence", "relative_prevalence")


def authenticity_matrix(
    recipes: DataFrame,
    regions: list[str],
    column: str = "ingredients",
    norm: str = "cuisine",
) -> tuple[np.ndarray, list[str]]:
    """Dense cuisine × item relative-prevalence matrix.

    Rows follow ``regions``; columns are the sorted item vocabulary. An
    item absent from cuisine c gets P_i^c = 0 but still a (negative)
    relative prevalence — "least prevalent items contribute to the culinary
    fingerprint" (Section V-B) — which the dense form represents exactly.
    """
    prev_pdf = prevalence(recipes, column=column, norm=norm).toPandas()
    items = sorted(prev_pdf["item"].unique())
    item_idx = {it: j for j, it in enumerate(items)}
    reg_idx = {r: i for i, r in enumerate(regions)}
    P = np.zeros((len(regions), len(items)), dtype=np.float64)
    for region, item, p in zip(
        prev_pdf["region"], prev_pdf["item"], prev_pdf["prevalence"]
    ):
        P[reg_idx[region], item_idx[item]] = p
    n = len(regions)
    # p_i^c = P_i^c - (sum_k P_i^k - P_i^c) / (n - 1), vectorised over the
    # dense matrix — identical to the Spark window formula plus the implicit
    # zero rows.
    col_sums = P.sum(axis=0, keepdims=True)
    rel = P - (col_sums - P) / (n - 1)
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
