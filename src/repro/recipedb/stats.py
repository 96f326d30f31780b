"""Section-III dataset statistics, computed in Spark SQL (oracle-checked).

Reproduces the numbers the paper reports about RecipeDB: total recipes,
per-region recipe counts (Table I column 2), unique ingredient / process /
utensil counts, average items per recipe by type, and the number of
recipes without utensil information.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def region_counts(recipes: DataFrame) -> DataFrame:
    """(region, n_recipes) — Table I column 2."""
    return recipes.groupBy("region").agg(
        F.count(F.lit(1)).alias("n_recipes")
    )


def unique_items_exploded(recipes: DataFrame) -> DataFrame:
    """One row: distinct ingredient / process / utensil counts, via
    explode + distinct."""
    counts = []
    for col in ("ingredients", "processes", "utensils"):
        c = (
            recipes.select(F.explode(col).alias("item"))
            .distinct()
            .agg(F.count(F.lit(1)).alias(f"unique_{col}"))
        )
        counts.append(c)
    out = counts[0]
    for c in counts[1:]:
        out = out.crossJoin(c)
    return out


def avg_items_per_recipe(recipes: DataFrame) -> DataFrame:
    """Average ingredients / processes / utensils per recipe (paper: ~10,
    ~12, ~3)."""
    return recipes.agg(
        F.avg(F.size("ingredients")).alias("avg_ingredients"),
        F.avg(F.size("processes")).alias("avg_processes"),
        F.avg(F.size("utensils")).alias("avg_utensils"),
    )


def recipes_without_utensils(recipes: DataFrame) -> int:
    """Count of recipes with no utensil information (paper: 14,601)."""
    return recipes.filter(F.size("utensils") == 0).count()


def dataset_summary(recipes: DataFrame) -> pd.DataFrame:
    """All Section-III stats as one tidy pandas frame (metric, value)."""
    total = recipes.count()
    uniq = unique_items_exploded(recipes).first()
    avgs = avg_items_per_recipe(recipes).first()
    no_ut = recipes_without_utensils(recipes)
    rows = [
        ("total_recipes", total),
        ("unique_ingredients", uniq["unique_ingredients"]),
        ("unique_processes", uniq["unique_processes"]),
        ("unique_utensils", uniq["unique_utensils"]),
        ("avg_ingredients", round(avgs["avg_ingredients"], 2)),
        ("avg_processes", round(avgs["avg_processes"], 2)),
        ("avg_utensils", round(avgs["avg_utensils"], 2)),
        ("recipes_without_utensils", no_ut),
    ]
    return pd.DataFrame(rows, columns=["metric", "value"])
