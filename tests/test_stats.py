"""Section-III dataset statistics (T5), oracle-checked."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.recipedb import vocab as V
from repro.recipedb.stats import (
    avg_items_per_recipe,
    dataset_summary,
    recipes_without_utensils,
    region_counts,
    unique_items_exploded,
)
from repro.recipedb.vocab import REGIONS


def test_region_counts_oracle(spark, recipes_small, recipes_small_pdf):
    got = region_counts(recipes_small)
    base = recipes_small_pdf[["region", "recipe_id"]]
    assert_equivalent(
        got,
        "SELECT region, count(*) AS n_recipes FROM base GROUP BY region",
        base=base,
    )


def test_region_counts_scaled(spark, recipes_small):
    counts = {r["region"]: r["n_recipes"] for r in region_counts(recipes_small).collect()}
    for region in REGIONS:
        expected = max(120, round(0.05 * V.PAPER_TABLE1[region][0]))
        assert counts[region] == expected


def test_unique_counts_two_impls_agree(spark, recipes_small, recipes_small_pdf):
    """Spark's explode + distinct agrees with DuckDB's count(DISTINCT)."""
    cols = ("ingredients", "processes", "utensils")
    long = {c: recipes_small_pdf[[c]].explode(c).dropna() for c in cols}
    assert_equivalent(
        unique_items_exploded(recipes_small),
        "SELECT "
        + ", ".join(
            f"(SELECT count(DISTINCT {c}) FROM {c}) AS unique_{c}" for c in cols
        ),
        **long,
    )


def test_unique_counts_within_universe(spark, recipes_small):
    u = unique_items_exploded(recipes_small).first()
    assert 0 < u["unique_ingredients"] <= V.N_UNIQUE_INGREDIENTS
    assert 0 < u["unique_processes"] <= V.N_UNIQUE_PROCESSES
    assert 0 < u["unique_utensils"] <= V.N_UNIQUE_UTENSILS


def test_unique_processes_near_universe_at_test_scale(spark, recipes_small):
    """268 processes is small enough that even the test-scale dataset
    should cover nearly all of them."""
    u = unique_items_exploded(recipes_small).first()
    assert u["unique_processes"] >= 0.9 * V.N_UNIQUE_PROCESSES
    assert u["unique_utensils"] >= 0.9 * V.N_UNIQUE_UTENSILS


def test_avg_items_oracle(spark, recipes_small, recipes_small_pdf):
    got = avg_items_per_recipe(recipes_small)
    pdf = recipes_small_pdf.copy()
    pdf["n_ing"] = pdf["ingredients"].map(len)
    pdf["n_proc"] = pdf["processes"].map(len)
    pdf["n_ut"] = pdf["utensils"].map(len)
    assert_equivalent(
        got,
        """SELECT avg(n_ing) AS avg_ingredients, avg(n_proc) AS avg_processes,
                  avg(n_ut) AS avg_utensils FROM base""",
        base=pdf[["n_ing", "n_proc", "n_ut"]],
    )


def test_recipes_without_utensils_fraction(spark, recipes_small):
    n = recipes_small.count()
    frac = recipes_without_utensils(recipes_small) / n
    assert frac == pytest.approx(V.UTENSIL_DROPOUT, abs=0.03)


def test_dataset_summary_contents(spark, recipes_small):
    s = dataset_summary(recipes_small).set_index("metric")["value"]
    assert s["total_recipes"] == recipes_small.count()
    assert 7 <= s["avg_ingredients"] <= 14
    assert 8 <= s["avg_processes"] <= 16
    assert 1.5 <= s["avg_utensils"] <= 4.5
    assert s["recipes_without_utensils"] > 0
