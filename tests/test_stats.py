"""Section-III dataset statistics (T5), oracle-checked."""
from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.recipedb import vocab as V
from repro.recipedb.generator import RECIPE_SCHEMA
from repro.recipedb.stats import ITEM_COLUMNS, dataset_summary, region_counts
from repro.recipedb.vocab import REGIONS


@pytest.fixture(scope="module")
def summary(spark, recipes_small) -> pd.Series:
    return dataset_summary(recipes_small).set_index("metric")["value"]


@pytest.fixture(scope="module")
def oracle(recipes_small_pdf) -> dict:
    """The eight Section-III values computed by DuckDB."""
    sizes = pd.DataFrame({c: recipes_small_pdf[c].map(len) for c in ITEM_COLUMNS})
    long = {c: recipes_small_pdf[[c]].explode(c).dropna() for c in ITEM_COLUMNS}
    sql = "SELECT count(*) AS total_recipes, " + ", ".join(
        [f"(SELECT count(DISTINCT {c}) FROM {c}) AS unique_{c}" for c in ITEM_COLUMNS]
        + [f"round(avg({c}), 2) AS avg_{c}" for c in ITEM_COLUMNS]
        + ["count(*) FILTER (WHERE utensils = 0) AS recipes_without_utensils"]
    ) + " FROM sizes"
    con = duckdb.connect()
    try:
        con.register("sizes", sizes)
        for c, t in long.items():
            con.register(c, t)
        return con.execute(sql).fetchdf().iloc[0].to_dict()
    finally:
        con.close()


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


def test_unique_counts_two_impls_agree(summary, oracle):
    """Spark's tagged explode + countDistinct agrees with DuckDB's
    count(DISTINCT) per column."""
    for c in ITEM_COLUMNS:
        assert summary[f"unique_{c}"] == oracle[f"unique_{c}"]


def test_unique_counts_within_universe(summary):
    assert 0 < summary["unique_ingredients"] <= V.N_UNIQUE_INGREDIENTS
    assert 0 < summary["unique_processes"] <= V.N_UNIQUE_PROCESSES
    assert 0 < summary["unique_utensils"] <= V.N_UNIQUE_UTENSILS


def test_unique_processes_near_universe_at_test_scale(summary):
    """268 processes is small enough that even the test-scale dataset
    should cover nearly all of them."""
    assert summary["unique_processes"] >= 0.9 * V.N_UNIQUE_PROCESSES
    assert summary["unique_utensils"] >= 0.9 * V.N_UNIQUE_UTENSILS


def test_avg_items_oracle(summary, oracle):
    for c in ITEM_COLUMNS:
        assert summary[f"avg_{c}"] == oracle[f"avg_{c}"]


def test_recipes_without_utensils_fraction(summary):
    frac = summary["recipes_without_utensils"] / summary["total_recipes"]
    assert frac == pytest.approx(V.UTENSIL_DROPOUT, abs=0.03)


def test_dataset_summary_contents(summary, oracle):
    """The eight metrics in the paper's order; the two recipe counts equal
    DuckDB's (the other six are checked above)."""
    assert list(summary.index) == list(oracle)
    for metric in ("total_recipes", "recipes_without_utensils"):
        assert summary[metric] == oracle[metric]
    assert 7 <= summary["avg_ingredients"] <= 14
    assert 8 <= summary["avg_processes"] <= 16
    assert 1.5 <= summary["avg_utensils"] <= 4.5
    assert summary["recipes_without_utensils"] > 0


def test_dataset_summary_without_any_utensils(spark):
    """A column with no items at all reports 0 distinct items."""
    pdf = pd.DataFrame(
        {
            "region": ["A", "A", "B"],
            "recipe_id": [0, 1, 2],
            "ingredients": [["salt", "egg"], ["salt"], ["rice"]],
            "processes": [["boil"], ["boil", "fry"], []],
            "utensils": [[], [], []],
            "items": [["salt", "egg", "boil"], ["salt", "boil", "fry"], ["rice"]],
        }
    )
    s = dataset_summary(spark.createDataFrame(pdf, RECIPE_SCHEMA))
    assert s.set_index("metric")["value"].to_dict() == {
        "total_recipes": 3,
        "unique_ingredients": 3,
        "unique_processes": 2,
        "unique_utensils": 0,
        "avg_ingredients": 1.33,
        "avg_processes": 1.0,
        "avg_utensils": 0.0,
        "recipes_without_utensils": 3,
    }
