"""Benchmark fixtures: the full-scale (scale=1.0 == 118k-recipe) synthetic
RecipeDB, as a cached Spark DataFrame and collected to pandas."""
from __future__ import annotations

import pytest

BENCH_SCALE = 1.0
BENCH_SEED = 0


@pytest.fixture(scope="session")
def recipes_full(spark):
    from repro.recipedb.generator import recipes

    df = recipes(spark, scale=BENCH_SCALE, seed=BENCH_SEED).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def recipes_full_pdf(recipes_full):
    return recipes_full.toPandas()

