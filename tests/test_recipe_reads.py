"""The recipe aggregations read the cached frame one task per core.

T5's ``dataset_summary``, T4's ``prevalence`` and Table I's
``pattern_support`` coalesce the recipes to ``defaultParallelism``
partitions before their shuffle. On a frame with three partitions per
core they return what they return on ``recipes_small``, and none of their
stages runs more than one task per core.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.authenticity.prevalence import prevalence
from repro.mining.spark_fpm import pattern_support
from repro.recipedb.stats import dataset_summary
from repro.recipedb.vocab import NAMED_PATTERNS

AGGREGATIONS = {
    "dataset_summary": dataset_summary,
    "prevalence": prevalence,
    "pattern_support": lambda df: (
        pattern_support(df, NAMED_PATTERNS)
        .toPandas()
        .sort_values(["region", "pattern"], ignore_index=True)
    ),
}


@pytest.fixture(scope="module")
def recipes_split(spark, recipes_small):
    """``recipes_small`` cached as three partitions per core."""
    df = recipes_small.repartition(3 * spark.sparkContext.defaultParallelism).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("name", AGGREGATIONS)
def test_partitioning_leaves_output_unchanged(name, recipes_small, recipes_split):
    aggregate = AGGREGATIONS[name]
    got, expected = aggregate(recipes_split), aggregate(recipes_small)
    if name == "prevalence":
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
    else:
        pd.testing.assert_frame_equal(got, expected)


@pytest.mark.parametrize("name", AGGREGATIONS)
def test_one_task_per_core(name, spark, spark_jobs, recipes_split):
    assert recipes_split.rdd.getNumPartitions() > spark.sparkContext.defaultParallelism
    tasks = spark_jobs.stage_tasks(lambda: AGGREGATIONS[name](recipes_split))
    assert tasks and max(tasks) <= spark.sparkContext.defaultParallelism
