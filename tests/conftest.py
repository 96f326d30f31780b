"""Shared test fixtures: one small synthetic RecipeDB + one mining result
per session, reused across test modules (generation and mining are
deterministic, so sharing is safe)."""
from __future__ import annotations

import uuid

import pandas as pd
import pytest

TEST_SCALE = 0.05
TEST_SEED = 0


@pytest.fixture(scope="session")
def recipes_small(spark):
    """26-cuisine synthetic RecipeDB at test scale (~6k recipes), cached."""
    from repro.recipedb.generator import recipes

    df = recipes(spark, scale=TEST_SCALE, seed=TEST_SEED).cache()
    df.count()  # materialise once
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def recipes_small_pdf(recipes_small) -> pd.DataFrame:
    """The same dataset collected to pandas (for local miners / oracle)."""
    return recipes_small.toPandas()


@pytest.fixture(scope="session")
def mined_small(spark, recipes_small):
    """Grouped miner result (``eclat`` per cuisine) at support 0.2 over the
    test dataset, cached."""
    from repro.mining.spark_fpm import mine_all_regions

    df = mine_all_regions(recipes_small, 0.2).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def mined_small_pdf(mined_small) -> pd.DataFrame:
    return mined_small.toPandas()


@pytest.fixture
def spark_jobs(spark):
    """``spark_jobs(fn)`` calls ``fn()`` and returns how many Spark jobs it
    launched, counted through a job group and ``statusTracker``;
    ``spark_jobs.stage_tasks(fn)`` returns the task count of each stage of
    those jobs instead."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()

    def job_ids(fn) -> list[int]:
        group = f"spark-jobs-{uuid.uuid4().hex}"
        sc.setJobGroup(group, group)
        try:
            fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        return tracker.getJobIdsForGroup(group)

    def count(fn) -> int:
        return len(job_ids(fn))

    def stage_tasks(fn) -> list[int]:
        return [
            tracker.getStageInfo(stage).numTasks
            for job in job_ids(fn)
            for stage in tracker.getJobInfo(job).stageIds
        ]

    count.stage_tasks = stage_tasks
    return count
