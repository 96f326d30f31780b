"""Pattern canonicalisation and the driver-side feature matrix."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.mining.patterns import canon_pattern, feature_matrix
from repro.mining.spark_fpm import MINED_SCHEMA
from repro.recipedb.vocab import REGIONS


def test_canon_pattern_sorts():
    assert canon_pattern(["soy sauce", "add"]) == "add + soy sauce"
    assert canon_pattern(("b", "a")) == canon_pattern(("a", "b"))


def test_canon_pattern_single():
    assert canon_pattern(["butter"]) == "butter"


def test_feature_matrix_binary_and_shaped(spark, mined_small):
    X, patterns = feature_matrix(mined_small)
    assert X.shape == (26, len(patterns))
    assert X.dtype == np.float64
    assert set(np.unique(X)) <= {0.0, 1.0}


def test_feature_matrix_columns_are_sorted_universe(spark, mined_small, mined_small_pdf):
    _, patterns = feature_matrix(mined_small)
    assert patterns == sorted(set(mined_small_pdf["items"].map(canon_pattern)))


def test_feature_matrix_matches_membership(spark, mined_small, mined_small_pdf):
    """The whole matrix, all 26 regions, against a pure-Python build."""
    X, patterns = feature_matrix(mined_small)
    mined = {
        (region, canon_pattern(items))
        for region, items in zip(mined_small_pdf["region"], mined_small_pdf["items"])
    }
    expected = [
        [1.0 if (region, p) in mined else 0.0 for p in patterns]
        for region in REGIONS
    ]
    assert X.tolist() == expected
    # row sums = per-region pattern counts
    counts = mined_small_pdf.groupby("region").size()
    for region in REGIONS:
        assert X[REGIONS.index(region)].sum() == counts[region]


def test_feature_matrix_rejects_empty(spark, mined_small):
    with pytest.raises(ValueError, match="no mined patterns"):
        feature_matrix(mined_small.filter(F.lit(False)))


def test_feature_matrix_rejects_unlisted_region(spark):
    pdf = pd.DataFrame({"region": ["Atlantis"], "items": [["x"]], "freq": [3]})
    with pytest.raises(ValueError, match="Atlantis"):
        feature_matrix(spark.createDataFrame(pdf, schema=MINED_SCHEMA))


def test_feature_matrix_zero_row_for_unmined_region(spark):
    """A region that mined nothing gets an all-zero row (``fihc`` is the
    layer that rejects it)."""
    pdf = pd.DataFrame(
        {
            "region": ["Korean", "Korean", "Thai"],
            "items": [["x"], ["x", "y"], ["y"]],
            "freq": [3, 2, 4],
        }
    )
    X, patterns = feature_matrix(spark.createDataFrame(pdf, schema=MINED_SCHEMA))
    assert patterns == ["x", "x + y", "y"]
    expected = np.zeros((26, 3))
    expected[REGIONS.index("Korean")] = [1.0, 1.0, 0.0]
    expected[REGIONS.index("Thai")] = [0.0, 0.0, 1.0]
    assert X.tolist() == expected.tolist()
