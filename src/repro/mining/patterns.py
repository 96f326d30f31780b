"""Pattern post-processing (paper Section VI-A).

The paper turns each mined frozenset into a sorted, concatenated "string
pattern", builds the unique pattern universe over all 26 cuisines, label
encodes it (patterns are categorical), and vectorises each cuisine over
the encoded universe. The mining result is ~1.5k rows, so after one
``collect`` all of this runs on the driver:

* ``canon_pattern`` — canonical string per mined itemset;
* ``feature_matrix`` — label encoding (sorted distinct patterns, as
  sklearn's LabelEncoder) and the cuisine × pattern binary incidence
  matrix that feeds ``pdist`` + HAC. (The paper's prose is ambiguous about
  the vector values; binary membership of the label-encoded pattern
  universe is the reading consistent with using Jaccard alongside
  Euclidean/Cosine.)
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from ..recipedb.vocab import cuisine_matrix

SEPARATOR = " + "


def canon_pattern(items) -> str:
    """Canonical string form of an itemset (sorted, ' + '-joined)."""
    return SEPARATOR.join(sorted(items))


def feature_matrix(mined: DataFrame) -> tuple[np.ndarray, list[str]]:
    """Binary cuisine × pattern incidence matrix, laid out by
    ``cuisine_matrix``: columns are the sorted distinct canonical patterns
    (their label-encoded ids)."""
    rows = mined.select("region", "items").collect()
    if not rows:
        raise ValueError("no mined patterns to vectorise")
    return cuisine_matrix(
        [r["region"] for r in rows],
        [canon_pattern(r["items"]) for r in rows],
        np.ones(len(rows)),
    )
