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

SEPARATOR = " + "


def canon_pattern(items) -> str:
    """Canonical string form of an itemset (sorted, ' + '-joined)."""
    return SEPARATOR.join(sorted(items))


def feature_matrix(
    mined: DataFrame, regions: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Binary cuisine × pattern incidence matrix.

    Rows follow ``regions`` order; columns are the distinct canonical
    patterns in sorted order (their label-encoded ids). A region with no
    mined pattern gets an all-zero row.
    """
    rows = [
        (r["region"], canon_pattern(r["items"]))
        for r in mined.select("region", "items").collect()
    ]
    if not rows:
        raise ValueError("no mined patterns to vectorise")
    patterns = sorted({p for _, p in rows})
    col = {p: j for j, p in enumerate(patterns)}
    idx = {r: i for i, r in enumerate(regions)}
    mat = np.zeros((len(regions), len(patterns)), dtype=np.float64)
    for region, pattern in rows:
        mat[idx[region], col[pattern]] = 1.0
    return mat, patterns
