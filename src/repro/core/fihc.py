"""Frequent-Itemset-based Hierarchical Clustering pipeline (Figs 2–4).

mined patterns → canonical string patterns → label encoding → binary
cuisine×pattern features → pdist (Euclidean / Cosine / Jaccard)
→ HAC → trees + geographic validation scores.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..cluster.distance import METRICS, pdist
from ..cluster.hac import linkage
from ..mining.patterns import feature_matrix
from ..recipedb.vocab import REGIONS
from .validate import geo_scores


@dataclass
class FihcResult:
    """Everything the Figs 2–4 comparison needs."""

    features: np.ndarray                 # 26 × P binary incidence
    patterns: list[str]                  # column labels
    trees: dict[str, np.ndarray]         # metric -> linkage matrix
    geo_scores: pd.DataFrame             # metric, cophenetic_corr, triplet_agreement
    probes: dict[str, dict[str, bool]]   # metric -> relationship probes


def fihc(recipes: DataFrame, *, mined: DataFrame) -> FihcResult:
    """Run the full FIHC pipeline (average linkage, every metric in
    ``METRICS``) over the caller's mining result ``mined``. ``recipes`` is
    unused; ``perfbench/pipeline.run_pass`` pins it until ROADMAP item 1.

    Raises ``ValueError`` naming every cuisine that mined no pattern: its
    all-zero feature row has no cosine distance, and Jaccard would put all
    such cuisines at distance 0 from each other.
    """
    X, patterns = feature_matrix(mined)
    empty = [r for r, row in zip(REGIONS, X) if not row.any()]
    if empty:
        raise ValueError(
            f"no frequent pattern mined for {len(empty)} cuisine(s): "
            f"{', '.join(empty)}; lower min_support"
        )
    trees = {metric: linkage(pdist(X, metric)) for metric in METRICS}
    scores, probes = geo_scores(trees)
    return FihcResult(
        features=X,
        patterns=patterns,
        trees=trees,
        geo_scores=scores,
        probes=probes,
    )
