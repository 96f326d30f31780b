"""Authenticity-based clustering pipeline (Fig 5).

relative ingredient prevalence (Ahn-style authenticity) → Euclidean pdist
→ HAC → tree + geographic validation, mirroring ``core.fihc``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..authenticity.prevalence import authenticity_matrix
from ..cluster.distance import pdist
from ..cluster.hac import linkage
from .validate import geo_scores


@dataclass
class AuthenticityResult:
    matrix: np.ndarray                  # 26 × |ingredients| relative prevalence
    items: list[str]
    tree: np.ndarray
    geo_scores: pd.DataFrame            # one row: cophenetic corr, triplet agreement
    probes: dict[str, bool]


def authenticity_clustering(recipes: DataFrame) -> AuthenticityResult:
    """Cluster cuisines by relative ingredient prevalence (paper Fig 5:
    "Authenticity of Ingredients"): Euclidean distance, average linkage."""
    rel, items = authenticity_matrix(recipes)
    Z = linkage(pdist(rel, "euclidean"))
    scores, probes = geo_scores({"authenticity-euclidean": Z})
    return AuthenticityResult(
        matrix=rel,
        items=items,
        tree=Z,
        geo_scores=scores,
        probes=probes["authenticity-euclidean"],
    )
