"""Elbow analysis pipeline (paper Fig 1 / Section VI-B).

K-means over the FIHC pattern features for k = 1..10, WCSS per k, and a
quantified knee strength. The paper's claim — "no sharp edge or elbow like
structure is obtained" — reproduces as a low knee strength, justifying the
switch to hierarchical clustering.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame

from ..cluster.kmeans import knee_k, knee_strength, wcss_curve
from ..mining.patterns import feature_matrix

# Below this normalised-knee threshold we call the curve "elbow-less". A
# synthetic curve with a true crisp elbow (WCSS flat after the true k)
# scores > 0.5 (see tests); smooth convex decay scores well under it.
SHARP_KNEE_THRESHOLD = 0.35

KS = range(1, 11)  # the k values of Fig 1


@dataclass
class ElbowResult:
    curve: pd.DataFrame       # k, wcss
    knee_strength: float
    knee_k: int
    has_sharp_elbow: bool


def elbow(recipes: DataFrame, *, mined: DataFrame) -> ElbowResult:
    """Run the elbow analysis over the caller's mining result ``mined``.
    ``recipes`` is unused; ``perfbench/pipeline.run_pass`` pins it until
    ROADMAP item 1."""
    features, _ = feature_matrix(mined)
    curve = wcss_curve(features, KS)
    strength = knee_strength(curve)
    return ElbowResult(
        curve=pd.DataFrame(curve, columns=["k", "wcss"]),
        knee_strength=round(strength, 4),
        knee_k=knee_k(curve),
        has_sharp_elbow=strength >= SHARP_KNEE_THRESHOLD,
    )
