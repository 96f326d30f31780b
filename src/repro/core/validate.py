"""Tree-vs-tree validation metrics (paper Section VII).

The paper validates cuisine dendrograms against geography by visual
comparison; we quantify the comparison over square n × n matrices with
the same leaf order (cophenetic matrices, or raw distances):

* **cophenetic correlation** — Pearson correlation between the strict
  upper triangles of two matrices;
* **triplet agreement** — over all C(26, 3) leaf triples, the fraction
  where both matrices agree on which pair merges first (rooted-triplet
  similarity, robust to height scaling);
* **relationship probes** — the paper's two headline qualitative claims
  (Canadian closer to French than to US; Indian Subcontinent closer to
  Northern Africa than to Thai / Southeast Asian) as booleans.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from ..cluster.hac import cophenetic
from ..geo.regions import geo_tree
from ..recipedb.vocab import REGIONS

# Probe name -> (a, b, c): the paper's claim that cuisine a is closer to b
# than to c.
PROBES = {
    "canadian_closer_to_french_than_us": ("Canadian", "French", "US"),
    "indian_closer_to_nafrica_than_thai": (
        "Indian Subcontinent", "Northern Africa", "Thai"
    ),
    "indian_closer_to_nafrica_than_seasia": (
        "Indian Subcontinent", "Northern Africa", "Southeast Asian"
    ),
}


def cophenetic_correlation(C1: np.ndarray, C2: np.ndarray) -> float:
    """Pearson correlation between the strict upper triangles of two square
    matrices (leaves must be in the same order)."""
    if C1.shape != C2.shape:
        raise ValueError("matrices have different leaf counts")
    upper = np.triu_indices(len(C1), 1)
    c1, c2 = C1[upper], C2[upper]
    s1, s2 = c1.std(), c2.std()
    if s1 == 0 or s2 == 0:
        raise ValueError("degenerate matrix: zero variance")
    return float(np.corrcoef(c1, c2)[0, 1])


def triplet_agreement(C1: np.ndarray, C2: np.ndarray) -> float:
    """Fraction of leaf triples on which two square matrices agree about
    the closest pair. A triple on which either matrix ties (within 1e-12)
    counts as agreeing."""
    if C1.shape != C2.shape:
        raise ValueError("matrices have different leaf counts")
    n = len(C1)
    if n < 3:
        raise ValueError(f"triplet agreement needs at least 3 leaves, got {n}")
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T

    def first_pairs(C: np.ndarray) -> np.ndarray:
        """3 × triples mask of the pairs (ij, ik, jk) that merge first."""
        d = np.stack([C[i, j], C[i, k], C[j, k]])
        return d <= d.min(axis=0) + 1e-12

    f1, f2 = first_pairs(C1), first_pairs(C2)
    tied = (f1.sum(axis=0) > 1) | (f2.sum(axis=0) > 1)
    return float((tied | (f1 == f2).all(axis=0)).mean())


def relationship_probes(C: np.ndarray) -> dict[str, bool]:
    """The paper's Section-VII qualitative claims, as booleans read from a
    cophenetic matrix whose leaves are in ``REGIONS`` order."""
    at = REGIONS.index
    return {
        name: bool(C[at(a), at(b)] < C[at(a), at(c)])
        for name, (a, b, c) in PROBES.items()
    }


def geo_scores(
    trees: dict[str, np.ndarray],
) -> tuple[pd.DataFrame, dict[str, dict[str, bool]]]:
    """Score each named tree over ``REGIONS`` against the geographic
    reference tree: one row per tree (metric, cophenetic correlation and
    triplet agreement, rounded to 4 places) and its relationship probes.
    Each cophenetic matrix is built once."""
    geo = cophenetic(geo_tree())
    coph = {name: cophenetic(Z) for name, Z in trees.items()}
    rows = [
        {
            "metric": name,
            "cophenetic_corr_vs_geo": round(cophenetic_correlation(C, geo), 4),
            "triplet_agreement_vs_geo": round(triplet_agreement(C, geo), 4),
        }
        for name, C in coph.items()
    ]
    probes = {name: relationship_probes(C) for name, C in coph.items()}
    return pd.DataFrame(rows), probes
