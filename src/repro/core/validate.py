"""Tree-vs-tree validation metrics (paper Section VII).

The paper validates cuisine dendrograms against geography by visual
comparison; we quantify the comparison:

* **cophenetic correlation** — Pearson correlation between the condensed
  cophenetic distance vectors of two trees;
* **triplet agreement** — over all C(26, 3) leaf triples, the fraction
  where both trees agree on which pair merges first (rooted-triplet
  similarity, robust to height scaling);
* **relationship probes** — the paper's two headline qualitative claims
  (Canadian closer to French than to US; Indian Subcontinent closer to
  Northern Africa than to Thai / Southeast Asian) as booleans.
"""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from ..cluster.distance import squareform
from ..cluster.hac import cophenetic
from ..geo.regions import geo_tree
from ..recipedb.vocab import REGIONS


def cophenetic_correlation(Z1: np.ndarray, Z2: np.ndarray) -> float:
    """Pearson correlation between two trees' cophenetic vectors (leaves
    must be in the same order)."""
    c1, c2 = cophenetic(Z1), cophenetic(Z2)
    if len(c1) != len(c2):
        raise ValueError("trees have different leaf counts")
    s1, s2 = c1.std(), c2.std()
    if s1 == 0 or s2 == 0:
        raise ValueError("degenerate tree: zero cophenetic variance")
    return float(np.corrcoef(c1, c2)[0, 1])


def triplet_agreement(Z1: np.ndarray, Z2: np.ndarray) -> float:
    """Fraction of leaf triples on which the two trees agree about the
    first-merging pair. A triple on which either tree ties (within 1e-12)
    counts as agreeing."""
    n = Z1.shape[0] + 1
    if Z2.shape[0] + 1 != n:
        raise ValueError("trees have different leaf counts")
    if n < 3:
        raise ValueError(f"triplet agreement needs at least 3 leaves, got {n}")
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T

    def first_pairs(Z: np.ndarray) -> np.ndarray:
        """3 × triples mask of the pairs (ij, ik, jk) that merge first."""
        C = squareform(cophenetic(Z), n)
        d = np.stack([C[i, j], C[i, k], C[j, k]])
        return d <= d.min(axis=0) + 1e-12

    f1, f2 = first_pairs(Z1), first_pairs(Z2)
    tied = (f1.sum(axis=0) > 1) | (f2.sum(axis=0) > 1)
    return float((tied | (f1 == f2).all(axis=0)).mean())


def closer_than(
    Z: np.ndarray, labels: list[str], a: str, b: str, c: str
) -> bool:
    """True iff leaf ``a`` is closer (cophenetically) to ``b`` than to ``c``
    in the tree — the paper's "X is closer to Y than Z" claims."""
    C = squareform(cophenetic(Z), Z.shape[0] + 1)
    ia, ib, ic = labels.index(a), labels.index(b), labels.index(c)
    return bool(C[ia, ib] < C[ia, ic])


def relationship_probes(Z: np.ndarray, labels: list[str]) -> dict[str, bool]:
    """The paper's Section-VII qualitative claims, as booleans."""
    return {
        "canadian_closer_to_french_than_us": closer_than(
            Z, labels, "Canadian", "French", "US"
        ),
        "indian_closer_to_nafrica_than_thai": closer_than(
            Z, labels, "Indian Subcontinent", "Northern Africa", "Thai"
        ),
        "indian_closer_to_nafrica_than_seasia": closer_than(
            Z, labels, "Indian Subcontinent", "Northern Africa", "Southeast Asian"
        ),
    }


def geo_scores(
    trees: dict[str, np.ndarray],
) -> tuple[pd.DataFrame, dict[str, dict[str, bool]]]:
    """Score each named tree over ``REGIONS`` against the geographic
    reference tree: one row per tree (metric, cophenetic correlation and
    triplet agreement, rounded to 4 places) and its relationship probes."""
    geo = geo_tree(REGIONS)
    rows = [
        {
            "metric": name,
            "cophenetic_corr_vs_geo": round(cophenetic_correlation(Z, geo), 4),
            "triplet_agreement_vs_geo": round(triplet_agreement(Z, geo), 4),
        }
        for name, Z in trees.items()
    ]
    probes = {name: relationship_probes(Z, REGIONS) for name, Z in trees.items()}
    return pd.DataFrame(rows), probes
