"""Condensed pairwise distances (scipy.spatial.distance.pdist replacement).

The paper feeds a condensed distance matrix (``pdist``) into HAC using
three metrics (Section VI-A). The printed equations (3)–(5) are typos —
Jaccard written as union/intersection, cosine written as a similarity,
"Euclidean" missing the difference — so we implement the standard
definitions their scipy pipeline would have computed:

    euclidean(x, y) = ||x - y||_2
    cosine(x, y)    = 1 - x.y / (||x|| ||y||)
    jaccard(x, y)   = 1 - |x ∧ y| / |x ∨ y|     (binary vectors)

At 26 cuisines this runs on the driver in NumPy; tests check it against a
brute-force pairwise loop.
"""
from __future__ import annotations

import numpy as np

METRICS = ("euclidean", "cosine", "jaccard")


def condense(sq: np.ndarray) -> np.ndarray:
    """Square matrix -> condensed vector of its strict upper triangle
    (row-major: pairs (0, 1), (0, 2), ..., (1, 2), ...)."""
    return sq[np.triu_indices(sq.shape[0], 1)]


def squareform(condensed: np.ndarray, n: int) -> np.ndarray:
    """Condensed vector -> symmetric square matrix with zero diagonal."""
    if len(condensed) != n * (n - 1) // 2:
        raise ValueError("condensed length does not match n")
    sq = np.zeros((n, n), dtype=np.float64)
    i, j = np.triu_indices(n, 1)
    sq[i, j] = sq[j, i] = condensed
    return sq


def _euclidean(X: np.ndarray) -> np.ndarray:
    sq = (X**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _cosine(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise ValueError("cosine distance undefined for zero vectors")
    sim = (X @ X.T) / np.outer(norms, norms)
    np.clip(sim, -1.0, 1.0, out=sim)
    return 1.0 - sim


def _jaccard(X: np.ndarray) -> np.ndarray:
    B = (X != 0).astype(np.float64)
    inter = B @ B.T
    row = B.sum(axis=1)
    union = row[:, None] + row[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        d = 1.0 - inter / union
    d[union == 0] = 0.0  # two all-zero vectors: define distance 0
    return d


def pdist(X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Condensed pairwise distances over the rows of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    if metric == "euclidean":
        sq = _euclidean(X)
    elif metric == "cosine":
        sq = _cosine(X)
    elif metric == "jaccard":
        sq = _jaccard(X)
    else:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    return condense(sq)

