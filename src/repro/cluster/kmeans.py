"""K-means (Lloyd's algorithm with k-means++ seeding) and the elbow
analysis of paper Section VI-B / Figure 1.

The paper applies K-means to the categorical pattern features, computes
WCSS over a range of k, and reports that the elbow method "fails to
determine the number of appropriate clusters" — no sharp knee. We
reproduce the WCSS curve and quantify knee sharpness so the claim becomes
a number (see ``knee_strength``).
"""
from __future__ import annotations

import numpy as np

N_INIT = 5      # k-means++ restarts per fit; the best WCSS wins
MAX_ITER = 100  # Lloyd iterations per restart
TOL = 1e-8      # stop once WCSS improves by no more than this


def _kpp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: iteratively pick centers ∝ squared distance."""
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            ((X[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(-1), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(X[rng.choice(n, p=probs)])
    return np.asarray(centers, dtype=np.float64)


def kmeans(
    X: np.ndarray, k: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``N_INIT`` Lloyd's iterations.

    Returns (labels, centers, wcss) for the restart with lowest WCSS.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(N_INIT):
        centers = _kpp_init(X, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        prev = np.inf
        for _ in range(MAX_ITER):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
            labels = d2.argmin(axis=1)
            wcss = float(d2[np.arange(n), labels].sum())
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centers[c] = X[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-fit point.
                    centers[c] = X[d2[np.arange(n), labels].argmax()]
            if prev - wcss <= TOL:
                break
            prev = wcss
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        labels = d2.argmin(axis=1)
        wcss = float(d2[np.arange(n), labels].sum())
        if best is None or wcss < best[2]:
            best = (labels, centers.copy(), wcss)
    assert best is not None
    return best


def wcss_curve(X: np.ndarray, ks: range | list[int]) -> list[tuple[int, float]]:
    """WCSS for each k, seeded with k — the data behind the paper's Figure 1."""
    return [(k, kmeans(X, k, seed=k)[2]) for k in ks]


def _chord_distances(
    curve: list[tuple[int, float]],
) -> tuple[np.ndarray, np.ndarray | None]:
    """(ks, distances) of a curve normalised to the unit square, where
    distances are perpendicular to the chord between its endpoints (the
    "kneedle" construction); distances is None for a curve that does not
    decrease from first to last point."""
    ks = np.array([k for k, _ in curve], dtype=np.float64)
    ws = np.array([w for _, w in curve], dtype=np.float64)
    span = ws[0] - ws[-1]
    if span <= 0:
        return ks, None
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (ws - ws[-1]) / span
    # Distance from (x, y) to the chord y = 1 - x, i.e. x + y - 1 = 0.
    return ks, np.abs(x + y - 1.0) / np.sqrt(2.0)


def knee_strength(curve: list[tuple[int, float]]) -> float:
    """Sharpness of the elbow in a WCSS curve, in [0, 1].

    The maximum normalised distance to the chord (see ``_chord_distances``).
    A crisp elbow (e.g. WCSS collapsing at the true k) scores well above
    0.5; a smooth convex decay — the paper's "no sharp edge or elbow like
    structure" — scores low.
    """
    if len(curve) < 3:
        raise ValueError("need at least 3 points to measure a knee")
    _, dist = _chord_distances(curve)
    return 0.0 if dist is None else float(dist.max())


def knee_k(curve: list[tuple[int, float]]) -> int:
    """The k at which the knee (if any) occurs."""
    ks, dist = _chord_distances(curve)
    return int(ks[0] if dist is None else ks[int(dist.argmax())])
