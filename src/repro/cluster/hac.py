"""Hierarchical agglomerative clustering (scipy.cluster.hierarchy
replacement): average linkage (UPGMA), cophenetic distances, Newick
export and an ASCII dendrogram for job output.

Distances come in as the square n × n matrix ``pdist`` returns, and
cophenetic distances go out in the same form. Linkage matrices follow
scipy's convention: row t = [a, b, height, size] merges clusters a and b
(original points are 0..n-1; the cluster formed at row t gets id n+t).
"""
from __future__ import annotations

import numpy as np

ASCII_WIDTH = 72  # columns of the dendrogram drawing, labels excluded


def linkage(D: np.ndarray) -> np.ndarray:
    """Average-linkage (UPGMA) clustering of a square, symmetric distance
    matrix (the diagonal takes no part in the merges).

    Each step merges the closest pair of active clusters, breaking ties on
    the first pair (i < j) in row-major order whose distance is within
    1e-15 of the minimum. The merged cluster takes slot i, its distances
    are the size-weighted means of rows i and j, and slot j retires.
    """
    d = np.array(D, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    n = d.shape[0]
    # Retired slots and the diagonal hold inf, so they never win the argmin.
    np.fill_diagonal(d, np.inf)
    size = np.ones(n)
    ids = np.arange(n)
    Z = np.zeros((n - 1, 4), dtype=np.float64)
    for t in range(n - 1):
        i, j = divmod(int(np.argmax(d.ravel() <= d.min() + 1e-15)), n)
        Z[t] = [min(ids[i], ids[j]), max(ids[i], ids[j]), d[i, j], size[i] + size[j]]
        d[i] = d[:, i] = (size[i] * d[i] + size[j] * d[j]) / (size[i] + size[j])
        d[j] = d[:, j] = np.inf
        size[i] += size[j]
        ids[i] = n + t
    return Z


def cophenetic(Z: np.ndarray) -> np.ndarray:
    """Square cophenetic distance matrix: coph(a, b) = height of the merge
    that first joins a and b (zero diagonal)."""
    n = Z.shape[0] + 1
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    coph = np.zeros((n, n), dtype=np.float64)
    for t in range(n - 1):
        ma, mb = members.pop(int(Z[t, 0])), members.pop(int(Z[t, 1]))
        coph[np.ix_(ma, mb)] = coph[np.ix_(mb, ma)] = Z[t, 2]
        members[n + t] = ma + mb
    return coph


def to_newick(Z: np.ndarray, labels: list[str]) -> str:
    """Newick string with branch heights (portable tree artifact)."""
    n = Z.shape[0] + 1
    height: dict[int, float] = {i: 0.0 for i in range(n)}
    node: dict[int, str] = {i: labels[i].replace(" ", "_") for i in range(n)}
    for t in range(n - 1):
        a, b, h = int(Z[t, 0]), int(Z[t, 1]), Z[t, 2]
        la = max(h - height[a], 0.0)
        lb = max(h - height[b], 0.0)
        node[n + t] = f"({node[a]}:{la:.6g},{node[b]}:{lb:.6g})"
        height[n + t] = h
    return node[n + Z.shape[0] - 1] + ";"


def ascii_dendrogram(Z: np.ndarray, labels: list[str]) -> str:
    """Text dendrogram (leaves ordered by the merge structure), a stand-in
    for the paper's figures in job output."""
    n = Z.shape[0] + 1

    def leaves(c: int) -> list[int]:
        if c < n:
            return [c]
        t = c - n
        return leaves(int(Z[t, 0])) + leaves(int(Z[t, 1]))

    order = leaves(n + Z.shape[0] - 1)
    pos = {leaf: i for i, leaf in enumerate(order)}
    max_h = Z[:, 2].max(initial=0.0) or 1.0  # all-zero heights: any scale
    label_w = max(len(labels[i]) for i in order) + 1
    grid = [[" "] * ASCII_WIDTH for _ in range(len(order))]
    center: dict[int, tuple[int, int]] = {
        i: (pos[i], 0) for i in range(n)
    }  # cluster -> (row, col)
    for t in range(n - 1):
        a, b, h = int(Z[t, 0]), int(Z[t, 1]), Z[t, 2]
        col = max(1, min(ASCII_WIDTH - 1, int(round(h / max_h * (ASCII_WIDTH - 1)))))
        (ra, ca), (rb, cb) = center[a], center[b]
        for c in range(ca, col):
            grid[ra][c] = "─"
        for c in range(cb, col):
            grid[rb][c] = "─"
        lo, hi = min(ra, rb), max(ra, rb)
        for r in range(lo, hi + 1):
            grid[r][col] = "│" if grid[r][col] == " " else grid[r][col]
        grid[ra][col] = "┐" if ra < rb else "┘"
        grid[rb][col] = "┘" if ra < rb else "┐"
        center[n + t] = ((ra + rb) // 2, col)
    lines = [
        f"{labels[leaf]:<{label_w}}" + "".join(grid[pos[leaf]]) for leaf in order
    ]
    return "\n".join(lines)
