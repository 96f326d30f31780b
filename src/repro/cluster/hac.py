"""Hierarchical agglomerative clustering (scipy.cluster.hierarchy
replacement): Lance–Williams linkage, cophenetic distances,
Newick export and an ASCII dendrogram for job output.

Linkage matrices follow scipy's convention: row t = [a, b, height, size]
merges clusters a and b (original points are 0..n-1; the cluster formed at
row t gets id n+t). Ties break deterministically on the smallest (i, j).
"""
from __future__ import annotations

import numpy as np

from .distance import condense, squareform

METHODS = ("single", "complete", "average", "ward")


def linkage(condensed: np.ndarray, method: str = "average") -> np.ndarray:
    """Agglomerative clustering of a condensed distance vector.

    O(n^3) naive search — n is 26 cuisines here, far below any threshold
    where the nearest-neighbor-chain algorithm would matter.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    condensed = np.asarray(condensed, dtype=np.float64)
    # Infer n from the condensed length.
    m = len(condensed)
    n = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if n * (n - 1) // 2 != m:
        raise ValueError(f"condensed length {m} is not a triangular number")
    d = squareform(condensed, n)
    size = {i: 1 for i in range(n)}
    active = list(range(n))
    ids = {i: i for i in range(n)}  # position -> current cluster id
    Z = np.zeros((n - 1, 4), dtype=np.float64)
    next_id = n
    for t in range(n - 1):
        # Find the closest active pair (deterministic tie-break).
        best = (np.inf, -1, -1)
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                dij = d[i, j]
                if dij < best[0] - 1e-15:
                    best = (dij, ai, aj)
        dist, ai, aj = best
        i, j = active[ai], active[aj]
        ci, cj = ids[i], ids[j]
        a, b = (ci, cj) if ci < cj else (cj, ci)
        ni, nj = size[i], size[j]
        Z[t] = [a, b, dist, ni + nj]
        # Lance–Williams update: new cluster occupies slot i; j retires.
        for k in active:
            if k in (i, j):
                continue
            dik, djk = d[i, k], d[j, k]
            if method == "single":
                dn = min(dik, djk)
            elif method == "complete":
                dn = max(dik, djk)
            elif method == "average":
                dn = (ni * dik + nj * djk) / (ni + nj)
            else:  # ward
                nk = size[k]
                dn = np.sqrt(
                    ((ni + nk) * dik**2 + (nj + nk) * djk**2 - nk * dist**2)
                    / (ni + nj + nk)
                )
            d[i, k] = d[k, i] = dn
        size[i] = ni + nj
        ids[i] = next_id
        next_id += 1
        active.pop(aj)
    return Z


def cophenetic(Z: np.ndarray) -> np.ndarray:
    """Condensed cophenetic distances: coph(a, b) = height of the merge
    that first joins a and b."""
    n = Z.shape[0] + 1
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    coph = np.zeros((n, n), dtype=np.float64)
    for t in range(n - 1):
        a, b, h = int(Z[t, 0]), int(Z[t, 1]), Z[t, 2]
        ma, mb = members.pop(a), members.pop(b)
        for x in ma:
            for y in mb:
                coph[x, y] = coph[y, x] = h
        members[n + t] = ma + mb
    return condense(coph)


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


def ascii_dendrogram(Z: np.ndarray, labels: list[str], width: int = 72) -> str:
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
    max_h = Z[:, 2].max() if Z.shape[0] else 1.0
    label_w = max(len(labels[i]) for i in order) + 1
    grid = [[" "] * width for _ in range(len(order))]
    center: dict[int, tuple[int, int]] = {
        i: (pos[i], 0) for i in range(n)
    }  # cluster -> (row, col)
    for t in range(n - 1):
        a, b, h = int(Z[t, 0]), int(Z[t, 1]), Z[t, 2]
        col = max(1, min(width - 1, int(round(h / max_h * (width - 1)))))
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
