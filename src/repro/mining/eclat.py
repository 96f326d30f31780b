"""Vertical-bitmap Eclat (Zaki, TKDE 2000) with MAFIA-style bit vectors
(Burdick, Calimlim, Gehrke — ICDE 2001).

This is the per-group engine of the ``applyInPandas`` grouped miner in
``spark_fpm``. Same output contract as the reference
:func:`repro.mining.fpgrowth.fpgrowth`, which stays the correctness
oracle and the T6 comparator.

Each frequent item's tid-set is one ``np.packbits`` row (bit ``t`` set iff
transaction ``t`` holds the item). An itemset's tid-set is the AND of its
items' rows, and its support is the popcount of that row, read through a
256-entry lookup table (NumPy 1.26 has no ``bitwise_count``). The search
is depth-first: a node ANDs its tid-set into all of its right siblings at
once and recurses into the frequent ones.
"""
from __future__ import annotations

import itertools
from collections.abc import Collection, Sequence

import numpy as np
import pandas as pd

from .fpgrowth import min_count

# Set bits in each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _extend(
    prefix: frozenset,
    items: list,
    bits: np.ndarray,
    counts: np.ndarray,
    min_count: int,
    out: dict[frozenset, int],
) -> None:
    """Record ``prefix`` plus each item and mine each one's extensions by
    the items to its right. Row ``i`` of ``bits`` is the tid-set of
    ``prefix | {items[i]}``, with ``counts[i]`` bits set."""
    for i, item in enumerate(items):
        pattern = prefix | {item}
        out[pattern] = int(counts[i])
        inter = bits[i + 1 :] & bits[i]
        sup = _POPCOUNT[inter].sum(axis=1, dtype=np.int64)
        keep = np.flatnonzero(sup >= min_count)
        if keep.size:
            _extend(
                pattern,
                [items[i + 1 + j] for j in keep],
                inter[keep],
                sup[keep],
                min_count,
                out,
            )


def eclat(
    transactions: Sequence[Collection[str]], min_support: float
) -> dict[frozenset[str], int]:
    """Mine all frequent itemsets.

    Args:
        transactions: sequence of item collections (lists, sets or the
            object arrays a pandas group holds); an item repeated within a
            transaction counts once (MLlib's FPGrowth rejects such a
            transaction instead). A null item raises ``ValueError``.
        min_support: relative support threshold in (0, 1], checked by
            ``min_count``; an itemset is frequent iff its count is at least
            ``min_count(n, min_support)``.

    Returns:
        dict mapping frozenset(itemset) -> absolute frequency.
    """
    n = len(transactions)
    mc = min_count(n, min_support)
    lengths = np.fromiter(map(len, transactions), dtype=np.int64, count=n)
    flat = np.fromiter(
        itertools.chain.from_iterable(transactions),
        dtype=object,
        count=int(lengths.sum()),
    )
    codes, labels = pd.factorize(flat)
    owner = np.repeat(np.arange(n), lengths)  # transaction of each occurrence
    if (null := codes < 0).any():  # factorize codes a null as -1
        at = null.argmax()
        raise ValueError(f"eclat: transaction {owner[at]} holds a null item {flat[at]!r}")
    # One (tid, item) pair per occurrence; np.unique drops repeats, so an
    # item counts once per transaction.
    pairs = np.unique(owner * len(labels) + codes)
    tids, codes = np.divmod(pairs, len(labels))
    counts = np.bincount(codes, minlength=len(labels))
    # Frequent items, least frequent first: intersections start from the
    # smallest tid-sets.
    frequent = np.flatnonzero(counts >= mc)
    frequent = frequent[np.argsort(counts[frequent], kind="stable")]
    rank = np.full(len(labels), -1)
    rank[frequent] = np.arange(len(frequent))
    hit = rank[codes] >= 0
    dense = np.zeros((len(frequent), n), dtype=bool)
    dense[rank[codes[hit]], tids[hit]] = True
    out: dict[frozenset[str], int] = {}
    _extend(
        frozenset(),
        [labels[c] for c in frequent],
        np.packbits(dense, axis=1),
        counts[frequent],
        mc,
        out,
    )
    return out
