"""From-scratch FP-Growth (Han, Pei, Yin — SIGMOD 2000).

This is the reference miner of the reproduction, the paper's algorithm:
the T6 comparator against Apriori and the correctness oracle for the
grouped engine (:mod:`repro.mining.eclat`) and Spark MLlib's FPGrowth in
tests. Returns the *complete* set of frequent itemsets (same semantics as
``pyspark.ml.fpm.FPGrowth.freqItemsets``).

One recursive function, :func:`_grow`, does the mining: it builds the
FP-tree of a conditional pattern base, whose header lists each item's
nodes, and recurses into each frequent item's prefix paths. Single-chain
trees take the same recursion.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Collection, Iterable, Sequence


def check_min_support(min_support: float) -> None:
    """Raise ``ValueError`` unless ``min_support`` is in (0, 1]."""
    if not 0 < min_support <= 1:
        raise ValueError(f"min_support must be in (0, 1], got {min_support!r}")


def min_count(n: int, min_support: float) -> int:
    """Smallest absolute count that is frequent among ``n`` transactions:
    ``max(1, ceil(min_support * n))``."""
    check_min_support(min_support)
    return max(1, math.ceil(min_support * n))


class _Node:
    """One FP-tree node: an item, its count, its parent and its children."""

    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: str | None, parent: "_Node | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[str, _Node] = {}


def _grow(
    base: list[tuple[Collection[str], int]],
    min_count: int,
    suffix: frozenset[str],
    out: dict[frozenset[str], int],
) -> None:
    """Mine the conditional pattern base of ``suffix`` into ``out``.

    ``base`` holds ``(items, count)`` pairs with distinct items each. Builds
    the base's FP-tree over its frequent items, records ``suffix`` plus each
    frequent item (least frequent first) and recurses into that item's
    prefix paths.
    """
    counts: dict[str, int] = defaultdict(int)
    for items, c in base:
        for item in items:
            counts[item] += c
    frequent = {i: c for i, c in counts.items() if c >= min_count}
    # Order: count desc, item asc — a fixed total order keeps the tree
    # maximally shared and the mining deterministic.
    order = {i: (-c, i) for i, c in frequent.items()}
    root = _Node(None, None)
    header: dict[str, list[_Node]] = {i: [] for i in frequent}
    for items, c in base:
        node = root
        for item in sorted((i for i in items if i in frequent), key=order.__getitem__):
            child = node.children.get(item)
            if child is None:
                child = node.children[item] = _Node(item, node)
                header[item].append(child)
            child.count += c
            node = child
    for item, total in sorted(frequent.items(), key=lambda kv: (kv[1], kv[0])):
        pattern = suffix | {item}
        out[pattern] = total
        paths = []
        for node in header[item]:
            path = []
            parent = node.parent
            while parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            paths.append((path, node.count))
        _grow(paths, min_count, pattern, out)


def fpgrowth(
    transactions: Sequence[Iterable[str]], min_support: float
) -> dict[frozenset[str], int]:
    """Mine all frequent itemsets.

    Args:
        transactions: iterable of item collections; an item repeated
            within a transaction counts once (MLlib's FPGrowth rejects such
            a transaction instead: "Items in a transaction must be unique").
        min_support: relative support threshold in (0, 1]; an itemset is
            frequent iff its count is at least ``min_count(n, min_support)``
            = ``max(1, ceil(min_support * n))``, the threshold MLlib's
            FPGrowth applies for ``freq / n >= minSupport``.

    Returns:
        dict mapping frozenset(itemset) -> absolute frequency.
    """
    mc = min_count(len(transactions), min_support)
    out: dict[frozenset[str], int] = {}
    _grow([(set(t), 1) for t in transactions], mc, frozenset(), out)
    return out


def bruteforce(
    transactions: Sequence[Iterable[str]], min_support: float
) -> dict[frozenset[str], int]:
    """Exponential reference miner for tests: enumerate every itemset that
    occurs as a subset of some transaction and count it."""
    mc = min_count(len(transactions), min_support)
    sets = [frozenset(t) for t in transactions]
    counts: dict[frozenset[str], int] = defaultdict(int)
    for s in sets:
        items = sorted(s)
        for r in range(1, len(items) + 1):
            for combo in itertools.combinations(items, r):
                counts[frozenset(combo)] += 1
    return {k: v for k, v in counts.items() if v >= mc}
