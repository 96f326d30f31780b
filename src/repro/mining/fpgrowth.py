"""From-scratch FP-Growth (Han, Pei, Yin — SIGMOD 2000).

This is the reference mining engine for the reproduction: it backs the
``applyInPandas`` grouped miner in ``spark_fpm`` and serves as the
correctness oracle against Spark MLlib's FPGrowth in tests. Returns the
*complete* set of frequent itemsets (same semantics as
``pyspark.ml.fpm.FPGrowth.freqItemsets``).
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence


def min_count(n: int, min_support: float) -> int:
    """Smallest absolute count that is frequent among ``n`` transactions:
    ``max(1, ceil(min_support * n))``."""
    return max(1, math.ceil(min_support * n))


class _Node:
    """One FP-tree node: an item, its count, a parent link and children."""

    __slots__ = ("item", "count", "parent", "children", "link")

    def __init__(self, item: str | None, parent: "_Node | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.link: _Node | None = None


class _Tree:
    """An FP-tree plus its header table (item -> chain of nodes)."""

    def __init__(self) -> None:
        self.root = _Node(None, None)
        self.header: dict[str, _Node] = {}
        self.counts: dict[str, int] = defaultdict(int)

    def insert(self, transaction: Sequence[str], count: int) -> None:
        node = self.root
        for item in transaction:
            child = node.children.get(item)
            if child is None:
                child = _Node(item, node)
                node.children[item] = child
                child.link = self.header.get(item)
                self.header[item] = child
            child.count += count
            self.counts[item] += count
            node = child

    def prefix_paths(self, item: str) -> list[tuple[list[str], int]]:
        """Conditional pattern base of ``item``: (path-to-root, count)."""
        paths: list[tuple[list[str], int]] = []
        node = self.header.get(item)
        while node is not None:
            path: list[str] = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            if path:
                paths.append((path[::-1], node.count))
            node = node.link
        return paths

    def single_path(self) -> list[tuple[str, int]] | None:
        """If the tree is a single chain, return it (item, count) top-down."""
        out: list[tuple[str, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            node = next(iter(node.children.values()))
            out.append((node.item, node.count))  # type: ignore[arg-type]
        return out


def _build_tree(
    transactions: Iterable[tuple[Sequence[str], int]], min_count: int
) -> _Tree:
    counts: dict[str, int] = defaultdict(int)
    cached = []
    for t, c in transactions:
        cached.append((t, c))
        for item in set(t):
            counts[item] += c
    frequent = {i for i, c in counts.items() if c >= min_count}
    # Global order: count desc, item asc — a fixed total order keeps the
    # tree maximally shared and the mining deterministic.
    order = {i: (-counts[i], i) for i in frequent}
    tree = _Tree()
    for t, c in cached:
        filtered = sorted({i for i in t if i in frequent}, key=order.__getitem__)
        if filtered:
            tree.insert(filtered, c)
    return tree


def _mine(tree: _Tree, min_count: int, suffix: frozenset[str], out: dict[frozenset[str], int]) -> None:
    single = tree.single_path()
    if single is not None:
        # Single-path shortcut: every combination of path items is frequent
        # with the count of its deepest member.
        import itertools

        for r in range(1, len(single) + 1):
            for combo in itertools.combinations(single, r):
                cnt = min(c for _, c in combo)
                if cnt >= min_count:
                    out[suffix | frozenset(i for i, _ in combo)] = cnt
        return
    for item, total in sorted(tree.counts.items(), key=lambda kv: (kv[1], kv[0])):
        if total < min_count:
            continue
        new_suffix = suffix | {item}
        out[new_suffix] = total
        cond = _build_tree(tree.prefix_paths(item), min_count)
        if cond.counts:
            _mine(cond, min_count, new_suffix, out)


def fpgrowth(
    transactions: Sequence[Iterable[str]], min_support: float
) -> dict[frozenset[str], int]:
    """Mine all frequent itemsets.

    Args:
        transactions: iterable of item collections (duplicates within a
            transaction are collapsed, as in MLlib).
        min_support: relative support threshold in (0, 1]; an itemset is
            frequent iff its count is at least ``min_count(n, min_support)``
            = ``max(1, ceil(min_support * n))``, the threshold MLlib's
            FPGrowth applies for ``freq / n >= minSupport``.

    Returns:
        dict mapping frozenset(itemset) -> absolute frequency.
    """
    n = len(transactions)
    if n == 0:
        return {}
    mc = min_count(n, min_support)
    tree = _build_tree(((t, 1) for t in transactions), mc)
    out: dict[frozenset[str], int] = {}
    _mine(tree, mc, frozenset(), out)
    return out


def bruteforce(
    transactions: Sequence[Iterable[str]], min_support: float, max_size: int | None = None
) -> dict[frozenset[str], int]:
    """Exponential reference miner for tests: enumerate every itemset that
    occurs as a subset of some transaction and count it."""
    import itertools

    n = len(transactions)
    if n == 0:
        return {}
    mc = min_count(n, min_support)
    sets = [frozenset(t) for t in transactions]
    counts: dict[frozenset[str], int] = defaultdict(int)
    for s in sets:
        items = sorted(s)
        top = len(items) if max_size is None else min(max_size, len(items))
        for r in range(1, top + 1):
            for combo in itertools.combinations(items, r):
                counts[frozenset(combo)] += 1
    return {k: v for k, v in counts.items() if v >= mc}
