"""Level-wise Apriori (Agrawal & Srikant, VLDB 1994) — the paper's ref [1].

The paper motivates FP-Growth as "an efficient and scalable method"
compared to candidate-generation approaches; this module is that baseline,
used (a) to cross-validate FP-Growth's output and (b) in
``benchmarks/bench_miners.py`` to reproduce the efficiency claim.
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from .fpgrowth import min_count


def apriori(
    transactions: Sequence[Iterable[str]], min_support: float
) -> dict[frozenset[str], int]:
    """Mine all frequent itemsets by level-wise candidate generation.

    Same output contract as :func:`repro.mining.fpgrowth.fpgrowth`.
    """
    n = len(transactions)
    if n == 0:
        return {}
    mc = min_count(n, min_support)
    sets = [frozenset(t) for t in transactions]

    counts: dict[str, int] = defaultdict(int)
    for s in sets:
        for item in s:
            counts[item] += 1
    current = {
        frozenset([i]): c for i, c in counts.items() if c >= mc
    }
    out: dict[frozenset[str], int] = dict(current)

    k = 2
    while current:
        # Candidate generation: join frequent (k-1)-itemsets sharing a
        # (k-2)-prefix, then prune candidates with an infrequent subset.
        prev = sorted(current, key=lambda s: sorted(s))
        candidates: set[frozenset[str]] = set()
        prev_sorted = [tuple(sorted(s)) for s in prev]
        for i in range(len(prev_sorted)):
            for j in range(i + 1, len(prev_sorted)):
                a, b = prev_sorted[i], prev_sorted[j]
                if a[:-1] != b[:-1]:
                    break  # sorted list: once prefixes diverge, stop inner scan
                cand = frozenset(a) | frozenset(b)
                if len(cand) == k and all(
                    cand - {x} in current for x in cand
                ):
                    candidates.add(cand)
        if not candidates:
            break
        cand_counts: dict[frozenset[str], int] = defaultdict(int)
        for s in sets:
            if len(s) < k:
                continue
            for cand in candidates:
                if cand <= s:
                    cand_counts[cand] += 1
        current = {c: cnt for c, cnt in cand_counts.items() if cnt >= mc}
        out.update(current)
        k += 1
    return out
