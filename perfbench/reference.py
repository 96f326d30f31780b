"""The numbers EXPERIMENTS.md publishes for ``--scale 1.0 --seed 0`` at
support 0.2, at the precision it prints them. The ``paper`` workload at
seed 0 must reproduce all of them."""
from __future__ import annotations

# (scale, support, seed) the numbers below belong to.
EXPERIMENTS_CONFIG = (1.0, 0.2, 0)

# T1: region -> (recipes, [(named pattern, measured support)], patterns)
T1 = {
    "Australian": (5823, [("butter", 0.262)], 29),
    "Belgian": (1060, [("butter + salt", 0.268)], 51),
    "Canadian": (6700, [("onion", 0.220)], 31),
    "Caribbean": (3026, [("garlic clove", 0.259)], 32),
    "Central American": (460, [("onion", 0.311)], 38),
    "Chinese and Mongolian": (5896, [("add + heat + soy sauce", 0.288)], 88),
    "Deutschland": (4323, [("onion", 0.307)], 54),
    "Eastern European": (2503, [("cream", 0.314)], 60),
    "French": (6381, [("skillet", 0.236)], 60),
    "Greek": (4185, [("olive oil", 0.404)], 43),
    "Indian Subcontinent": (6464, [("add + heat + onion + salt", 0.242)], 119),
    "Irish": (2532, [("butter", 0.354)], 41),
    "Italian": (16582, [("parmesan cheese", 0.328)], 63),
    "Japanese": (2041, [("soy sauce", 0.470)], 45),
    "Mexican": (14463, [("cilantro", 0.267)], 33),
    "Rest Africa": (2740, [("add + heat + onion", 0.211)], 51),
    "South American": (7176, [("onion + salt", 0.229)], 62),
    "Southeast Asian": (1940, [("fish sauce", 0.259)], 69),
    "Spanish and Portuguese": (2844, [("olive oil", 0.338)], 67),
    "Thai": (2605, [("add + fish sauce + heat", 0.268)], 73),
    "Korean": (668, [("sesame oil + soy sauce", 0.331), ("green onion + sesame oil", 0.243)], 85),
    "Middle Eastern": (3905, [("bowl + salt", 0.239), ("lemon juice", 0.245)], 46),
    "Northern Africa": (
        1611,
        [("cinnamon + cumin", 0.236), ("cumin + olive oil", 0.246), ("cumin + salt", 0.232)],
        134,
    ),
    "Scandinavian": (2811, [("butter + salt", 0.249), ("salt + sugar", 0.232)], 52),
    "UK": (4401, [("butter", 0.386), ("oven", 0.474)], 45),
    "US": (5031, [("bake + bowl + oven + preheat", 0.245), ("onion", 0.268)], 67),
}

# T2: WCSS for k = 1..10 (one decimal) and the knee strength.
T2_WCSS = [1217.7, 1050.9, 900.2, 728.4, 581.1, 464.8, 349.3, 247.5, 221.3, 172.4]
T2_KNEE = 0.117

# T3 / T4: (cophenetic correlation, triplet agreement) vs the geo tree.
T3 = {"euclidean": (0.331, 0.544), "cosine": (0.296, 0.407), "jaccard": (0.309, 0.476)}
T4 = (0.323, 0.538)

# T5: Section III dataset statistics.
T5 = {
    "total_recipes": 118171,
    "unique_ingredients": 16255,
    "unique_processes": 261,
    "unique_utensils": 67,
    "avg_ingredients": 10.01,
    "avg_processes": 11.69,
    "avg_utensils": 2.62,
    "recipes_without_utensils": 14744,
}


def _printed(value: float, printed: float, decimals: int) -> bool:
    """True when ``value`` prints as ``printed`` at ``decimals`` places,
    either way a tie is rounded."""
    return abs(value - printed) <= 0.5 * 10.0**-decimals + 1e-9


def check_experiments(o) -> list[str]:
    """Compare one config's outputs with EXPERIMENTS.md; returns problems."""
    bad: list[str] = []
    t1 = {(r.region, r.pattern): r for r in o.t1.itertuples()}
    for region, (n_rec, pats, n_pat) in T1.items():
        for pattern, sup in pats:
            row = t1.get((region, pattern))
            if row is None:
                bad.append(f"T1 {region}: no row for {pattern!r}")
                continue
            got = (row.n_recipes, row.support, row.n_patterns)
            if (got[0], got[2]) != (n_rec, n_pat) or not _printed(got[1], sup, 3):
                bad.append(f"T1 {region} {pattern!r}: {got} != {(n_rec, sup, n_pat)}")
    if len(t1) != sum(len(p) for _, p, _ in T1.values()):
        bad.append(f"T1 has {len(t1)} rows")

    wcss = list(o.er.curve["wcss"])
    if not all(_printed(w, r, 1) for w, r in zip(wcss, T2_WCSS, strict=True)):
        bad.append(f"T2 WCSS {wcss} != {T2_WCSS}")
    if not _printed(o.er.knee_strength, T2_KNEE, 3):
        bad.append(f"T2 knee {o.er.knee_strength} != {T2_KNEE}")

    scores = {
        r.metric: (r.cophenetic_corr_vs_geo, r.triplet_agreement_vs_geo)
        for r in o.fr.geo_scores.itertuples()
    }
    if scores.keys() != T3.keys() or not all(
        _printed(g, p, 3) for m in T3 for g, p in zip(scores[m], T3[m])
    ):
        bad.append(f"T3 scores {scores} != {T3}")
    for metric, probes in o.fr.probes.items():
        if not all(probes.values()):
            bad.append(f"T3 probes fail for {metric}: {probes}")
    a = o.ar.geo_scores.iloc[0]
    got4 = (a.cophenetic_corr_vs_geo, a.triplet_agreement_vs_geo)
    if not all(_printed(g, p, 3) for g, p in zip(got4, T4)):
        bad.append(f"T4 scores {got4} != {T4}")
    if not all(o.ar.probes.values()):
        bad.append(f"T4 probes fail: {o.ar.probes}")

    stats = dict(zip(o.summary["metric"], o.summary["value"]))
    for k, v in T5.items():
        if k not in stats or not _printed(stats[k], v, 2):
            bad.append(f"T5 {k} {stats.get(k)} != {v}")
    return bad
