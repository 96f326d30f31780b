"""Calibrated cuisine profiles — the synthetic RecipeDB's "genome".

The paper's dataset (RecipeDB, 118,071 recipes in 26 cuisines) is not
redistributable, so we synthesise a dataset whose *mined structure*
reproduces Table I of the paper. Each cuisine is a generative model with
four independent layers (see DESIGN.md §3):

1. **Signature events** — Table I's named pattern(s) inserted as a unit
   with probability = paper support + a small noise margin, so FP-Growth
   re-measures the published support.
2. **Style blocks** — correlated item sets of size ``b`` fired together at
   ~0.25. One block yields ``2^b - 1`` frequent itemsets; blocks are drawn
   from *family pools* shared by related cuisines (India and Northern
   Africa literally share a spice-block prefix, which is the paper's
   India–N.Africa closeness).
3. **Fillers** — independent items with probabilities in [0.23, 0.32].
   Every pairwise product of independent probabilities is kept < 0.17, so
   at support 0.2 a filler contributes exactly one frequent singleton and
   the expected pattern count has the closed form
   ``E(events) + sum(2^b - 1) + len(fillers)``. ``plan_blocks`` solves for
   blocks and filler count from the paper's published pattern count.
4. **Long tail** — Zipf-tempered draws from family/global/unique pools
   (marginal per item capped at ~0.12, never frequent) giving realistic
   recipe lengths and the 20,280 / 268 / 69 item universes.

The item universes (``universe(kind)``, derived from the pools the
generator draws from) and Table I's named patterns (``NAMED_PATTERNS``)
are defined here once; ``core.table1`` and the tests read them from here.

Everything here is pure data + deterministic arithmetic: no RNG at import.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pandas as pd

MIN_SUPPORT = 0.2
"""The paper's mining threshold (Section IV)."""

UTENSIL_DROPOUT = 14_601 / 118_071
"""Fraction of recipes with no utensil information (Section III)."""

# Average recipe composition targets (Section III).
AVG_INGREDIENTS = 10.0
AVG_PROCESSES = 12.0
AVG_UTENSILS = 3.0

# Item-universe sizes (Section III).
N_UNIQUE_INGREDIENTS = 20_280
N_UNIQUE_PROCESSES = 268
N_UNIQUE_UTENSILS = 69

# Independence cap: any product of two independent item probabilities must
# stay this far under MIN_SUPPORT so no accidental pair becomes frequent.
_PAIR_CAP = 0.17

# ---------------------------------------------------------------------------
# Paper Table I, verbatim: region -> (n_recipes, [(pattern, support)], n_patterns)
# ---------------------------------------------------------------------------
PAPER_TABLE1: dict[str, tuple[int, list[tuple[tuple[str, ...], float]], int]] = {
    "Australian": (5823, [(("butter",), 0.24)], 29),
    "Belgian": (1060, [(("butter", "salt"), 0.24)], 51),
    "Canadian": (6700, [(("onion",), 0.20)], 31),
    "Caribbean": (3026, [(("garlic clove",), 0.24)], 32),
    "Central American": (460, [(("onion",), 0.30)], 38),
    "Chinese and Mongolian": (5896, [(("soy sauce", "add", "heat"), 0.27)], 88),
    "Deutschland": (4323, [(("onion",), 0.29)], 54),
    "Eastern European": (2503, [(("cream",), 0.30)], 60),
    "French": (6381, [(("skillet",), 0.21)], 60),
    "Greek": (4185, [(("olive oil",), 0.40)], 43),
    "Indian Subcontinent": (6464, [(("onion", "add", "heat", "salt"), 0.22)], 119),
    "Irish": (2532, [(("butter",), 0.32)], 41),
    "Italian": (16582, [(("parmesan cheese",), 0.31)], 63),
    "Japanese": (2041, [(("soy sauce",), 0.45)], 45),
    "Mexican": (14463, [(("cilantro",), 0.25)], 33),
    "Rest Africa": (2740, [(("onion", "add", "heat"), 0.20)], 51),
    "South American": (7176, [(("onion", "salt"), 0.21)], 62),
    "Southeast Asian": (1940, [(("fish sauce",), 0.24)], 69),
    "Spanish and Portuguese": (2844, [(("olive oil",), 0.31)], 67),
    "Thai": (2605, [(("fish sauce", "add", "heat"), 0.23)], 73),
    "Korean": (
        668,
        [(("soy sauce", "sesame oil"), 0.34), (("green onion", "sesame oil"), 0.24)],
        85,
    ),
    "Middle Eastern": (
        3905,
        [(("salt", "bowl"), 0.22), (("lemon juice",), 0.22)],
        46,
    ),
    "Northern Africa": (
        1611,
        [
            (("cumin", "cinnamon"), 0.21),
            (("cumin", "olive oil"), 0.22),
            (("cumin", "salt"), 0.22),
        ],
        134,
    ),
    "Scandinavian": (
        2811,
        [(("butter", "salt"), 0.22), (("salt", "sugar"), 0.21)],
        52,
    ),
    "UK": (4401, [(("butter",), 0.37), (("oven",), 0.46)], 45),
    "US": (
        5031,
        [(("bake", "preheat", "oven", "bowl"), 0.22), (("onion",), 0.25)],
        67,
    ),
}

REGIONS: list[str] = list(PAPER_TABLE1)

NAMED_PATTERNS: list[tuple[str, ...]] = sorted(
    {tuple(sorted(p)) for _, pats, _ in PAPER_TABLE1.values() for p, _ in pats}
)
"""Table I's named patterns, each a sorted item tuple, in sorted order."""


def cuisine_matrix(regions, labels, values) -> tuple[np.ndarray, list[str]]:
    """``len(REGIONS)`` × L float64 matrix of (region, label, value) rows,
    and its labels: rows in ``REGIONS`` order (all-zero for a cuisine with
    no row), columns the sorted distinct labels. A null label fills no
    cell. Raises ``ValueError`` naming every region outside ``REGIONS``."""
    row = pd.Categorical(regions, categories=REGIONS).codes
    if (row < 0).any():
        unknown = sorted(set(regions) - set(REGIONS))
        raise ValueError(f"rows from regions not in REGIONS: {unknown}")
    col = pd.Categorical(labels)  # a null label gets code -1
    cell = col.codes >= 0
    mat = np.zeros((len(REGIONS), len(col.categories)), dtype=np.float64)
    mat[row[cell], col.codes[cell]] = np.asarray(values, dtype=np.float64)[cell]
    return mat, list(col.categories)


def slug(region: str) -> str:
    """Filesystem/key-safe region identifier."""
    return region.lower().replace(" ", "-")


# ---------------------------------------------------------------------------
# Item typing for curated (named) vocabulary
# ---------------------------------------------------------------------------
KINDS = ("ingredient", "process", "utensil")
"""Item types, in the order of the typed recipe columns and tail pools."""

_NAMED_UTENSILS = {
    "skillet", "oven", "bowl", "wok", "mortar", "pan", "pot", "baking sheet",
    "saucepan", "knife", "grill pan", "steamer",
}
_NAMED_PROCESSES = {
    "add", "heat", "bake", "preheat", "cook", "mix", "stir", "chop", "serve",
    "whisk", "beat", "sift", "saute", "deglaze", "julienne", "braise", "mash",
    "ferment", "smoke", "drizzle", "grate", "grind", "temper", "roast",
    "stir fry", "steam", "pound", "toss", "simmer", "press", "stew", "boil",
    "slice", "pour", "marinate", "knead", "fry", "grill",
}


def item_type(item: str) -> str:
    """Classify an item string as ``ingredient`` / ``process`` / ``utensil``.

    Curated names use the lookup sets above; generated tail names are typed
    by their prefix (``proc-``, ``ut-``, anything else is an ingredient).
    """
    if item in _NAMED_UTENSILS or item.startswith("ut-"):
        return "utensil"
    if item in _NAMED_PROCESSES or item.startswith("proc-"):
        return "process"
    return "ingredient"


# ---------------------------------------------------------------------------
# Family structure: geographically/culturally related cuisines share pools
# ---------------------------------------------------------------------------
FAMILIES: dict[str, list[tuple[str, float]]] = {
    "Australian": [("anglo", 1.0)],
    "Belgian": [("franco", 0.6), ("germanic", 0.4)],
    # Canada leans franco > anglo on purpose: the paper highlights that both
    # methods place Canadian cuisine nearer French than US cuisine.
    "Canadian": [("franco", 0.6), ("anglo", 0.4)],
    "Caribbean": [("latin", 1.0)],
    "Central American": [("latin", 1.0)],
    "Chinese and Mongolian": [("east_asia", 1.0)],
    "Deutschland": [("germanic", 1.0)],
    "Eastern European": [("germanic", 0.6), ("slavic", 0.4)],
    "French": [("franco", 1.0)],
    "Greek": [("mediterranean", 1.0)],
    "Indian Subcontinent": [("spice", 1.0)],
    "Irish": [("anglo", 1.0)],
    "Italian": [("mediterranean", 1.0)],
    "Japanese": [("east_asia", 1.0)],
    "Mexican": [("latin", 1.0)],
    "Rest Africa": [("africa", 0.7), ("spice", 0.3)],
    "South American": [("latin", 1.0)],
    "Southeast Asian": [("se_asia", 1.0)],
    "Spanish and Portuguese": [("mediterranean", 1.0)],
    "Thai": [("se_asia", 1.0)],
    "Korean": [("east_asia", 1.0)],
    "Middle Eastern": [("mediterranean", 0.5), ("spice", 0.5)],
    "Northern Africa": [("spice", 0.6), ("mediterranean", 0.2), ("africa", 0.2)],
    "Scandinavian": [("germanic", 0.7), ("anglo", 0.3)],
    "UK": [("anglo", 1.0)],
    "US": [("anglo", 1.0)],
}

FAMILY_NAMES: list[str] = sorted({f for fams in FAMILIES.values() for f, _ in fams})

# Style-block pools: 12 items each; a cuisine's block of size b takes the
# first b items not colliding with its signature events, so cuisines in one
# family share block *prefixes* (→ shared 2^b-1 pattern lattices).
BLOCK_POOLS: dict[str, list[str]] = {
    "anglo": ["flour", "egg", "milk", "baking powder", "vanilla extract",
              "brown sugar", "cream cheese", "whisk", "beat", "sift",
              "golden syrup", "custard"],
    "franco": ["shallot", "white wine", "thyme", "dijon mustard",
               "creme fraiche", "leek", "tarragon", "saute", "deglaze",
               "julienne", "gruyere", "baguette"],
    "germanic": ["potato", "cabbage", "caraway seed", "mustard seed", "pork",
                 "dill", "rye flour", "pickle", "braise", "mash",
                 "juniper berry", "sausage"],
    "slavic": ["beet", "sour cream", "paprika powder", "cottage cheese",
               "buckwheat", "horseradish", "ferment", "smoke", "poppy seed",
               "barley", "kvass", "lard"],
    "mediterranean": ["tomato", "basil", "oregano", "feta cheese", "eggplant",
                      "zucchini", "red wine vinegar", "capers", "drizzle",
                      "grate", "pine nut", "artichoke"],
    "spice": ["coriander", "turmeric", "ginger", "clove", "cardamom",
              "mustard oil", "fenugreek", "grind", "temper", "roast",
              "curry leaf", "ghee"],
    "east_asia": ["garlic", "ginger root", "scallion", "rice wine",
                  "white pepper", "sesame seed", "tofu", "stir fry", "steam",
                  "wok", "rice vinegar", "star anise"],
    "se_asia": ["coconut milk", "lemongrass", "lime leaf", "galangal",
                "shrimp paste", "palm sugar", "chili pepper", "pound", "toss",
                "mortar", "rice noodle", "tamarind"],
    "latin": ["lime", "tomato", "jalapeno", "corn tortilla", "black beans",
              "avocado", "queso fresco", "saute", "simmer", "press",
              "achiote", "plantain"],
    "africa": ["peanut", "okra", "cassava", "plantain", "scotch bonnet",
               "palm oil", "millet", "stew", "pound", "sorghum", "baobab",
               "egusi"],
}

# Generic fillers every cuisine tries first (the paper notes mined patterns
# are dominated by generic items like salt/onion and processes add/cook).
# Only the first GLOBAL_FILLER_PREFIX non-colliding entries are used per
# cuisine, so family/continent fillers — the similarity signal — keep most
# of the filler budget.
GLOBAL_FILLERS: list[str] = [
    "salt", "water", "add", "cook", "sugar", "garlic", "black pepper",
    "heat", "mix", "stir", "chop", "serve",
]
GLOBAL_FILLER_PREFIX = 4

# Continent layer: coarse geographic grouping that gives *between*-family
# structure (European families share items, Asian families share items, …)
# so the trees recover continents, matching the paper's geography-shaped
# dendrograms. Australian is culturally anglo; we still place it in
# "oceania-asia" so its geographic pull stays weak, like the real outlier.
CONTINENTS: dict[str, str] = {
    "Australian": "asia_pacific",
    "Belgian": "europe",
    "Canadian": "americas",
    "Caribbean": "americas",
    "Central American": "americas",
    "Chinese and Mongolian": "asia_pacific",
    "Deutschland": "europe",
    "Eastern European": "europe",
    "French": "europe",
    "Greek": "europe",
    "Indian Subcontinent": "asia_pacific",
    "Irish": "europe",
    "Italian": "europe",
    "Japanese": "asia_pacific",
    "Mexican": "americas",
    "Rest Africa": "africa_mideast",
    "South American": "americas",
    "Southeast Asian": "asia_pacific",
    "Spanish and Portuguese": "europe",
    "Thai": "asia_pacific",
    "Korean": "asia_pacific",
    "Middle Eastern": "africa_mideast",
    "Northern Africa": "africa_mideast",
    "Scandinavian": "europe",
    "UK": "europe",
    "US": "americas",
}

CONTINENT_FILLERS: dict[str, list[str]] = {
    "europe": ["butter", "flour", "egg", "milk", "parsley", "carrot",
               "celery", "bay leaf", "bake", "boil", "fry", "knead",
               "mustard", "vinegar", "bread crumb", "cheese"],
    "americas": ["corn", "tomato", "bean", "chili", "lime", "cilantro leaf",
                 "squash", "sweet potato", "grill", "fry", "simmer", "press",
                 "avocado", "peanut butter", "maple syrup", "vanilla"],
    "asia_pacific": ["rice", "ginger", "soy", "scallion", "sesame",
                     "chili paste", "noodle", "cabbage leaf", "steam",
                     "stir fry", "marinate", "slice", "fish", "seaweed",
                     "bean sprout", "coconut"],
    "africa_mideast": ["flatbread", "chickpea", "lentil", "date", "olive",
                       "yogurt", "mint", "sumac", "stew", "grind", "roast",
                       "simmer", "couscous", "tahini", "harissa", "saffron"],
}

# Per-family filler pools (24 items each; mixes ingredients and processes).
FILLER_POOLS: dict[str, list[str]] = {
    "anglo": ["butter", "flour", "egg", "milk", "cream", "cheddar",
              "bacon", "oats", "honey", "raisin", "apple", "nutmeg",
              "bake", "whisk", "beat", "sift", "boil", "slice",
              "worcestershire sauce", "mustard", "peas", "carrot",
              "parsley", "gravy"],
    "franco": ["butter", "shallot", "white wine", "thyme", "cream",
               "leek", "parsley", "bay leaf", "nutmeg", "brandy",
               "egg yolk", "mushroom", "saute", "deglaze", "simmer",
               "fry", "pour", "marinate", "red wine", "chives",
               "carrot", "celery", "lemon", "pepper"],
    "germanic": ["potato", "cabbage", "pork", "dill", "vinegar",
                 "mustard", "apple", "bacon", "caraway seed", "onion seed",
                 "sour cherry", "bread crumb", "boil", "braise", "mash",
                 "fry", "marinate", "knead", "sausage", "butter",
                 "parsley", "carrot", "celery root", "horseradish"],
    "slavic": ["beet", "sour cream", "potato", "cabbage", "dill",
               "mushroom", "buckwheat", "garlic", "vinegar", "honey",
               "walnut", "poppy seed", "boil", "ferment", "smoke",
               "fry", "bake", "marinate", "barley", "horseradish",
               "carrot", "onion", "butter", "paprika powder"],
    "mediterranean": ["olive oil", "tomato", "basil", "oregano", "garlic",
                      "lemon", "feta cheese", "eggplant", "parsley",
                      "red onion", "olives", "capers", "drizzle", "grate",
                      "roast", "simmer", "marinate", "boil", "pasta",
                      "rosemary", "thyme", "pine nut", "honey", "yogurt"],
    "spice": ["cumin", "coriander", "turmeric", "ginger", "garlic",
              "onion", "chili powder", "garam masala", "yogurt", "ghee",
              "mustard seed", "cinnamon", "grind", "temper", "roast",
              "fry", "simmer", "boil", "clove", "cardamom",
              "curry leaf", "lentil", "rice", "tomato"],
    "east_asia": ["soy sauce", "ginger root", "scallion", "garlic",
                  "sesame oil", "rice wine", "white pepper", "tofu",
                  "rice", "sesame seed", "chili oil", "oyster sauce",
                  "stir fry", "steam", "marinate", "slice", "pour",
                  "boil", "sugar", "rice vinegar", "star anise",
                  "noodle", "mushroom", "egg"],
    "se_asia": ["coconut milk", "lemongrass", "lime", "galangal",
                "shrimp paste", "palm sugar", "chili pepper", "garlic",
                "cilantro", "basil", "rice", "rice noodle", "pound",
                "toss", "fry", "simmer", "marinate", "slice",
                "fish sauce", "peanut", "tamarind", "shallot",
                "bean sprout", "lime leaf"],
    "latin": ["lime", "tomato", "jalapeno", "cilantro", "corn tortilla",
              "black beans", "avocado", "cumin", "oregano", "rice",
              "bell pepper", "corn", "simmer", "press", "fry",
              "boil", "marinate", "chop", "queso fresco", "plantain",
              "chipotle", "achiote", "onion", "garlic"],
    "africa": ["peanut", "okra", "cassava", "plantain", "palm oil",
               "scotch bonnet", "tomato", "ginger", "garlic", "millet",
               "rice", "yam", "stew", "pound", "boil",
               "fry", "simmer", "marinate", "sorghum", "egusi",
               "baobab", "maize", "spinach", "chili pepper"],
}

# Generic utensils: put at the front of the global utensil tail pool so they
# get the top Zipf weights (marginal ~0.1, never frequent).
GENERIC_UTENSILS: list[str] = [
    "pan", "pot", "knife", "baking sheet", "saucepan", "grill pan", "steamer",
]


# ---------------------------------------------------------------------------
# Profile dataclasses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Event:
    """A correlated itemset fired as a unit with probability ``prob``."""

    items: tuple[str, ...]
    prob: float


@dataclass(frozen=True)
class CuisineProfile:
    """The frequent layers of one cuisine. Its Table I row is
    ``PAPER_TABLE1[region]``, its families ``FAMILIES[region]``."""

    index: int                           # position in REGIONS (seeds the RNG)
    events: tuple[Event, ...]            # signature patterns (Table I)
    blocks: tuple[Event, ...]            # style blocks (family-shared)
    fillers: tuple[tuple[str, float], ...]  # independent frequent singletons
    fixed_items: frozenset[str]          # every item of the three layers


def _margin(support: float) -> float:
    """Noise margin added to paper supports so sampling noise cannot push a
    signature pattern below the 0.2 mining threshold at full scale. High
    supports get a smaller bump to keep cross-event products under 0.2."""
    return 0.012 if support >= 0.37 else 0.02


def event_pattern_count(events: tuple[Event, ...]) -> tuple[int, dict[str, float]]:
    """Exact count of itemsets the event layer alone makes frequent at
    ``MIN_SUPPORT``.

    Events fire independently; an itemset S is present iff the union of
    fired events covers S. Enumerates all 2^m fire combinations (m <= 3 in
    our profiles) and all subsets of the union item set. Returns the count
    and each item's marginal probability (used to cap filler probabilities).
    """
    items = sorted({i for e in events for i in e.items})
    m = len(events)
    count = 0
    marginals: dict[str, float] = {}
    for r in range(1, len(items) + 1):
        for sub in itertools.combinations(items, r):
            s = set(sub)
            p = 0.0
            for fires in itertools.product([0, 1], repeat=m):
                covered: set[str] = set()
                q = 1.0
                for fire, e in zip(fires, events):
                    q *= e.prob if fire else (1.0 - e.prob)
                    if fire:
                        covered.update(e.items)
                if s <= covered:
                    p += q
            if r == 1:
                marginals[sub[0]] = p
            if p >= MIN_SUPPORT:
                count += 1
    return count, marginals


def plan_blocks(remainder: int) -> tuple[list[int], int]:
    """Solve for style-block sizes + filler count given the pattern-count
    remainder R = paper_n_patterns - event_pattern_count.

    Returns (block_sizes, n_fillers) with
    ``sum(2^b - 1) + n_fillers == remainder``.
    """
    if remainder <= 0:
        return [], 0
    if remainder <= 20:
        return [], remainder
    sizes: list[int] = []
    f = remainder
    b1 = max(b for b in range(3, 8) if (1 << b) - 1 <= f - 8)
    sizes.append(b1)
    f -= (1 << b1) - 1
    if f > 40:
        b2 = max(b for b in range(3, 7) if (1 << b) - 1 <= f - 8)
        sizes.append(b2)
        f -= (1 << b2) - 1
    return sizes, f


_FILLER_LADDER = [0.32, 0.30, 0.29, 0.28, 0.27, 0.26, 0.25, 0.245, 0.24, 0.235, 0.23]


def _weighted_merge(pools: list[tuple[list[str], float]]) -> list[str]:
    """Deterministic weighted round-robin merge of family pools: item j of a
    weight-w pool sorts at key (j+1)/w, so heavier families contribute
    earlier and more densely."""
    keyed: list[tuple[float, int, str]] = []
    for pool_idx, (pool, w) in enumerate(pools):
        for j, it in enumerate(pool):
            keyed.append(((j + 1) / max(w, 1e-9), pool_idx, it))
    out: list[str] = []
    seen: set[str] = set()
    for _, _, it in sorted(keyed):
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def _build_profile(region: str) -> CuisineProfile:
    _, paper_patterns, paper_n = PAPER_TABLE1[region]
    idx = REGIONS.index(region)
    events = tuple(
        Event(items=tuple(p), prob=round(s + _margin(s), 4))
        for p, s in paper_patterns
    )
    e_count, marginals = event_pattern_count(events)
    block_sizes, n_fillers = plan_blocks(paper_n - e_count)

    event_items = {i for e in events for i in e.items}
    fams = FAMILIES[region]

    # Blocks: take prefix items of the *primary* family's block pool first
    # (then secondary families), skipping event collisions, so same-family
    # cuisines share block prefixes — e.g. Indian Subcontinent and Northern
    # Africa both open with the spice pool and therefore share that block's
    # whole 2^b - 1 pattern lattice, the paper's India–N.Africa closeness.
    block_candidates = []
    for fam_name, _w in sorted(fams, key=lambda fw: -fw[1]):
        for it in BLOCK_POOLS[fam_name]:
            if it not in event_items and it not in block_candidates:
                block_candidates.append(it)
    blocks: list[Event] = []
    pos = 0
    max_marginal = max(marginals.values(), default=0.0)
    block_prob = round(0.25 + 0.002 * (idx % 5), 4)
    for b in block_sizes:
        blocks.append(Event(items=tuple(block_candidates[pos : pos + b]), prob=block_prob))
        pos += b
    used = event_items | {i for b in blocks for i in b.items}

    # Fillers: a short global-generic prefix, then family pool items (the
    # within-family similarity signal), then the continent pool (the
    # between-family geographic signal), then synthetic overflow;
    # probabilities follow a ladder capped so that
    # p_filler * max(other marginal) < _PAIR_CAP.
    filler_candidates = [it for it in GLOBAL_FILLERS if it not in used][
        :GLOBAL_FILLER_PREFIX
    ]
    for it in _weighted_merge([(FILLER_POOLS[f], w) for f, w in fams]):
        if it not in used and it not in filler_candidates:
            filler_candidates.append(it)
    for it in CONTINENT_FILLERS[CONTINENTS[region]]:
        if it not in used and it not in filler_candidates:
            filler_candidates.append(it)
    overflow = 0
    while len(filler_candidates) < n_fillers:
        filler_candidates.append(f"{slug(region)}-common-{overflow:02d}")
        overflow += 1
    cap_source = max(max_marginal, block_prob)
    cap = _PAIR_CAP / cap_source if cap_source > 0 else 1.0
    fillers = tuple(
        (it, round(min(_FILLER_LADDER[i % len(_FILLER_LADDER)], cap), 4))
        for i, it in enumerate(filler_candidates[:n_fillers])
    )

    return CuisineProfile(
        index=idx,
        events=events,
        blocks=tuple(blocks),
        fillers=fillers,
        fixed_items=frozenset(used | {it for it, _ in fillers}),
    )


PROFILES: dict[str, CuisineProfile] = {r: _build_profile(r) for r in REGIONS}


# ---------------------------------------------------------------------------
# Tail vocabularies (the 20,280 / 268 / 69 item universes)
# ---------------------------------------------------------------------------
def _named_items_by_type() -> dict[str, set[str]]:
    named: set[str] = set(GLOBAL_FILLERS) | set(GENERIC_UTENSILS)
    for pool in BLOCK_POOLS.values():
        named.update(pool)
    for pool in FILLER_POOLS.values():
        named.update(pool)
    for prof in PROFILES.values():
        named.update(prof.fixed_items)
    by_type: dict[str, set[str]] = {kind: set() for kind in KINDS}
    for it in named:
        by_type[item_type(it)].add(it)
    return by_type


NAMED_BY_TYPE = _named_items_by_type()

_ING_FAMILY_POOL = 600      # per family
_ING_CONTINENT_POOL = 450   # per continent
_ING_UNIQUE_POOL = 340      # per cuisine

CONTINENT_NAMES: list[str] = sorted(set(CONTINENTS.values()))

TAIL_ING_FAMILY: dict[str, list[str]] = {
    f: [f"{f}-ing-{i:03d}" for i in range(_ING_FAMILY_POOL)] for f in FAMILY_NAMES
}
TAIL_ING_CONTINENT: dict[str, list[str]] = {
    c: [f"{c}-ing-{i:03d}" for i in range(_ING_CONTINENT_POOL)]
    for c in CONTINENT_NAMES
}
TAIL_ING_UNIQUE: dict[str, list[str]] = {
    r: [f"{slug(r)}-ing-{i:03d}" for i in range(_ING_UNIQUE_POOL)] for r in REGIONS
}
_N_ING_GLOBAL = (
    N_UNIQUE_INGREDIENTS
    - len(NAMED_BY_TYPE["ingredient"])
    - len(FAMILY_NAMES) * _ING_FAMILY_POOL
    - len(CONTINENT_NAMES) * _ING_CONTINENT_POOL
    - len(REGIONS) * _ING_UNIQUE_POOL
)
TAIL_ING_GLOBAL: list[str] = [f"glob-ing-{i:05d}" for i in range(_N_ING_GLOBAL)]

TAIL_PROCESSES: list[str] = [
    f"proc-{i:03d}" for i in range(N_UNIQUE_PROCESSES - len(NAMED_BY_TYPE["process"]))
]
# Generic named utensils lead the pool (highest Zipf weight); ut-## fill the rest.
TAIL_UTENSILS: list[str] = GENERIC_UTENSILS + [
    f"ut-{i:02d}" for i in range(N_UNIQUE_UTENSILS - len(NAMED_BY_TYPE["utensil"]))
]


def _rank_jitter(pool: list[str], seed: int) -> list[str]:
    """Deterministically perturb item ranks by N(0, 25) — cuisines in the
    same family keep *mostly* the same top tail items (correlated prevalence
    vectors) while still differing in the details. A rotation here would
    decorrelate the Zipf weights entirely and erase the family signal."""
    rng = np.random.default_rng(seed)
    keys = np.arange(len(pool)) + rng.normal(0.0, 25.0, len(pool))
    return [pool[i] for i in np.argsort(keys, kind="stable")]


def tail_pools(region: str) -> tuple[list[str], list[str], list[str]]:
    """Ordered tail pools of a cuisine, one per item type in ``KINDS`` order.

    Ingredients: family pools (weighted merge with per-cuisine rank jitter),
    then the continent pool, then the global pool, then the cuisine-unique
    pool. Zipf weights over this order concentrate mass on family items →
    related cuisines share their most common tail ingredients (drives
    authenticity clustering), continents share the mid ranks (drives the
    geographic tree shape). Processes: the global pool rotated by the
    cuisine's index. Utensils: the global pool, generic utensils first.
    No tail name is a frequent-layer item of any cuisine."""
    idx = PROFILES[region].index
    fam = _weighted_merge([(TAIL_ING_FAMILY[f], w) for f, w in FAMILIES[region]])
    ingredients = (
        _rank_jitter(fam, seed=idx + 1000)
        + TAIL_ING_CONTINENT[CONTINENTS[region]]
        + TAIL_ING_GLOBAL
        + TAIL_ING_UNIQUE[region]
    )
    rot = (idx * 31) % len(TAIL_PROCESSES)
    return ingredients, TAIL_PROCESSES[rot:] + TAIL_PROCESSES[:rot], TAIL_UTENSILS[:]


def universe(kind: str) -> set[str]:
    """The Section-III universe of one item type in ``KINDS`` (20,280
    ingredients, 268 processes, 69 utensils): its named items plus every
    tail item the generator draws from, over all cuisines' ``tail_pools``."""
    k = KINDS.index(kind)
    return NAMED_BY_TYPE[kind].union(*(tail_pools(r)[k] for r in REGIONS))


def tail_rates(region: str) -> tuple[float, float, float]:
    """Per-recipe Poisson rates of the three tail layers (``KINDS`` order):
    each Section-III average minus the expected number of items of that
    type the frequent layers (events + blocks + fillers) contribute,
    clipped to [1, 12] ingredients, [1, 14] processes, [0.5, 5] utensils."""
    prof = PROFILES[region]
    expected = dict.fromkeys(KINDS, 0.0)
    for layer in (prof.events, prof.blocks):
        for e in layer:
            for it in e.items:
                expected[item_type(it)] += e.prob
    for it, p in prof.fillers:
        expected[item_type(it)] += p
    targets = (
        (AVG_INGREDIENTS, 1.0, 12.0), (AVG_PROCESSES, 1.0, 14.0), (AVG_UTENSILS, 0.5, 5.0)
    )
    return tuple(
        min(max(avg - expected[kind], lo), hi)
        for kind, (avg, lo, hi) in zip(KINDS, targets)
    )
