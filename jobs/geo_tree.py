"""Reproduce Fig 6 (HAC over geographical distance between regions).

    python jobs/geo_tree.py          # no Spark needed
"""
from __future__ import annotations

import _common  # noqa: F401  (puts src/ on the path)

from repro.cluster.hac import ascii_dendrogram, to_newick
from repro.geo.regions import geo_tree
from repro.recipedb.vocab import REGIONS


def main() -> None:
    Z = geo_tree(REGIONS, method="average")
    print("=== HAC dendrogram over geographic distance (Fig 6) ===")
    print(ascii_dendrogram(Z, REGIONS))
    print("newick:", to_newick(Z, REGIONS))


if __name__ == "__main__":
    main()
