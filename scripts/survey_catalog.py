#!/usr/bin/env python3
"""Walk the built-in catalog and print one row of invariants per entry:
rank, global dimension, number of fusion subcategories, grading group
order, transparent objects and the centralizer of every subcategory."""

import argparse

from fusioncat import (
    CharacterAlgebra,
    catalog_get,
    catalog_names,
    centralizer,
    enumerate_subcats,
    grading,
)


def members_str(labels, members):
    return "{" + ",".join(labels[i] for i in members) + "}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="catalog entries (default: all)")
    parser.add_argument(
        "--centralizers", action="store_true", help="also print D -> D' per entry"
    )
    args = parser.parse_args()
    names = args.names or catalog_names()

    print(f"{'entry':14} {'rank':>4} {'dim':>22} {'subcats':>7} {'grading':>7} transparent")
    for name in names:
        data = catalog_get(name)
        alg = CharacterAlgebra(data)
        labels = data.labels
        subcats = enumerate_subcats(alg)
        grade = grading(alg)
        transparent = members_str(labels, alg.transparent_members())
        dim = f"{data.dim} ≈ {data.dim.approx_str()}" if not data.dim.is_rational() else str(data.dim)
        print(
            f"{name:14} {data.rank:>4} {dim:>22} {len(subcats):>7}"
            f" {len(grade.components):>7} {transparent}"
        )
        if args.centralizers:
            for d in subcats:
                result = centralizer(alg, d)
                print(
                    f"    {members_str(labels, d.members):16} -> "
                    f"{members_str(labels, result.members)}"
                )


if __name__ == "__main__":
    main()
