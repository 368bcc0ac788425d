#!/usr/bin/env python3
"""Survey the algebra axioms over the lattice corpus: the amended fourth
clause against the two-index one, with the first witness wherever the
two-index form breaks. Exits 1 when the amended form fails on any lattice.

    python scripts/survey_axioms.py --max-size 7
"""

import argparse
import sys

from dualbench.algebra import check_lvl_axioms, make_lvl
from dualbench.corpus import corpus_lattices


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=7)
    args = parser.parse_args(argv)

    print(f"{'lattice':10} {'size':>4} {'amended':>8} {'two-index':>10}  witness")
    lattices = corpus_lattices(args.max_size)
    amended_failures = two_index_failures = 0
    for lat in lattices:
        algebra = make_lvl(lat)
        amended = check_lvl_axioms(algebra)
        literal = check_lvl_axioms(algebra, literal_iv=True)
        witness = ""
        if not amended.passed:
            amended_failures += 1
        if not literal.clauses["iv"].passed:
            two_index_failures += 1
            witness = literal.clauses["iv"].witness
        print(
            f"{lat.name:10} {len(lat):>4} "
            f"{'pass' if amended.passed else 'FAIL':>8} "
            f"{'pass' if literal.passed else 'FAIL':>10}  {witness}"
        )
    print(
        f"\ntwo-index clause (iv) fails on {two_index_failures} of "
        f"{len(lattices)} lattices; the amended single-index form fails on "
        f"{amended_failures}"
    )
    return 1 if amended_failures else 0


if __name__ == "__main__":
    sys.exit(main())
