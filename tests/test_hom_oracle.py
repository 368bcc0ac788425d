"""The hom search over join-irreducibles against the worklist search it
replaced (hom_oracle.py) and the brute_force_homs scan, over whole families
of algebras in all four signatures; and the lattice structure it reads
(down masks, join-irreducibles, Birkhoff's distributivity test) against
direct definitions, and ``build_lattice`` against its oracle build, on
lattices that are distributive and on lattices that are not."""

import itertools
import random

import pytest

import hom_oracle
import lattice_oracle
from lattice_oracle import up_masks_of
from dualbench.algebra import (
    algebra_from_tables,
    brute_force_homs,
    enumerate_homs,
    make_bdl,
    make_lvl,
    product_algebra,
)
from dualbench.corpus import corpus_frames, corpus_lattices
from dualbench.kripke import upset_algebra
from dualbench.errors import LatticeError
from dualbench.lattice import FiniteLattice, build_lattice, chain_lattice, diamond_lattice

TRUTHS = (chain_lattice(2), chain_lattice(3), diamond_lattice())
# brute_force_homs would scan up to BRUTE_FORCE_LIMIT maps, several seconds
# for one pair; the scan here stops at this many, the worklist oracle at none
SCAN_LIMIT = 100_000


def mappings(homs):
    return [h.mapping for h in homs]


def agree(a, b, scan_limit=SCAN_LIMIT):
    """Assert that enumerate_homs(a, b) equals the worklist oracle, and the
    scan of every map wherever there are at most scan_limit; return the
    homs."""
    found = mappings(enumerate_homs(a, b))
    assert found == mappings(hom_oracle.enumerate_homs(a, b)), (a.name, b.name)
    if len(b) ** len(a) <= scan_limit:
        assert found == mappings(brute_force_homs(a, b)), (a.name, b.name)
    return found


def bounded_lattices(max_inner):
    """Every lattice of 3 to max_inner + 2 elements up to isomorphism, as a
    bottom and a top put around a corpus poset, whenever that is a lattice.
    Most are not distributive: the pentagon and the diamond M3 are here."""
    out = []
    for frame in corpus_frames(max_inner):
        n = len(frame) + 2
        names = ("0",) + frame.elements + ("1",)
        # element 0 is the bottom, n - 1 the top, i + 1 the frame's point i
        leq = tuple(
            tuple(
                i == 0 or j == n - 1 or (0 < i < n - 1 and 0 < j < n - 1 and frame.leq[i - 1][j - 1])
                for j in range(n)
            )
            for i in range(n)
        )

        def bound(x, y, below):
            common = [z for z in range(n) if below(z, x) and below(z, y)]
            best = [z for z in common if all(below(w, z) for w in common)]
            return best[0] if best else None

        meet = [[bound(x, y, lambda z, t: leq[z][t]) for y in range(n)] for x in range(n)]
        join = [[bound(x, y, lambda z, t: leq[t][z]) for y in range(n)] for x in range(n)]
        if any(None in row for row in meet + join):
            continue
        out.append(
            FiniteLattice(
                names,
                up_masks_of(leq),
                tuple(map(tuple, meet)),
                tuple(map(tuple, join)),
                0,
                n - 1,
                name=f"bounded({frame.name})",
            )
        )
    return out


def distributive_by_triples(lat):
    n = range(len(lat))
    meet, join = lat.meet, lat.join
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]] for x in n for y in n for z in n
    )


def test_corpus_lattices_into_the_truth_lattices():
    lattices = [lat for lat in corpus_lattices(7) if len(lat) > 1]
    for truth in TRUTHS:
        target = make_bdl(truth, truth)
        counts = [len(agree(make_bdl(lat, truth), target)) for lat in lattices]
        assert min(counts) >= 1 and max(counts) > len(truth)


def test_every_pair_of_small_corpus_lattices():
    two = chain_lattice(2)
    algebras = [make_bdl(lat, two) for lat in corpus_lattices(5) if len(lat) > 1]
    assert len(algebras) == 7
    counts = [len(agree(a, b)) for a, b in itertools.product(algebras, repeat=2)]
    # every one has a hom onto the sublattice {0, 1} of every other
    assert min(counts) >= 1 and max(counts) > 5


def test_up_set_algebras_over_small_frames():
    two = chain_lattice(2)
    algebras = [upset_algebra(two, frame) for frame in corpus_frames(3)]
    counts = [len(agree(a, b)) for a, b in itertools.product(algebras, repeat=2)]
    # the implication cuts some lattice homs: fewer homs than in bdl
    reducts = [make_bdl(alg.lattice, two) for alg in algebras]
    lattice_counts = [
        len(enumerate_homs(a, b)) for a, b in itertools.product(reducts, repeat=2)
    ]
    assert all(c <= lc for c, lc in zip(counts, lattice_counts))
    assert sum(counts) < sum(lattice_counts)


@pytest.mark.parametrize("truth", TRUTHS, ids=lambda t: t.name)
def test_lvl_over_l_and_l_squared(truth):
    base = make_lvl(truth)
    group = [base, product_algebra(base, base)]
    found = {(a.name, b.name): agree(a, b) for a, b in itertools.product(group, repeat=2)}
    # the identity of L, the two projections of L^2 and the diagonal of L
    assert found[base.name, base.name] == [tuple(range(len(truth)))]
    assert len(found[group[1].name, base.name]) == 2
    assert len(found[base.name, group[1].name]) == 1


def test_heyting_and_lvl_tables_broken_on_purpose():
    # homs of the lattice reduct that an arbitrary implication or truth-
    # constant table cuts, checked inside the search as in the oracle
    truth = chain_lattice(3)
    base = make_lvl(truth)
    flipped = tuple(tuple(reversed(row)) for row in base.implies)
    odd = algebra_from_tables(
        "lvl", truth, truth, implies=flipped, t_ops=base.t_ops, name="odd"
    )
    for a, b in itertools.product((base, odd), repeat=2):
        agree(a, b)
    lattices = [lat for lat in corpus_lattices(5) if len(lat) > 1]
    for lat in lattices:
        n = len(lat)
        # an implication that is the meet: kept by every lattice hom
        meets = algebra_from_tables("heyting", lat, truth, implies=lat.meet)
        joins = algebra_from_tables("heyting", lat, truth, implies=lat.join)
        for a, b in itertools.product((meets, joins), repeat=2):
            agree(a, b)
        constant = algebra_from_tables(
            "heyting", lat, truth, implies=((lat.top,) * n,) * n
        )
        agree(constant, constant)


def test_lattice_structure_against_definitions():
    lattices = bounded_lattices(5) + [lat for lat in corpus_lattices(7) if len(lat) > 1]
    kinds = set()
    for lat in lattices:
        n = len(lat)
        assert lat.down_masks == tuple(
            sum(1 << y for y in range(n) if lat.leq[y][x]) for x in range(n)
        )
        irreducibles = lat.join_irreducibles
        # not the bottom, and not the join of two elements strictly below
        expected = {
            x
            for x in range(n)
            if x != lat.bottom
            and not any(
                lat.join[y][z] == x for y in range(n) for z in range(n) if x not in (y, z)
            )
        }
        assert set(irreducibles) == expected, lat.name
        # a linear extension: nothing comes before an element below it
        for p, x in enumerate(irreducibles):
            assert not any(lat.leq[y][x] and y != x for y in irreducibles[p + 1 :])
        assert lat.is_distributive == distributive_by_triples(lat), lat.name
        kinds.add(lat.is_distributive)
    assert kinds == {True, False}


def test_non_distributive_lattices_against_the_scan():
    # the search is complete on any lattice, and each leaf is checked in
    # full when either side is not distributive
    sources = [
        algebra_from_tables("bdl", lat, lat, name=lat.name) for lat in bounded_lattices(4)
    ]
    targets = [a for a in sources if len(a) <= 5]
    five = [a for a in targets if len(a) == 5 and not a.lattice.is_distributive]
    assert len(five) == 2  # the pentagon and the diamond M3
    # the scan covers the sources of up to five elements
    counts = [
        len(agree(a, b, scan_limit=5**5)) for a, b in itertools.product(sources, targets)
    ]
    assert max(counts) > 5


def built(build, *args):
    """What a lattice build gives: the lattice, or its error's code, message
    and witness."""
    try:
        return build(*args)
    except LatticeError as err:
        return err.code, str(err), err.witness


def test_build_lattice_against_the_oracle_build():
    # every lattice of up to 7 elements, declared by its cover pairs in a
    # few shuffled orders: Birkhoff's test decides, and on a lattice that
    # is not distributive the scan finds the oracle's first triple
    rng = random.Random(17)
    verdicts = []
    for lat in bounded_lattices(5):
        covers = [
            (lat.elements[i], lat.elements[j])
            for i, mask in enumerate(lat.cover_masks)
            for j in range(len(lat))
            if mask >> j & 1
        ]
        for _ in range(4):
            elements = list(lat.elements)
            rng.shuffle(elements)
            rng.shuffle(covers)
            args = (elements, covers, "0", "1", lat.name)
            found = built(build_lattice, *args)
            assert found == built(lattice_oracle.build_lattice, *args), args
            verdicts.append(found if isinstance(found, tuple) else "distributive")
    codes = {v if v == "distributive" else v[0] for v in verdicts}
    assert codes == {"distributive", "not-distributive"}
    assert len({v for v in verdicts if v != "distributive"}) > 20
