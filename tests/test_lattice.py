import ast
import functools
import gc
import os
import pathlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import lattice_oracle
from dualbench import duality, lattice
from dualbench.algebra import (
    SIGNATURES,
    enumerate_subalgebras,
    lvl_subalgebras,
    make_bdl,
    make_heyting,
    make_lvl,
)
from dualbench.corpus import corpus_frames, corpus_lattices, corpus_run
from dualbench.documents import build_lattice_from, parse_documents
from dualbench.errors import LatticeError
from dualbench.kripke import upset_algebra
from dualbench.lattice import (
    FiniteLattice,
    Poset,
    build_lattice,
    build_poset,
    chain_lattice,
    heyting_implies,
    heyting_table,
    is_prime_ideal,
    mask_members,
    prime_filters,
    prime_ideals,
    separating_prime_ideal,
)


def brute_glb(leq, n, i, j):
    lower = [k for k in range(n) if leq(k, i) and leq(k, j)]
    for g in lower:
        if all(leq(k, g) for k in lower):
            return g
    return None


def test_two_chain():
    lat = build_lattice(("0", "1"), [("0", "1")], "0", "1")
    assert lat.meet[0][1] == 0 and lat.join[0][1] == 1
    assert lat.bottom == 0 and lat.top == 1


def test_three_chain_min_max(chain3):
    for i in range(3):
        for j in range(3):
            assert chain3.meet[i][j] == min(i, j)
            assert chain3.join[i][j] == max(i, j)


def test_pentagon_not_distributive():
    # oracle: brute-force scan of the modular law over all triples finds
    # (c, a, b) first in ascending element order
    with pytest.raises(LatticeError) as err:
        build_lattice(
            ("0", "a", "c", "b", "1"),
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
            "0",
            "1",
        )
    assert err.value.code == "not-distributive"
    assert err.value.witness == ("c", "a", "b")


def test_missing_join_witness():
    with pytest.raises(LatticeError) as err:
        build_lattice(
            ("0", "a", "b", "c", "d", "1"),
            [
                ("0", "a"),
                ("0", "b"),
                ("a", "c"),
                ("a", "d"),
                ("b", "c"),
                ("b", "d"),
                ("c", "1"),
                ("d", "1"),
            ],
            "0",
            "1",
        )
    assert err.value.code == "missing-join"
    assert err.value.witness == ("a", "b")


def test_cycle_is_not_a_poset():
    with pytest.raises(LatticeError) as err:
        build_poset(("x", "y"), [("x", "y"), ("y", "x")])
    assert err.value.code == "not-a-poset"


def test_wrong_bounds():
    with pytest.raises(LatticeError) as err:
        build_lattice(("0", "a", "1"), [("0", "a"), ("a", "1")], "a", "1")
    assert err.value.code == "wrong-bounds"


def test_unknown_element_in_pairs():
    with pytest.raises(LatticeError) as err:
        build_poset(("x",), [("x", "zz")])
    assert err.value.code == "unknown-element"


def test_heyting_examples(chain3, b2):
    # oracle: enumerate every l with a /\ l <= b and join them by hand
    m, one = chain3.index("m"), chain3.index("1")
    assert heyting_implies(chain3, one, m) == m
    a, b = b2.index("a"), b2.index("b")
    qualifying = [
        l for l in range(4) if b2.leq[b2.meet[a][l]][b]
    ]
    assert sorted(qualifying) == [b2.index("0"), b]
    assert heyting_implies(b2, a, b) == b


def test_heyting_self_is_top(small_lattices):
    for lat in small_lattices:
        for x in range(len(lat)):
            assert heyting_implies(lat, x, x) == lat.top


@settings(deadline=None)
@given(data=st.data())
def test_residuation(small_lattices, data):
    lat = data.draw(st.sampled_from(small_lattices))
    n = len(lat)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    imp = heyting_implies(lat, a, b)
    assert lat.leq[lat.meet[a][c]][b] == lat.leq[c][imp]


def test_leq_iff_implies_top(small_lattices):
    for lat in small_lattices:
        for a in range(len(lat)):
            for b in range(len(lat)):
                assert lat.leq[a][b] == (heyting_implies(lat, a, b) == lat.top)


def brute_prime_filters(lat):
    """Independent scan: all subsets, filter laws checked from scratch."""
    n = len(lat)
    out = []
    for mask in range(1, 1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if len(s) == n:
            continue
        if not all(lat.leq[i][j] <= (j in s) for i in s for j in range(n)):
            continue
        if not all(lat.meet[a][b] in s for a in s for b in s):
            continue
        if any(
            lat.join[a][b] in s and a not in s and b not in s
            for a in range(n)
            for b in range(n)
        ):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_prime_filter_examples(chain2, chain3, b2):
    assert prime_filters(chain2) == (frozenset({1}),)
    assert [chain3.names(f) for f in prime_filters(chain3)] == [("1",), ("m", "1")]
    assert [b2.names(f) for f in prime_filters(b2)] == [("a", "1"), ("b", "1")]


def test_prime_filters_are_found_once_per_lattice(small_lattices):
    # separating_prime_ideal is asked about every pair of a lattice, so the
    # filter pass runs once and every later call reads the same tuple
    for lat in small_lattices:
        assert prime_filters(lat) is prime_filters(lat) is lat.prime_filters
        assert prime_ideals(lat) is prime_ideals(lat) is lat.prime_ideals
        full = frozenset(range(len(lat)))
        assert prime_ideals(lat) == tuple(full - f for f in brute_prime_filters(lat))


def test_prime_filters_against_oracle(small_lattices):
    for lat in small_lattices:
        assert list(prime_filters(lat)) == brute_prime_filters(lat)


def raw_lattice(elements, pairs, name):
    """A FiniteLattice built from its order with brute-force meet and join
    tables, bypassing the distributivity check of build_lattice."""
    poset = build_poset(elements, pairs, name=name)
    n = len(poset)
    below = lambda i, j: poset.leq[i][j]
    above = lambda i, j: poset.leq[j][i]
    return FiniteLattice(
        poset.elements,
        poset.up_masks,
        tuple(tuple(brute_glb(below, n, i, j) for j in range(n)) for i in range(n)),
        tuple(tuple(brute_glb(above, n, i, j) for j in range(n)) for i in range(n)),
        0,
        n - 1,
        name=name,
    )


def test_prime_filters_against_oracle_on_the_corpus():
    for lat in corpus_lattices(7):
        assert list(prime_filters(lat)) == brute_prime_filters(lat), lat.name


def test_prime_filters_of_non_distributive_lattices():
    # every filter of a finite lattice is principal, and the principal
    # filter of a is prime exactly when a is join-prime, distributive or not
    pentagon = raw_lattice(
        ("0", "a", "c", "b", "1"),
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        "pentagon",
    )
    m3 = raw_lattice(
        ("0", "a", "b", "c", "1"),
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
        "m3",
    )
    assert [pentagon.names(f) for f in prime_filters(pentagon)] == [
        ("b", "1"),
        ("a", "c", "1"),
    ]
    assert prime_filters(m3) == ()
    for lat in (pentagon, m3):
        assert list(prime_filters(lat)) == brute_prime_filters(lat)


def scan_heyting_table(lat):
    """The definitional relative pseudocomplement of every pair."""
    n = len(lat)
    return tuple(tuple(heyting_implies(lat, a, b) for b in range(n)) for a in range(n))


def test_heyting_table_against_the_scan():
    # the join-irreducible masks on distributive lattices, the scan itself
    # on the two lattices that are not
    chain2 = chain_lattice(2)
    lattices = list(corpus_lattices(12))
    lattices += [upset_algebra(chain2, frame).lattice for frame in corpus_frames(5)]
    lattices += [raw_lattice(*PENTAGON, "pentagon"), raw_lattice(*M3, "m3")]
    assert len(lattices) == 341 + 87 + 2
    for lat in lattices:
        assert heyting_table(lat) == scan_heyting_table(lat), lat.name
    assert [lat.is_distributive for lat in lattices[-2:]] == [False, False]


def test_heyting_table_is_built_once_per_lattice(small_lattices):
    for lat in small_lattices:
        assert heyting_table(lat) is heyting_table(lat) is lat.heyting_table
    fresh = chain_lattice(5)
    assert "heyting_table" not in vars(fresh)
    table = heyting_table(fresh)
    assert vars(fresh)["heyting_table"] is table


def test_heyting_table_keeps_no_lattice_alive():
    lat = chain_lattice(5)
    heyting_table(lat)
    ref = weakref.ref(lat)
    del lat
    gc.collect()
    assert ref() is None


def test_prime_filters_of_a_long_chain():
    # beyond the reach of the 2**n oracle scan
    lat = build_lattice(
        tuple(f"c{i}" for i in range(40)),
        [(f"c{i}", f"c{i + 1}") for i in range(39)],
        "c0",
        "c39",
    )
    assert prime_filters(lat) == tuple(frozenset(range(i, 40)) for i in range(39, 0, -1))


def test_filter_ideal_complement_bijection(small_lattices):
    for lat in small_lattices:
        filters, ideals = prime_filters(lat), prime_ideals(lat)
        assert len(filters) == len(ideals)
        full = frozenset(range(len(lat)))
        for f, i in zip(filters, ideals):
            assert full - f == i
            assert is_prime_ideal(lat, i)


def test_separating_examples(chain3, b2, chain2):
    ideal, flag = separating_prime_ideal(chain3, 0, chain3.index("m"))
    assert chain3.names(ideal) == ("0",) and flag == "contains-x"
    ideal, flag = separating_prime_ideal(b2, b2.index("a"), b2.index("b"))
    assert b2.names(ideal) == ("0", "b") and flag == "contains-y"
    with pytest.raises(LatticeError) as err:
        separating_prime_ideal(chain2, 0, 0)
    assert err.value.code == "equal-elements"


def test_separation_reverifies(small_lattices):
    for lat in small_lattices:
        for x in range(len(lat)):
            for y in range(x + 1, len(lat)):
                ideal, flag = separating_prime_ideal(lat, x, y)
                assert is_prime_ideal(lat, ideal)
                assert (x in ideal) != (y in ideal)
                assert (flag == "contains-x") == (x in ideal)


# the algebra of each signature on a lattice over itself
ON_ITSELF = {
    "bdl": lambda lat: make_bdl(lat, lat),
    "heyting": lambda lat: make_heyting(lat, lat),
    "lvl": make_lvl,
}


def brute_closed_subsets(lat, signature):
    """Oracle: direct power-set scan for closure, small carriers only."""
    n = len(lat)
    tables = [lat.meet, lat.join]
    unaries = []
    if signature in ("heyting", "lvl"):
        tables = tables + [heyting_table(lat)]
    if signature == "lvl":
        unaries = [
            [lat.top if x == l else lat.bottom for x in range(n)] for l in range(n)
        ]
    out = []
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if lat.bottom not in s or lat.top not in s:
            continue
        if any(t[i][j] not in s for t in tables for i in s for j in s):
            continue
        if any(u[i] not in s for u in unaries for i in s):
            continue
        out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_subalgebra_examples(chain2, chain3, b2):
    assert enumerate_subalgebras(make_heyting(chain2, chain2)) == (frozenset({0, 1}),)
    assert [chain3.names(s) for s in enumerate_subalgebras(make_lvl(chain3))] == [
        ("0", "1"),
        ("0", "m", "1"),
    ]
    assert [b2.names(s) for s in enumerate_subalgebras(make_bdl(b2, b2))] == [
        ("0", "1"),
        ("0", "a", "1"),
        ("0", "b", "1"),
        ("0", "a", "b", "1"),
    ]


def test_subalgebras_against_oracle(small_lattices):
    # and every corpus lattice up to 10 elements, with families of up to
    # several hundred subalgebras
    for lat in (*small_lattices, *corpus_lattices(10)):
        for signature, algebra_on in ON_ITSELF.items():
            assert list(enumerate_subalgebras(algebra_on(lat))) == brute_closed_subsets(
                lat, signature
            )


def test_lvl_subalgebra_family_is_found_once_per_lattice(chain2, chain3, b2):
    for lat in (*corpus_lattices(7), chain2, chain3, b2):
        family = lvl_subalgebras(lat)
        assert family == enumerate_subalgebras(make_lvl(lat))
        assert lvl_subalgebras(lat) is family
        assert lat.derived["lvl_subalgebras"] is family


def test_upset_and_downset(chain3, b2):
    m = chain3.index("m")
    assert chain3.names(mask_members(chain3.up_masks[m])) == ("m", "1")
    two = build_poset(("w0", "w1"), [("w0", "w1")])
    assert two.down_masks[1] == 0b11
    anti = build_poset(("p", "q"), [])
    assert anti.down_masks[0] == 0b01


def assert_order_views_agree(poset):
    n = len(poset)
    up, down, leq = poset.up_masks, poset.down_masks, poset.leq
    assert len(up) == len(down) == len(leq) == n, poset.name
    for i in range(n):
        assert len(leq[i]) == n and up[i] >> n == down[i] >> n == 0, poset.name
        for j in range(n):
            assert leq[i][j] is bool(up[i] >> j & 1) is bool(down[j] >> i & 1), (
                poset.name,
                i,
                j,
            )


def test_order_views_agree(monkeypatch):
    # the bool matrix and the down-sets are read off the up-sets: every
    # corpus lattice and frame, and every hom order of a corpus run
    orders = [*corpus_lattices(8), *corpus_frames(4)]
    build = duality._ordered_dual

    def spy(*args):
        out = build(*args)
        orders.append(out[0].order)
        return out

    monkeypatch.setattr(duality, "_ordered_dual", spy)
    corpus_run(7, 4, 0)
    assert len(orders) > len(corpus_lattices(8)) + len(corpus_frames(4))
    for poset in orders:
        assert_order_views_agree(poset)


def outcome(build, *args, **kwargs):
    """The built structure, or the code, message and witness of the error."""
    try:
        return build(*args, **kwargs)
    except LatticeError as exc:
        return exc.code, str(exc), exc.witness


def assert_matches_oracle(elements, pairs, bottom, top, name="lattice"):
    args = (elements, pairs, bottom, top)
    got = outcome(build_lattice, *args, name=name)
    assert got == outcome(lattice_oracle.build_lattice, *args, name=name)
    assert outcome(build_poset, elements, pairs, name=name) == outcome(
        lattice_oracle.build_poset, elements, pairs, name=name
    )
    return got


@st.composite
def lattice_inputs(draw):
    """Element lists in any declaration order, pairs that may close a cycle,
    and declared bounds that may be wrong. The bounded shapes put the first
    and last element below and above everything, and the layered one
    relates two middle layers at random, so many draws are lattices or
    miss a meet or a join."""
    shape = draw(st.sampled_from(("any", "acyclic", "bounded", "layered")))
    # two layers of at least two elements each, between the bounds
    n = draw(st.integers(6, 8) if shape == "layered" else st.integers(1, 7))
    names = [f"e{i}" for i in range(n)]
    index = st.integers(0, n - 1)
    if shape == "layered":
        cut = draw(st.integers(2, n - 4))
        block = [(low, high) for low in range(1, cut + 1) for high in range(cut + 1, n - 1)]
        # the drawn pairs are kept, or, for a dense relation, left out
        drawn = set(draw(st.lists(st.sampled_from(block))))
        dense = draw(st.booleans())
        pairs = [pair for pair in block if (pair in drawn) != dense]
    else:
        pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    if shape != "any":
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    if shape in ("bounded", "layered"):
        pairs += [(0, i) for i in range(n)] + [(i, n - 1) for i in range(n)]
        bottom, top = names[0], names[-1]
    else:
        bottom, top = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    elements = draw(st.permutations(names))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        elements.append(elements[0])
    return elements, [(names[a], names[b]) for a, b in pairs], bottom, top


@settings(max_examples=400, deadline=None)
@given(lattice_inputs())
def test_build_lattice_matches_the_oracle(inputs):
    assert_matches_oracle(*inputs)


PENTAGON = (("0", "a", "c", "b", "1"), [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
M3 = (("0", "a", "b", "c", "1"), [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])
# in the first failing (x, y) row of M4, two z break distributivity
M4 = (("0", "a", "b", "c", "d", "1"), [("0", x) for x in "abcd"] + [(x, "1") for x in "abcd"])
NO_JOIN = (
    ("0", "a", "b", "c", "d", "1"),
    [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
)


@pytest.mark.parametrize(
    "args, code",
    [
        pytest.param(PENTAGON + ("0", "1"), "not-distributive", id="pentagon"),
        pytest.param(
            (PENTAGON[0][::-1], PENTAGON[1], "0", "1"), "not-distributive", id="pentagon-reversed"
        ),
        pytest.param(M3 + ("0", "1"), "not-distributive", id="m3"),
        pytest.param(M4 + ("0", "1"), "not-distributive", id="m4"),
        pytest.param(NO_JOIN + ("0", "1"), "missing-join", id="missing-join"),
        # the same order upside down has a pair without a meet
        pytest.param(
            (NO_JOIN[0], [(b, a) for a, b in NO_JOIN[1]], "1", "0"), "missing-meet", id="missing-meet"
        ),
        pytest.param(PENTAGON + ("a", "1"), "wrong-bounds", id="wrong-bottom"),
        pytest.param(PENTAGON + ("0", "c"), "wrong-bounds", id="wrong-top"),
        pytest.param(PENTAGON + ("0", "zz"), "unknown-element", id="unknown-top"),
        pytest.param(
            (("x", "y"), [("x", "y"), ("y", "x")], "x", "y"), "not-a-poset", id="cycle"
        ),
        # two cycles, a-d and b-c: the first pair by i is (a, d), the first
        # pair by j is (b, c), and the witness is the first by i
        pytest.param(
            (("a", "b", "c", "d"), [("a", "d"), ("d", "a"), ("b", "c"), ("c", "b")], "a", "d"),
            "not-a-poset",
            id="two-cycles",
        ),
        pytest.param(
            (("x", "y", "x"), [("x", "y")], "x", "y"), "duplicate-element", id="duplicate"
        ),
    ],
)
def test_build_lattice_errors_match_the_oracle(args, code):
    assert assert_matches_oracle(*args)[0] == code

def test_corpus_lattices_rebuilt_from_documents_match_the_oracle():
    for lat in corpus_lattices(8):
        (doc,) = parse_documents(lattice_oracle.lattice_text(lat))
        pairs = [tuple(tok.split("<=")) for tok in doc.get("leq").split()]
        rebuilt = build_lattice_from(doc)
        assert rebuilt == lattice_oracle.build_lattice(
            doc.get("elements").split(), pairs, doc.get("bottom"), doc.get("top"), name=doc.name
        ), lat.name
        assert (rebuilt.meet, rebuilt.join) == (lat.meet, lat.join), lat.name


def test_boolean_lattice_and_long_chain_match_the_oracle():
    cube = [f"s{m}" for m in range(64)]
    covers = [(cube[m], cube[m | 1 << b]) for m in range(64) for b in range(6) if not m >> b & 1]
    chain = [f"c{i}" for i in range(40)]
    for elements, pairs in ((cube, covers), (chain, list(zip(chain, chain[1:])))):
        lat = assert_matches_oracle(elements, pairs, elements[0], elements[-1])
        assert isinstance(lat, FiniteLattice) and len(lat) == len(elements)


def test_build_lattice_transposes_the_up_sets_once(monkeypatch):
    # the lattice is handed the down-sets of the poset it is built from, so
    # its distributivity test does not transpose the same up-sets again
    calls = []
    transpose = Poset.down_masks.func

    def spy(poset):
        calls.append(poset.name)
        return transpose(poset)

    counted = functools.cached_property(spy)
    counted.__set_name__(Poset, "down_masks")
    monkeypatch.setattr(Poset, "down_masks", counted)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "sample_docs", "b2.doc")
    with open(path, encoding="utf-8") as fh:
        (doc,) = parse_documents(fh.read())
    lattice = build_lattice_from(doc)
    assert lattice.is_distributive
    n, leq = len(lattice), lattice.leq
    assert lattice.down_masks == tuple(
        sum(1 << y for y in range(n) if leq[y][x]) for x in range(n)
    )
    assert calls == ["b2"]


def _signature_knowledge(tree):
    """Lines, in order, of each import from ``dualbench.algebra`` (a
    relative import is read from inside the package) and of each signature
    name written as a string constant."""

    def from_algebra(name):
        return name == "dualbench.algebra" or name.startswith("dualbench.algebra.")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dualbench" if node.level else "", node.module]))
            hit = any(
                from_algebra(name)
                for name in (module, *(f"{module}.{alias.name}" for alias in node.names))
            )
        elif isinstance(node, ast.Import):
            hit = any(from_algebra(alias.name) for alias in node.names)
        else:
            hit = isinstance(node, ast.Constant) and node.value in SIGNATURES
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_lattice_module_knows_no_signature():
    # the operations of a signature are defined once, on the algebra
    # (algebra._op_tables); lattice.py builds lattices and nothing more
    tree = ast.parse(pathlib.Path(lattice.__file__).read_text(encoding="utf-8"))
    assert _signature_knowledge(tree) == []
    # and the check does see each kind of import and constant
    sample = ast.parse(
        "from .algebra import make_lvl\nfrom . import algebra\n"
        "import dualbench.algebra\nfrom dualbench.algebra import SIGNATURES\n"
        "from dualbench import algebra as a\n"
        "def f(signature):\n    return signature in ('bdl', 'heyting')\n"
        "x = 'lvl' if True else 'isp_i'\n"
        "from .algebraic import y\nfrom .lattice import lvl\nz = 'lvl_dual'\n"
    )
    assert _signature_knowledge(sample) == [1, 2, 3, 4, 5, 7, 7, 8, 8]
