import pytest
from hypothesis import given, settings, strategies as st

from dualbench.errors import BudgetExceeded, SpaceError
from dualbench.algebra import lvl_subalgebras
from dualbench.lattice import build_poset
from dualbench.topology import (
    TOPOLOGY_FAMILY_LIMIT,
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    generate_topology,
    is_pairwise_compact,
    is_pairwise_hausdorff,
    is_pairwise_zero_dimensional,
    verify_hspa_morphism,
    verify_hspa_object,
    verify_pbs_morphism,
    verify_pbs_object,
    verify_pspa_morphism,
    verify_pspa_object,
)
from topology_oracle import discrete_topology, indiscrete_topology


def ordered(points, basis, pairs, name="X"):
    order = build_poset(points, pairs, name=f"{name}-order")
    return OrderedSpace(
        tuple(points), generate_topology(len(points), basis), order, name=name
    )


def test_generate_topology_examples():
    t = generate_topology(2, [frozenset({0})])
    assert set(t.opens) == {frozenset(), frozenset({0}), frozenset({0, 1})}
    t = discrete_topology(2)
    assert len(t.opens) == 4
    t = generate_topology(3, [frozenset({0, 1}), frozenset({1, 2})])
    assert set(t.opens) == {
        frozenset(),
        frozenset({1}),
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_open_family_is_counted_without_building_it():
    # fifteen discrete points have 2**15 opens, more than the family limit:
    # they are counted, and building the family is refused
    topo = discrete_topology(15)
    assert topo.open_count == 2**15 > TOPOLOGY_FAMILY_LIMIT
    assert topo.is_open({3, 7}) and len(topo.minimal_opens) == 15
    with pytest.raises(BudgetExceeded):
        topo.opens


def test_generate_topology_rejects_stray_points():
    with pytest.raises(SpaceError):
        generate_topology(2, [frozenset({5})])


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_generate_topology_idempotent(data):
    n = data.draw(st.integers(1, 4))
    basis = data.draw(
        st.lists(
            st.frozensets(st.integers(0, n - 1), max_size=n), max_size=4
        )
    )
    topo = generate_topology(n, basis)
    again = generate_topology(n, topo.opens)
    assert topo.opens == again.opens


def test_hausdorff_one_point():
    space = BitopSpace(("x",), indiscrete_topology(1), indiscrete_topology(1))
    assert is_pairwise_hausdorff(space).passed


def test_hausdorff_two_readings():
    space = BitopSpace(
        ("x", "y"),
        generate_topology(2, [frozenset({0})]),
        generate_topology(2, [frozenset({1})]),
    )
    assert is_pairwise_hausdorff(space, mode="unordered").passed
    assert not is_pairwise_hausdorff(space, mode="ordered").passed
    disc = BitopSpace(("x", "y"), discrete_topology(2), discrete_topology(2))
    assert is_pairwise_hausdorff(disc, mode="unordered").passed
    assert is_pairwise_hausdorff(disc, mode="ordered").passed


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_pairwise_compact_and_consistency(data):
    n = data.draw(st.integers(1, 4))
    b1 = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=3))
    b2 = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=3))
    space = BitopSpace(
        tuple(f"p{i}" for i in range(n)),
        generate_topology(n, b1),
        generate_topology(n, b2),
    )
    assert is_pairwise_compact(space).passed


def test_zero_dimensional_examples(chain3):
    disc = discrete_topology(3)
    space = BitopSpace(tuple(chain3.elements), disc, disc)
    assert is_pairwise_zero_dimensional(space).passed
    bad = BitopSpace(
        ("x", "y"),
        generate_topology(2, [frozenset({0})]),
        indiscrete_topology(2),
    )
    res = is_pairwise_zero_dimensional(bad)
    assert not res.passed and "{x}" in res.witness
    point = BitopSpace(("x",), indiscrete_topology(1), indiscrete_topology(1))
    assert is_pairwise_zero_dimensional(point).passed


def canonical_pbs(truth):
    """The truth lattice with both topologies discrete and the identity
    assignment on subalgebras."""
    disc = discrete_topology(len(truth))
    space = BitopSpace(tuple(truth.elements), disc, disc, name=f"{truth.name}-as-space")
    subs = lvl_subalgebras(truth)
    return PbsObject(space, AlphaAssignment(truth, subs, subs))


def test_verify_pbs_canonical_object(chain2, chain3, b2):
    for truth in (chain2, chain3, b2):
        checks = verify_pbs_object(canonical_pbs(truth))
        assert all(r.passed for r in checks.values()), {
            k: r.witness for k, r in checks.items() if not r.passed
        }


def test_verify_pbs_intersection_violation(chain4):
    # the four-chain has two incomparable proper subalgebras whose
    # intersection law a doctored assignment can break
    subs = lvl_subalgebras(chain4)
    assert len(subs) == 4
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc)
    images = []
    for s in subs:
        if len(s) == 2:
            images.append(frozenset({0}))
        elif len(s) == 4:
            images.append(frozenset({0, 1}))
        elif chain4.index("c1") in s:
            images.append(frozenset({0}))
        else:
            images.append(frozenset({1}))
    obj = PbsObject(space, AlphaAssignment(chain4, tuple(subs), tuple(images)))
    checks = verify_pbs_object(obj)
    assert not checks["alpha_intersections"].passed


def test_verify_pbs_alpha_index_mismatch(chain3):
    disc = discrete_topology(3)
    space = BitopSpace(tuple(chain3.elements), disc, disc)
    alpha = AlphaAssignment(
        chain3, (frozenset({0, 2}),), (frozenset({0, 1, 2}),)
    )
    with pytest.raises(SpaceError) as err:
        verify_pbs_object(PbsObject(space, alpha))
    assert err.value.code == "alpha-mismatch"


def test_an_assignment_naming_a_subalgebra_twice_is_refused(chain2):
    # the image index never chooses between two entries for one key
    full = frozenset({0, 1})
    alpha = AlphaAssignment(chain2, (full, full), (frozenset({0}), frozenset()))
    with pytest.raises(SpaceError) as err:
        alpha.image_masks
    assert err.value.code == "alpha-mismatch"


def test_pspa_examples():
    good = ordered(("w0", "w1"), [frozenset({0}), frozenset({1})], [("w0", "w1")])
    assert verify_pspa_object(good).passed
    anti = ordered(("p", "q"), [frozenset({0}), frozenset({1})], [])
    assert verify_pspa_object(anti).passed
    indiscrete = ordered(("w0", "w1"), [], [("w0", "w1")])
    res = verify_pspa_object(indiscrete)
    assert not res.passed
    assert "w1" in res.witness and "w0" in res.witness


def test_hspa_examples():
    good = ordered(("w0", "w1"), [frozenset({0}), frozenset({1})], [("w0", "w1")])
    assert verify_hspa_object(good).passed
    indiscrete = ordered(("w0", "w1"), [], [("w0", "w1")])
    with pytest.raises(SpaceError) as err:
        verify_hspa_object(indiscrete)
    assert err.value.code == "pspa-invalid"


def test_morphism_examples():
    two = ordered(("w0", "w1"), [frozenset({0}), frozenset({1})], [("w0", "w1")])
    ident = (0, 1)
    checks = verify_pspa_morphism(ident, two, two)
    assert all(r.passed for r in checks.values())
    const_top = (1, 1)
    checks = verify_pspa_morphism(const_top, two, two)
    assert all(r.passed for r in checks.values())
    # the constant onto the top satisfies the back condition (the point
    # itself witnesses it); the constant onto the bottom does not
    checks = verify_hspa_morphism(const_top, two, two)
    assert all(r.passed for r in checks.values())
    const_bot = (0, 0)
    checks = verify_hspa_morphism(const_bot, two, two)
    assert checks["order_preserving"].passed and checks["continuous"].passed
    assert not checks["back_condition"].passed
    assert "w0" in checks["back_condition"].witness


def test_morphism_continuity_failure():
    src = ordered(("a", "b"), [], [])  # indiscrete antichain
    dst = ordered(("c", "d"), [frozenset({0}), frozenset({1})], [])
    checks = verify_pspa_morphism((0, 1), src, dst)
    assert not checks["continuous"].passed


def test_morphism_composition_and_identity(chain3):
    spaces = [
        ordered(("w0", "w1"), [frozenset({0}), frozenset({1})], [("w0", "w1")]),
        ordered(("p", "q"), [frozenset({0}), frozenset({1})], []),
    ]
    maps = [
        ((0, 1), spaces[0], spaces[1]),
        ((1, 0), spaces[1], spaces[0]),
    ]
    for mapping, src, dst in maps:
        first = verify_pspa_morphism(mapping, src, dst)
        if not all(r.passed for r in first.values()):
            continue
        for mapping2, src2, dst2 in maps:
            if src2 is not dst:
                continue
            comp = tuple(mapping2[v] for v in mapping)
            checks = verify_pspa_morphism(comp, src, dst2)
            assert all(r.passed for r in checks.values())


def test_pbs_morphism_alpha_preservation(chain2):
    obj = canonical_pbs(chain2)
    checks = verify_pbs_morphism((0, 1), obj, obj)
    assert all(r.passed for r in checks.values())
    swap = verify_pbs_morphism((1, 0), obj, obj)
    assert all(r.passed for r in swap.values())


def test_discrete_poset_always_pspa(small_lattices):
    # clopen up-sets of a discrete space are all up-sets, and the principal
    # up-set of x separates x from anything not above it
    for lat in small_lattices:
        space = OrderedSpace(
            tuple(lat.elements),
            discrete_topology(len(lat)),
            build_poset(
                lat.elements,
                [
                    (lat.elements[i], lat.elements[j])
                    for i in range(len(lat))
                    for j in range(len(lat))
                    if lat.leq[i][j]
                ],
            ),
            name=f"{lat.name}-disc",
        )
        assert verify_pspa_object(space).passed
        assert verify_hspa_object(space).passed
