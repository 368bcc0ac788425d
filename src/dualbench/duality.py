"""Functor constructions between algebras and spaces, their natural maps,
and instance-level verification of every duality round trip.

Three modes are supported, matching the three dual categories:

* ``pbs``  - lattice-valued algebras against bitopological spaces with a
             subalgebra assignment,
* ``pspa`` - bounded-lattice algebras against ordered Stone spaces,
* ``hspa`` - implication algebras against ordered Stone spaces with the
             clopen-down-closure law.

Every natural map is materialized in both directions and each verdict
carries a concrete witness on failure; nothing is inferred from a cited
result.

One verification builds the same dual or map algebra several times: the
algebra-side round trip dualizes the algebra its caller just dualized, the
space-side round trip rebuilds the map algebra the algebra-side one built,
and every dualized hom re-dualizes both of its ends. Inside a
``verification_scope`` the three dualizations and three reconstructions
are cached on the identity of their input (plus any further argument such
as the truth lattice), so each is built once. The scope is opened around
one top-level verification only: each corpus instance, the functoriality
suite and each CLI command but ``corpus-run`` (whose instances open their
own). The cache holds a strong reference to every
key object, so an ``id`` is never reused while the scope is open, and it is
emptied when the outermost scope exits. Nothing outlives one top-level
verification, because peak memory is a cost users pay too: a process-wide
cache would keep every dual of a corpus run alive to the end, and a cache
stored on each object would form reference cycles (algebra, cache, homs,
algebra) that only the cycle collector reclaims, late. Outside a scope
nothing is cached.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass, field

from .algebra import (
    Homomorphism,
    compose_homs,
    enumerate_homs,
    hom_order_matrix,
    identity_hom,
    is_homomorphism,
    make_bdl,
    make_lvl,
    relativized_implication,
    vector_algebra,
    vector_name,
)
from .errors import AlgebraError, BudgetExceeded
from .lattice import (
    Poset,
    _is_prime_filter,
    enumerate_subalgebras,
    prime_filters,
    prime_ideals,
)
from .reporting import PASS, DualityReport, failed
from .topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    generate_topology,
    non_open_image,
    subset_mask,
    verify_hspa_morphism,
    verify_pbs_morphism,
    verify_pspa_morphism,
)

MAP_ENUM_LIMIT = 200_000  # maps kept by one map-algebra search

MODES = ("pbs", "pspa", "hspa")

# (function, id of its first argument, further arguments) -> (first
# argument, result), while a verification scope is open
_SCOPE_CACHE = contextvars.ContextVar("dualbench_scope_cache", default=None)


@contextlib.contextmanager
def verification_scope():
    """Cache duals and map algebras for the duration of one top-level
    verification. A nested scope shares the outer cache, which is emptied
    only when the outermost scope exits."""
    if _SCOPE_CACHE.get() is not None:
        yield
        return
    cache = {}
    token = _SCOPE_CACHE.set(cache)
    try:
        yield
    finally:
        _SCOPE_CACHE.reset(token)
        cache.clear()


def _scoped(fn):
    """Reuse fn's result for the same first-argument object (and equal
    further arguments) inside a verification scope."""

    @functools.wraps(fn)
    def cached(obj, *rest):
        cache = _SCOPE_CACHE.get()
        if cache is None:
            return fn(obj, *rest)
        key = (fn, id(obj), rest)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = (obj, fn(obj, *rest))
        return entry[1]

    return cached


def _point_names(k):
    return tuple(f"h{i}" for i in range(k))


def _basic_open(homs, a, top):
    return frozenset(i for i, h in enumerate(homs) if h.mapping[a] == top)


# ---------------------------------------------------------------------------
# lattice-valued algebras <-> bitopological spaces (pbs mode)
# ---------------------------------------------------------------------------


@_scoped
def _lvl_dual(algebra):
    if algebra.signature != "lvl":
        raise AlgebraError(
            "signature-mismatch", f"the bitopological dual needs an lvl algebra"
        )
    truth = algebra.truth
    homs = enumerate_homs(algebra, make_lvl(truth))
    k = len(homs)
    names = _point_names(k)
    n = len(algebra)
    bot = algebra.lattice.bottom
    t_top = algebra.t_ops[truth.top]
    basis1 = [_basic_open(homs, a, truth.top) for a in range(n)]
    basis2 = [
        _basic_open(homs, algebra.implies[t_top[a]][bot], truth.top) for a in range(n)
    ]
    space = BitopSpace(
        names,
        generate_topology(k, basis1),
        generate_topology(k, basis2),
        name=f"G({algebra.name})",
    )
    subs = enumerate_subalgebras(truth, "lvl")
    images = tuple(
        frozenset(i for i, h in enumerate(homs) if set(h.mapping) <= s) for s in subs
    )
    return PbsObject(space, AlphaAssignment(truth, subs, images)), homs


def lvl_dual(algebra):
    """Dual bitopological space of a lattice-valued algebra: points are the
    homs into the truth algebra, the first topology is generated by the sets
    of homs sending an element to the top, the second by their complements
    (expressed through the truth-constant operators), and the assignment
    sends each subalgebra to the homs landing inside it."""
    return _lvl_dual(algebra)[0]


def check_second_topology_inclusion(obj):
    """Empirical check of the claim that the second dual topology is
    contained in the first; reported rather than assumed. The opens of the
    first topology are closed under unions, so the minimal opens of the
    second decide it."""
    for o in obj.space.topo2.minimal_opens:
        if not obj.space.topo1.is_open(o):
            return failed(
                f"{obj.space.subset_name(o)} is open in the second topology only"
            )
    return PASS


def _map_vectors(allowed, topologies, leq_p, leq_t, limit, what):
    """Every map from the points into the truth values, as vectors in
    lexicographic order, that sends point i into the bits of ``allowed[i]``,
    is continuous for each topology into the discrete truth values and, when
    ``leq_p`` is given, preserves the order from ``leq_p`` to ``leq_t``.

    A map into a discrete space is continuous exactly when it is constant
    on every minimal open. So each point must take the value of every
    earlier point that lies in its minimal open or has it in its own, and a
    value at least (at most) that of every earlier point below (above) it.
    The backtracking search keeps the values these constraints leave for
    each point as a bitmask and builds only the maps it keeps; it raises
    BudgetExceeded once more than ``limit`` are kept."""
    n = len(allowed)
    nt = len(leq_t)
    same = tuple(1 << v for v in range(nt))
    up = tuple(sum(1 << w for w in range(nt) if leq_t[v][w]) for v in range(nt))
    down = tuple(sum(1 << w for w in range(nt) if leq_t[w][v]) for v in range(nt))
    tied = [0] * n
    for topo in topologies:
        for i in range(n):
            tied[i] |= topo.minopen[i] | topo.point_closure[i]
    constraints = []
    for i in range(n):
        row = []
        for j in range(i):
            if tied[i] >> j & 1:
                row.append((j, same))
            elif leq_p is not None and leq_p[j][i]:
                row.append((j, up))
            elif leq_p is not None and leq_p[i][j]:
                row.append((j, down))
        constraints.append(row)
    out = []
    vec = [0] * n

    def rec(i):
        if i == n:
            if len(out) >= limit:
                raise BudgetExceeded(f"more than {limit} {what}")
            out.append(tuple(vec))
            return
        mask = allowed[i]
        for j, table in constraints[i]:
            mask &= table[vec[j]]
        while mask:
            low = mask & -mask
            vec[i] = low.bit_length() - 1
            rec(i + 1)
            mask ^= low

    rec(0)
    return tuple(out)


def _pbs_map_vectors(obj, limit=MAP_ENUM_LIMIT):
    """Carriers of the function algebra: maps from points to truth values
    that are continuous for both topologies (discrete codomain) and respect
    the subalgebra assignment."""
    truth = obj.alpha.truth
    allowed = [(1 << len(truth)) - 1] * len(obj.space.points)
    for s, img in zip(obj.alpha.subalgebras, obj.alpha.images):
        for p in img:
            allowed[p] &= subset_mask(s)
    return _map_vectors(
        allowed,
        (obj.space.topo1, obj.space.topo2),
        None,
        truth.leq,
        limit,
        f"continuous maps over {obj.name!r}",
    )


@_scoped
def _lvl_reconstruct(obj):
    vectors = _pbs_map_vectors(obj)
    return vector_algebra(vectors, obj.alpha.truth, f"F({obj.name})", "lvl"), vectors


def lvl_reconstruct(obj):
    """Function algebra of a bitopological object: all structure-respecting
    maps into the truth lattice, with pointwise operations."""
    return _lvl_reconstruct(obj)[0]


def check_lvl_algebra_roundtrip(algebra):
    """The evaluation map a |-> (h |-> h(a)) into the double dual, checked
    to be a well-defined lvl homomorphism and a bijection."""
    report = DualityReport(mode="pbs", obj=algebra.name)
    obj, homs = _lvl_dual(algebra)
    double, vectors = _lvl_reconstruct(obj)
    pos = {v: i for i, v in enumerate(vectors)}
    report.cardinalities = {
        "algebra": len(algebra),
        "dual_points": len(homs),
        "double_dual": len(double),
    }
    mapping = []
    wd = PASS
    for a in range(len(algebra)):
        vec = tuple(h.mapping[a] for h in homs)
        i = pos.get(vec)
        if i is None:
            wd = failed(
                f"evaluation at {algebra.element_name(a)} is not a point of the double dual"
            )
            break
        mapping.append(i)
    report.record("well_defined", wd)
    if not wd.passed:
        for tag in ("homomorphism", "injective", "surjective"):
            report.record(tag, failed("natural map is not well defined"))
        return report
    mapping = tuple(mapping)
    report.record("homomorphism", is_homomorphism(mapping, algebra, double))
    report.record("injective", _injective(mapping, algebra.element_name))
    report.record("surjective", _surjective(mapping, len(double), double.element_name))
    report.maps["forward"] = {
        algebra.element_name(a): double.element_name(v) for a, v in enumerate(mapping)
    }
    if report.verdicts["injective"] and report.verdicts["surjective"]:
        report.maps["inverse"] = {
            double.element_name(v): algebra.element_name(a)
            for a, v in enumerate(mapping)
        }
    return report


def check_lvl_space_roundtrip(obj):
    """The evaluation map s |-> (f |-> f(s)) into the dual of the function
    algebra, checked to be a bijection, bicontinuous in both topologies,
    and compatible with the subalgebra assignment."""
    report = DualityReport(mode="pbs", obj=obj.name)
    fa, vectors = _lvl_reconstruct(obj)
    gf_obj, gf_homs = _lvl_dual(fa)
    pos = {h.mapping: i for i, h in enumerate(gf_homs)}
    n = len(obj.space.points)
    report.cardinalities = {
        "points": n,
        "function_algebra": len(fa),
        "double_dual_points": len(gf_homs),
    }
    mapping = []
    wd = PASS
    for s in range(n):
        ev = tuple(vec[s] for vec in vectors)
        i = pos.get(ev)
        if i is None:
            wd = failed(
                f"evaluation at point {obj.space.points[s]} is not a hom of the function algebra"
            )
            break
        mapping.append(i)
    report.record("well_defined", wd)
    if not wd.passed:
        for tag in (
            "injective",
            "surjective",
            "continuous_1",
            "continuous_2",
            "open_1",
            "open_2",
            "alpha_compatible",
        ):
            report.record(tag, failed("natural map is not well defined"))
        return report
    mapping = tuple(mapping)
    report.record("injective", _injective(mapping, lambda i: obj.space.points[i]))
    report.record(
        "surjective", _surjective(mapping, len(gf_homs), lambda i: gf_obj.space.points[i])
    )
    morph = verify_pbs_morphism(mapping, obj, gf_obj)
    report.record("continuous_1", morph["continuous_1"])
    report.record("continuous_2", morph["continuous_2"])
    for tag, src_t, dst_t in (
        ("open_1", obj.space.topo1, gf_obj.space.topo1),
        ("open_2", obj.space.topo2, gf_obj.space.topo2),
    ):
        bad = non_open_image(mapping, src_t, dst_t)
        report.record(
            tag,
            PASS
            if bad is None
            else failed(
                f"image of open {obj.space.subset_name(bad)} is not open in the double dual"
            ),
        )
    res = PASS
    for s in obj.alpha.subalgebras:
        img = frozenset(mapping[p] for p in obj.alpha.image_of(s))
        if img != gf_obj.alpha.image_of(s):
            res = failed(
                f"assignment image of {obj.alpha.subalgebra_name(s)} "
                "does not match the double dual's"
            )
            break
    report.record("alpha_compatible", res)
    report.maps["forward"] = {
        obj.space.points[s]: gf_obj.space.points[v] for s, v in enumerate(mapping)
    }
    if report.verdicts["injective"] and report.verdicts["surjective"]:
        report.maps["inverse"] = {
            gf_obj.space.points[v]: obj.space.points[s] for s, v in enumerate(mapping)
        }
    return report


# ---------------------------------------------------------------------------
# bounded lattices <-> ordered Stone spaces (pspa mode)
# ---------------------------------------------------------------------------


def _points(bdl_algebra):
    """The homs of a bounded-lattice algebra into its truth lattice."""
    truth = bdl_algebra.truth
    return enumerate_homs(bdl_algebra, make_bdl(truth, truth))


def _ordered_dual(bdl_algebra, name, homs):
    truth = bdl_algebra.truth
    k = len(homs)
    names = _point_names(k)
    basis = [_basic_open(homs, a, truth.top) for a in range(len(bdl_algebra))]
    full = frozenset(range(k))
    basis += [full - b for b in basis]
    space = OrderedSpace(
        names,
        generate_topology(k, basis),
        Poset(names, hom_order_matrix(homs), name="hom-order"),
        name=name,
    )
    return space, homs


@_scoped
def _priestley_dual(algebra):
    if algebra.signature != "bdl":
        raise AlgebraError(
            "signature-mismatch", "the ordered dual needs a bounded-lattice algebra"
        )
    return _ordered_dual(algebra, f"G({algebra.name})", _points(algebra))


def priestley_dual(algebra):
    """Ordered dual space of a bounded-lattice algebra: points are the homs
    into the truth lattice under the pointwise order; the topology is
    generated by the evaluation sets and their complements, as the product
    topology induces."""
    return _priestley_dual(algebra)[0]


def _ordered_map_vectors(space, truth, limit=MAP_ENUM_LIMIT):
    """Order-preserving continuous maps from the space into the truth
    lattice (discrete topology, lattice order)."""
    return _map_vectors(
        [(1 << len(truth)) - 1] * len(space.points),
        (space.topo,),
        space.order.leq,
        truth.leq,
        limit,
        f"continuous order-preserving maps over {space.name!r}",
    )


@_scoped
def _priestley_reconstruct(space, truth):
    vectors = _ordered_map_vectors(space, truth)
    return (
        vector_algebra(vectors, truth, f"C({space.name})", "bdl"),
        vectors,
    )


def priestley_reconstruct(space, truth):
    """Algebra of continuous order-preserving maps into the truth lattice,
    with pointwise lattice operations."""
    return _priestley_reconstruct(space, truth)[0]


def _injective(mapping, namer):
    seen = {}
    for i, v in enumerate(mapping):
        if v in seen:
            return failed(f"{namer(seen[v])} and {namer(i)} collapse")
        seen[v] = i
    return PASS


def _surjective(mapping, size, namer):
    missing = sorted(set(range(size)) - set(mapping))
    if missing:
        return failed(f"{namer(missing[0])} is not in the image")
    return PASS


def check_priestley_algebra_roundtrip(algebra):
    """Evaluation a |-> (h |-> h(a)) into the map algebra of the dual space:
    well-definedness, the lattice homomorphism law, and bijectivity."""
    report = DualityReport(mode="pspa", obj=algebra.name)
    space, homs = _priestley_dual(algebra)
    double, vectors = _priestley_reconstruct(space, algebra.truth)
    pos = {v: i for i, v in enumerate(vectors)}
    report.cardinalities = {
        "algebra": len(algebra),
        "dual_points": len(homs),
        "double_dual": len(double),
    }
    mapping = []
    wd = PASS
    for a in range(len(algebra)):
        vec = tuple(h.mapping[a] for h in homs)
        i = pos.get(vec)
        if i is None:
            wd = failed(
                f"evaluation at {algebra.element_name(a)} is not a continuous "
                "order-preserving map on the dual"
            )
            break
        mapping.append(i)
    report.record("well_defined", wd)
    if not wd.passed:
        for tag in ("homomorphism", "injective", "surjective"):
            report.record(tag, failed("natural map is not well defined"))
        return report
    mapping = tuple(mapping)
    report.record("homomorphism", is_homomorphism(mapping, algebra, double))
    report.record("injective", _injective(mapping, algebra.element_name))
    report.record("surjective", _surjective(mapping, len(double), double.element_name))
    report.maps["forward"] = {
        algebra.element_name(a): double.element_name(v) for a, v in enumerate(mapping)
    }
    if report.verdicts["injective"] and report.verdicts["surjective"]:
        report.maps["inverse"] = {
            double.element_name(v): algebra.element_name(a)
            for a, v in enumerate(mapping)
        }
    return report


def _delta_roundtrip(space, truth, mode, reconstruct, dualize):
    """Shared body of the space-side round trips: evaluation
    s |-> (f |-> f(s)) into the dual of the map algebra."""
    report = DualityReport(mode=mode, obj=space.name)
    ca, vectors = reconstruct(space, truth)
    gc_space, gc_homs = dualize(ca)
    pos = {h.mapping: i for i, h in enumerate(gc_homs)}
    n = len(space.points)
    report.cardinalities = {
        "points": n,
        "map_algebra": len(ca),
        "double_dual_points": len(gc_homs),
    }
    mapping = []
    wd = PASS
    for s in range(n):
        ev = tuple(vec[s] for vec in vectors)
        i = pos.get(ev)
        if i is None:
            wd = failed(
                f"evaluation at point {space.points[s]} is not a hom of the map algebra"
            )
            break
        mapping.append(i)
    report.record("well_defined", wd)
    tags = [
        "injective",
        "surjective",
        "continuous",
        "open",
        "order_preserving",
        "order_reflecting",
        "reflection_device",
    ]
    if mode == "hspa":
        tags += ["back_condition", "inverse_back_condition"]
    if not wd.passed:
        for tag in tags:
            report.record(tag, failed("natural map is not well defined"))
        return report
    mapping = tuple(mapping)
    report.record("injective", _injective(mapping, lambda i: space.points[i]))
    report.record(
        "surjective", _surjective(mapping, len(gc_homs), lambda i: gc_space.points[i])
    )
    morph = verify_pspa_morphism(mapping, space, gc_space)
    report.record("continuous", morph["continuous"])
    bad = non_open_image(mapping, space.topo, gc_space.topo)
    report.record(
        "open",
        PASS
        if bad is None
        else failed(
            f"image of open {space.subset_name(bad)} is not open in the double dual"
        ),
    )
    report.record("order_preserving", morph["order_preserving"])
    res = PASS
    for s1 in range(n):
        for s2 in range(n):
            if space.order.leq[s1][s2]:
                continue
            if gc_space.order.leq[mapping[s1]][mapping[s2]]:
                res = failed(
                    f"order reflection fails: images of {space.points[s1]}, "
                    f"{space.points[s2]} are ordered but the points are not"
                )
                break
        if not res.passed:
            break
    report.record("order_reflecting", res)
    # the 0/1-split separating map from the proof: the indicator of the
    # up-set of s1 separates s1 from every point not above it, so it must be
    # a map of the algebra whenever such a point exists
    vec_set = set(vectors)
    res = PASS
    for s1 in range(n):
        if all(space.order.leq[s1]):
            continue
        up = space.order.upset(s1)
        device = tuple(truth.top if p in up else truth.bottom for p in range(n))
        if device not in vec_set:
            res = failed(
                f"indicator of the up-set of {space.points[s1]} is not a "
                "map of the algebra; no separating witness"
            )
            break
    report.record("reflection_device", res)
    if mode == "hspa":
        back = verify_hspa_morphism(mapping, space, gc_space)
        report.record("back_condition", back["back_condition"])
        if report.verdicts["injective"] and report.verdicts["surjective"]:
            inverse = [0] * len(gc_homs)
            for s, v in enumerate(mapping):
                inverse[v] = s
            back_inv = verify_hspa_morphism(tuple(inverse), gc_space, space)
            report.record("inverse_back_condition", back_inv["back_condition"])
        else:
            report.record(
                "inverse_back_condition", failed("no inverse: the map is not a bijection")
            )
    report.maps["forward"] = {
        space.points[s]: gc_space.points[v] for s, v in enumerate(mapping)
    }
    if report.verdicts["injective"] and report.verdicts["surjective"]:
        report.maps["inverse"] = {
            gc_space.points[v]: space.points[s] for s, v in enumerate(mapping)
        }
    return report


def check_priestley_space_roundtrip(space, truth):
    """Space-side round trip for the ordered duality, including the
    order-reflection biconditional from the reconstruction argument."""
    return _delta_roundtrip(
        space, truth, "pspa", _priestley_reconstruct, _priestley_dual
    )


# ---------------------------------------------------------------------------
# implication algebras <-> ordered Stone spaces with the Esakia law (hspa)
# ---------------------------------------------------------------------------


@_scoped
def _esakia_points(algebra):
    """The bounded-lattice reduct of an isp_i algebra and the homs of the
    reduct into the truth lattice: the points of the hspa dual, which the
    Kripke check reads too."""
    if algebra.signature != "isp_i":
        raise AlgebraError(
            "signature-mismatch", "the Esakia-style dual needs an isp_i algebra"
        )
    reduct = make_bdl(algebra.lattice, algebra.truth)
    return reduct, _points(reduct)


def esakia_points(algebra):
    """The points of the hspa dual of an isp_i algebra, found once per open
    verification scope for the dual and the Kripke check alike."""
    return _esakia_points(algebra)[1]


@_scoped
def _esakia_dual(algebra):
    reduct, homs = _esakia_points(algebra)
    return _ordered_dual(reduct, f"GI({algebra.name})", homs)


def esakia_dual(algebra):
    """Ordered dual of an implication algebra over the homs of its
    bounded-lattice reduct; the implication re-enters through the order."""
    return _esakia_dual(algebra)[0]


def check_downclosure_identity(algebra):
    """Elementwise check that the down-closure of each basic evaluation set
    equals the complement of the evaluation set of the implication to
    bottom. Holds on duals of genuine up-set algebras; measured, not
    assumed, elsewhere."""
    space, homs = _esakia_dual(algebra)
    full = frozenset(range(len(homs)))
    top = algebra.truth.top
    bot = algebra.lattice.bottom
    for a in range(len(algebra)):
        lhs = space.order.down_closure(_basic_open(homs, a, top))
        rhs = full - _basic_open(homs, algebra.implies[a][bot], top)
        if lhs != rhs:
            return failed(
                f"down-closure identity fails at {algebra.element_name(a)}: "
                f"{space.subset_name(lhs)} != {space.subset_name(rhs)}"
            )
    return PASS


@_scoped
def _esakia_reconstruct(space, truth):
    vectors = _ordered_map_vectors(space, truth)
    return (
        vector_algebra(
            vectors, truth, f"CI({space.name})", "isp_i", order=space.order
        ),
        vectors,
    )


def esakia_reconstruct(space, truth):
    """Map algebra of an ordered Stone space with the frame-relativized
    implication computed directly from the space order."""
    return _esakia_reconstruct(space, truth)[0]


def check_implication_preimage_identity(space, truth):
    """The set identity used to close the map algebra under implication:
    the preimage of each value under f -> g against the combination of
    down-closures of the preimages of f and g. It is a proof device, not
    the definition, so agreement is measured and mismatches are reported."""
    vectors = _ordered_map_vectors(space, truth)
    implies = relativized_implication(truth, space.order)
    n = len(space.points)
    full = frozenset(range(n))
    checked = mismatches = 0
    first = None
    for f in vectors:
        for g in vectors:
            fg = implies(f, g)
            for l in range(len(truth)):
                checked += 1
                lhs = frozenset(s for s in range(n) if fg[s] == l)
                rhs = space.order.down_closure(
                    frozenset(s for s in range(n) if g[s] == l)
                ) & (
                    full
                    - space.order.down_closure(
                        frozenset(s for s in range(n) if f[s] == l)
                    )
                )
                if lhs != rhs:
                    mismatches += 1
                    if first is None:
                        first = (
                            f"f={vector_name(truth, f)}, g={vector_name(truth, g)}, "
                            f"value={truth.elements[l]}"
                        )
    if mismatches:
        return failed(
            f"{mismatches} of {checked} instances disagree; first at {first}"
        )
    return PASS


def check_esakia_algebra_roundtrip(algebra):
    """Algebra-side round trip for the implication duality: the evaluation
    map must additionally preserve the relativized implication."""
    report = DualityReport(mode="hspa", obj=algebra.name)
    space, homs = _esakia_dual(algebra)
    double, vectors = _esakia_reconstruct(space, algebra.truth)
    pos = {v: i for i, v in enumerate(vectors)}
    report.cardinalities = {
        "algebra": len(algebra),
        "dual_points": len(homs),
        "double_dual": len(double),
    }
    mapping = []
    wd = PASS
    for a in range(len(algebra)):
        vec = tuple(h.mapping[a] for h in homs)
        i = pos.get(vec)
        if i is None:
            wd = failed(
                f"evaluation at {algebra.element_name(a)} is not a map of the double dual"
            )
            break
        mapping.append(i)
    report.record("well_defined", wd)
    if not wd.passed:
        for tag in ("homomorphism", "implies_preserved", "injective", "surjective"):
            report.record(tag, failed("natural map is not well defined"))
        return report
    mapping = tuple(mapping)
    report.record("homomorphism", is_homomorphism(mapping, algebra, double))
    res = PASS
    for a in range(len(algebra)):
        for b in range(len(algebra)):
            if mapping[algebra.implies[a][b]] != double.implies[mapping[a]][mapping[b]]:
                res = failed(
                    f"implication not preserved at ({algebra.element_name(a)}, "
                    f"{algebra.element_name(b)})"
                )
                break
        if not res.passed:
            break
    report.record("implies_preserved", res)
    report.record("injective", _injective(mapping, algebra.element_name))
    report.record("surjective", _surjective(mapping, len(double), double.element_name))
    report.maps["forward"] = {
        algebra.element_name(a): double.element_name(v) for a, v in enumerate(mapping)
    }
    if report.verdicts["injective"] and report.verdicts["surjective"]:
        report.maps["inverse"] = {
            double.element_name(v): algebra.element_name(a)
            for a, v in enumerate(mapping)
        }
    return report


def check_esakia_space_roundtrip(space, truth):
    """Space-side round trip for the implication duality, with the back
    condition checked for the evaluation map and its inverse."""
    return _delta_roundtrip(space, truth, "hspa", _esakia_reconstruct, _esakia_dual)


# ---------------------------------------------------------------------------
# functors on morphisms
# ---------------------------------------------------------------------------


@dataclass
class DualizedMap:
    """A morphism sent through a dual-space functor, with the verdicts that
    certify it is an arrow of the target category."""

    mode: str
    mapping: tuple
    source: object
    target: object
    checks: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(r.passed for r in self.checks.values())


def _dual_of(algebra, mode):
    if mode == "pbs":
        return _lvl_dual(algebra)
    if mode == "pspa":
        return _priestley_dual(algebra)
    if mode == "hspa":
        return _esakia_dual(algebra)
    raise AlgebraError("unknown-mode", f"unknown duality mode {mode!r}")


def dual_map_of_hom(hom, mode):
    """Precomposition: a homomorphism f: A -> B dualizes to the point map
    from the dual of B to the dual of A sending mu to mu o f. The verdict
    bundle certifies arrow-hood in the space category."""
    dst_obj, dst_homs = _dual_of(hom.source, mode)
    src_obj, src_homs = _dual_of(hom.target, mode)
    pos = {h.mapping: i for i, h in enumerate(dst_homs)}
    mapping = []
    wd = PASS
    for k, mu in enumerate(src_homs):
        comp = tuple(mu.mapping[v] for v in hom.mapping)
        i = pos.get(comp)
        if i is None:
            wd = failed(f"composite through point h{k} is not a point of the dual")
            break
        mapping.append(i)
    checks = {"well_defined": wd}
    mapping = tuple(mapping) if wd.passed else ()
    if wd.passed:
        if mode == "pbs":
            checks.update(verify_pbs_morphism(mapping, src_obj, dst_obj))
        elif mode == "pspa":
            checks.update(verify_pspa_morphism(mapping, src_obj, dst_obj))
        else:
            checks.update(verify_hspa_morphism(mapping, src_obj, dst_obj))
    return DualizedMap(mode, mapping, src_obj, dst_obj, checks)


def dual_hom_of_map(mapping, src, dst, mode, truth=None):
    """Precomposition on the algebra side: a space map phi: src -> dst
    dualizes to the homomorphism from the map algebra of dst to the map
    algebra of src."""
    if mode == "pbs":
        fd, dvec = _lvl_reconstruct(dst)
        fs, svec = _lvl_reconstruct(src)
        n_src = len(src.space.points)
    elif mode == "pspa":
        fd, dvec = _priestley_reconstruct(dst, truth)
        fs, svec = _priestley_reconstruct(src, truth)
        n_src = len(src.points)
    elif mode == "hspa":
        fd, dvec = _esakia_reconstruct(dst, truth)
        fs, svec = _esakia_reconstruct(src, truth)
        n_src = len(src.points)
    else:
        raise AlgebraError("unknown-mode", f"unknown duality mode {mode!r}")
    pos = {v: i for i, v in enumerate(svec)}
    out = []
    wd = PASS
    for vec in dvec:
        comp = tuple(vec[mapping[s]] for s in range(n_src))
        i = pos.get(comp)
        if i is None:
            wd = failed(
                f"composite of {vector_name(fd.truth, vec)} is not a map on the source"
            )
            break
        out.append(i)
    checks = {"well_defined": wd}
    hom = None
    if wd.passed:
        hom = Homomorphism(fd, fs, tuple(out))
        checks["homomorphism"] = is_homomorphism(hom.mapping, fd, fs)
    return hom, checks


def functor_identity_check(algebra, mode):
    """The dual of the identity is the identity."""
    d = dual_map_of_hom(identity_hom(algebra), mode)
    if not d.passed:
        bad = next(k for k, r in d.checks.items() if not r.passed)
        return failed(f"dual of identity on {algebra.name!r} fails {bad}: {d.checks[bad].witness}")
    if d.mapping != tuple(range(len(d.mapping))):
        return failed(f"dual of identity on {algebra.name!r} is not the identity")
    return PASS


def functor_composition_check(f, g, mode):
    """Contravariance on a composable pair: the dual of g o f must equal the
    dual of f composed after the dual of g."""
    d_gf = dual_map_of_hom(compose_homs(g, f), mode)
    d_f = dual_map_of_hom(f, mode)
    d_g = dual_map_of_hom(g, mode)
    for d in (d_gf, d_f, d_g):
        if not d.passed:
            bad = next(k for k, r in d.checks.items() if not r.passed)
            return failed(f"dualized morphism fails {bad}: {d.checks[bad].witness}")
    composite = tuple(d_f.mapping[i] for i in d_g.mapping)
    if composite != d_gf.mapping:
        return failed(
            f"dual({g.target.name}<-{f.source.name}) is not dual(f) o dual(g)"
        )
    return PASS


# ---------------------------------------------------------------------------
# spectrum correspondence
# ---------------------------------------------------------------------------


def spectrum_correspondence(algebra):
    """Over the two-element truth lattice: the bijection between homs into
    the truth algebra and prime filters via preimage of the top, with every
    image re-verified against the filter laws directly.

    For larger truth lattices the printed characteristic-function
    description of the correspondence is evaluated per prime ideal and the
    outcome is reported as experimental."""
    if algebra.signature != "bdl":
        raise AlgebraError(
            "signature-mismatch", "spectrum correspondence needs a bdl algebra"
        )
    truth = algebra.truth
    homs = _points(algebra)
    report = DualityReport(mode="spectrum", obj=algebra.name)
    if len(truth) == 2:
        filters = prime_filters(algebra.lattice)
        images = [
            frozenset(x for x in range(len(algebra)) if h.mapping[x] == truth.top)
            for h in homs
        ]
        report.cardinalities = {"homs": len(homs), "prime_filters": len(filters)}
        res = PASS
        for k, img in enumerate(images):
            if not _is_prime_filter(algebra.lattice, img):
                res = failed(f"preimage of top under h{k} is not a prime filter")
                break
        report.record("images_are_prime_filters", res)
        report.record(
            "injective",
            PASS
            if len(set(images)) == len(images)
            else failed("two homs share a filter"),
        )
        missing = set(filters) - set(images)
        report.record(
            "surjective",
            PASS
            if not missing
            else failed(
                "prime filter "
                + "{"
                + ",".join(algebra.lattice.names(min(missing, key=sorted)))
                + "} has no hom"
            ),
        )
        report.record(
            "counts_equal",
            PASS
            if len(homs) == len(filters)
            else failed(f"{len(homs)} homs vs {len(filters)} prime filters"),
        )
        report.maps["forward"] = {
            f"h{k}": "{" + ",".join(algebra.lattice.names(img)) + "}"
            for k, img in enumerate(images)
        }
        return report
    ideals = prime_ideals(truth)
    report.cardinalities = {"homs": len(homs), "prime_ideals": len(ideals)}
    evaluable = set(algebra.lattice.elements) <= set(truth.elements)
    if not evaluable:
        report.record(
            "vp_description_typechecks",
            failed(
                "carrier elements are not truth-lattice elements; the "
                "characteristic-function description does not apply"
            ),
        )
        return report
    report.record("vp_description_typechecks", PASS)
    as_truth = tuple(truth.index(e) for e in algebra.lattice.elements)
    candidates = []
    res = PASS
    for pi, ideal in enumerate(ideals):
        vp = []
        for x in range(len(algebra)):
            options = [
                r
                for r in range(len(truth))
                if (truth.top if as_truth[x] == r else truth.bottom) not in ideal
            ]
            if len(options) != 1:
                res = failed(
                    f"ideal #{pi}: {len(options)} candidate values at "
                    f"{algebra.element_name(x)}"
                )
                break
            vp.append(options[0])
        if not res.passed:
            break
        candidates.append(tuple(vp))
    report.record("vp_well_defined", res)
    if res.passed:
        hom_res = PASS
        for pi, vp in enumerate(candidates):
            check = is_homomorphism(vp, algebra, make_bdl(truth, truth))
            if not check.passed:
                hom_res = failed(f"ideal #{pi}: {check.witness}")
                break
        report.record("vp_homomorphism", hom_res)
        report.record(
            "correspondence_injective",
            PASS
            if len(set(candidates)) == len(candidates)
            else failed("distinct prime ideals yield the same hom"),
        )
        hom_set = {h.mapping for h in homs}
        report.record(
            "correspondence_onto",
            PASS
            if hom_set <= set(candidates) and set(candidates) <= hom_set
            else failed("the described maps do not exhaust the homs"),
        )
    return report
