"""Functor constructions between algebras and spaces, their natural maps,
and instance-level verification of every duality round trip.

Each duality is one ``Mode`` record in ``MODES``, keyed by its name:

* ``pbs``  - lattice-valued algebras against bitopological spaces with a
             subalgebra assignment,
* ``pspa`` - bounded-lattice algebras against ordered Stone spaces,
* ``hspa`` - implication algebras against ordered Stone spaces with the
             clopen-down-closure law.

A record holds the mode's functors, verifiers and the laws and witness
phrases in which it differs, and is the one way into its duality:
``MODES[name].dual(algebra)`` gives the dual space and its points as homs,
``.reconstruct(space, truth)`` the map algebra and its carrier as vectors.
One algebra-side and one space-side round trip and the functors on
morphisms run off it, as a natural duality is stated once for any
dualizing object (Clark and Davey, *Natural Dualities for the Working
Algebraist*, 1998). Every natural map is materialized in both directions
and each verdict carries a concrete witness on failure; nothing is
inferred from a cited result.

One verification builds the same dual or map algebra several times: the
algebra-side round trip dualizes the algebra its caller just dualized, the
space-side round trip rebuilds the map algebra the algebra-side one built,
and every dualized hom re-dualizes both of its ends. Inside a
``verification_scope`` the three dualizations and three reconstructions
are cached on the identity of their input (plus any further argument such
as the truth lattice), so each is built once. A scope also caches dualized
homs, on the identities of both ends, the mapping and the mode, so a hom
met again is dualized and verified once. The scope is opened around
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
from collections.abc import Callable

from .algebra import (
    Homomorphism,
    check_lvl_axioms,
    compose_homs,
    enumerate_homs,
    hom_order,
    identity_hom,
    is_homomorphism,
    lvl_subalgebras,
    make_bdl,
    make_heyting_ispi,
    make_lvl,
    vector_algebra,
    vector_name,
)
from .errors import AlgebraError, BudgetExceeded, SpaceError
from .lattice import (
    FiniteLattice,
    Poset,
    _is_prime_filter,
    _union_over,
    prime_filters,
    prime_ideals,
)
from .reporting import PASS, DualityReport, _Frozen, failed
from .topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    Topology,
    _check_total,
    back_condition,
    is_pairwise_hausdorff,
    mask_members,
    non_open_image,
    subset_mask,
    topology_from_masks,
    verify_hspa_morphism,
    verify_hspa_object,
    verify_pbs_morphism,
    verify_pbs_object,
    verify_pspa_morphism,
    verify_pspa_object,
)

MAP_ENUM_LIMIT = 200_000  # maps kept by one map-algebra search

# (function, id of its first argument, further arguments) -> (first
# argument, result), and (dual_map_of_hom, ids of both ends, mapping, mode
# name) -> (both ends, (point map, checks)), while a verification scope is
# open
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


def _in_scope(key, held, build, *args):
    """``build(*args)``, reused under ``key`` inside a verification scope;
    the entry holds ``held``, the objects whose ids the key names."""
    cache = _SCOPE_CACHE.get()
    if cache is None:
        return build(*args)
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = (held, build(*args))
    return entry[1]


def _scoped(fn):
    """Reuse fn's result for the same first-argument object (and equal
    further arguments) inside a verification scope."""

    @functools.wraps(fn)
    def cached(obj, *rest):
        return _in_scope((fn, id(obj), rest), obj, fn, obj, *rest)

    return cached


def _point_names(k):
    return tuple(f"h{i}" for i in range(k))


@functools.cache
def _top_bytes(top):
    """The ``bytes.translate`` table that sends the byte ``top`` to 1 and
    every other byte to 0."""
    return bytes(v == top for v in range(256))


def _evaluation_masks(homs, size, top):
    """The evaluation sets as bitmasks, built in one pass over the homs: bit
    i of ``masks[a]`` is set when ``homs[i]`` sends a to top."""
    masks = [0] * size
    for i, h in enumerate(homs):
        for a, v in enumerate(h.mapping):
            if v == top:
                masks[a] |= 1 << i
    return masks


# ---------------------------------------------------------------------------
# lattice-valued algebras <-> bitopological spaces (pbs mode)
# ---------------------------------------------------------------------------


@_scoped
def _lvl_dual(algebra):
    """Dual bitopological space of a lattice-valued algebra and its points:
    the homs into the truth algebra. The first topology is generated by the
    sets of homs sending an element to the top, the second by their
    complements (expressed through the truth-constant operators), and the
    assignment sends each subalgebra to the homs landing inside it."""
    if algebra.signature != "lvl":
        raise AlgebraError(
            "signature-mismatch", "the bitopological dual needs an lvl algebra"
        )
    truth = algebra.truth
    homs = enumerate_homs(algebra, make_lvl(truth))
    k = len(homs)
    masks = _evaluation_masks(homs, len(algebra), truth.top)
    bot = algebra.lattice.bottom
    space = BitopSpace(
        _point_names(k),
        topology_from_masks(k, masks),
        topology_from_masks(
            k, [masks[algebra.implies[t][bot]] for t in algebra.t_ops[truth.top]]
        ),
        name=f"G({algebra.name})",
    )
    subs = lvl_subalgebras(truth)
    images = tuple(
        frozenset(i for i, h in enumerate(homs) if set(h.mapping) <= s) for s in subs
    )
    return PbsObject(space, AlphaAssignment(truth, subs, images)), homs


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


def _map_vectors(allowed, topologies, order, truth, limit, what):
    """Every map from the points into the truth values, as vectors in
    lexicographic order, that sends point i into the bits of ``allowed[i]``,
    is continuous for each topology into the discrete truth values and, when
    ``order`` is given, preserves the order from ``order`` to ``truth``.

    A map into a discrete space is continuous exactly when it is constant
    on every minimal open. So each point must take the value of every
    earlier point that lies in its minimal open or has it in its own, and a
    value at least (at most) that of every earlier point below (above) it.
    The backtracking search keeps the values these constraints leave for
    each point as a bitmask and builds only the maps it keeps; it raises
    BudgetExceeded once more than ``limit`` are kept, or when it recurses
    deeper than Python's recursion limit, one level per point."""
    n = len(allowed)
    same = tuple(1 << v for v in range(len(truth)))
    up, down = truth.up_masks, truth.down_masks
    below = above = (0,) * n
    if order is not None:
        below, above = order.down_masks, order.up_masks
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
            elif below[i] >> j & 1:
                row.append((j, up))
            elif above[i] >> j & 1:
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

    try:
        rec(0)
    except RecursionError:
        raise BudgetExceeded(
            f"search of {what}, {n} points deep, exceeds the recursion limit"
        ) from None
    finally:
        rec = None  # drop the closure's cycle through itself
    return tuple(out)


def _pbs_map_vectors(obj):
    """Carriers of the function algebra: maps from points to truth values
    that are continuous for both topologies (discrete codomain) and respect
    the subalgebra assignment."""
    truth = obj.alpha.truth
    allowed = [(1 << len(truth)) - 1] * len(obj.space.points)
    for s, img in obj.alpha.image_masks.items():
        for p in mask_members(img):
            allowed[p] &= subset_mask(s)
    return _map_vectors(
        allowed,
        (obj.space.topo1, obj.space.topo2),
        None,
        truth,
        MAP_ENUM_LIMIT,
        f"continuous maps over {obj.name!r}",
    )


@_scoped
def _lvl_reconstruct(obj):
    """Function algebra of a bitopological object, all structure-respecting
    maps into the truth lattice with pointwise operations, and its carrier
    as vectors."""
    vectors = _pbs_map_vectors(obj)
    return vector_algebra(vectors, obj.alpha.truth, f"F({obj.name})", "lvl"), vectors


# ---------------------------------------------------------------------------
# bounded lattices <-> ordered Stone spaces (pspa mode)
# ---------------------------------------------------------------------------


# signature -> (the name prefix of its ordered dual, the refusal of another
# signature)
_ORDERED_DUALS = {
    "bdl": ("G", "the ordered dual needs a bounded-lattice algebra"),
    "isp_i": ("GI", "the Esakia-style dual needs an isp_i algebra"),
}


@_scoped
def _ordered_dual(algebra, signature):
    """Ordered dual space of an algebra of ``signature`` and its points: the
    homs of its bounded-lattice reduct into the truth lattice, under the
    pointwise order. The topology is generated by the evaluation sets and
    their complements, as the product topology induces, so the minimal open
    of a hom holds the homs that send the same elements to the top. An
    implication algebra's implication re-enters through the order; the
    Kripke check reads both the space and its points."""
    prefix, refusal = _ORDERED_DUALS[signature]
    if algebra.signature != signature:
        raise AlgebraError("signature-mismatch", refusal)
    truth = algebra.truth
    bdl = algebra if signature == "bdl" else make_bdl(algebra.lattice, truth)
    homs = enumerate_homs(bdl, make_bdl(truth, truth))
    # a mapping into at most 256 values is keyed by its bytes with the top
    # marked, any other by a tuple of flags
    if len(truth.elements) <= 256:
        table = _top_bytes(truth.top)
        keys = [bytes(h.mapping).translate(table) for h in homs]
    else:
        is_top = truth.top.__eq__
        keys = [tuple(map(is_top, h.mapping)) for h in homs]
    classes = {}
    for i, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | 1 << i
    k = len(homs)
    names = _point_names(k)
    space = OrderedSpace(
        names,
        Topology(k, tuple(map(classes.__getitem__, keys))),
        Poset(names, hom_order(homs), name="hom-order"),
        name=f"{prefix}({algebra.name})",
    )
    return space, homs


def _ordered_map_vectors(space, truth):
    """Order-preserving continuous maps from the space into the truth
    lattice (discrete topology, lattice order)."""
    return _map_vectors(
        [(1 << len(truth)) - 1] * len(space.points),
        (space.topo,),
        space.order,
        truth,
        MAP_ENUM_LIMIT,
        f"continuous order-preserving maps over {space.name!r}",
    )


@_scoped
def _ordered_reconstruct(space, truth, signature, prefix):
    """The map algebra of an ordered space in ``signature`` and its carrier
    as vectors: the continuous order-preserving maps into the truth lattice,
    with pointwise lattice operations, and for ``isp_i`` the
    frame-relativized implication, which ``vector_algebra`` computes
    directly from the space order."""
    vectors = _ordered_map_vectors(space, truth)
    return (
        vector_algebra(
            vectors, truth, f"{prefix}({space.name})", signature, order=space.order
        ),
        vectors,
    )


# ---------------------------------------------------------------------------
# implication algebras <-> ordered Stone spaces with the Esakia law (hspa)
# ---------------------------------------------------------------------------


def esakia_dual(algebra):
    """The space of ``HSPA.dual``, by the name perfbench's powers workload
    calls."""
    return _ordered_dual(algebra, "isp_i")[0]


def _downclosure_mismatch(algebra, order, homs):
    """The first element a at which the down-closure identity fails, with
    its two sides as masks over the homs, or None: the down-closure in
    ``order`` of the evaluation set of a, and the complement of the
    evaluation set of a -> 0."""
    opens = _evaluation_masks(homs, len(algebra), algebra.truth.top)
    full = (1 << len(homs)) - 1
    bot = algebra.lattice.bottom
    for a, (m, row) in enumerate(zip(opens, algebra.implies)):
        lhs, rhs = _union_over(m, order.down_masks), full & ~opens[row[bot]]
        if lhs != rhs:
            return a, lhs, rhs
    return None


def check_downclosure_identity(algebra):
    """The down-closure of each basic evaluation set must equal the
    complement of the evaluation set of the implication to bottom, decided
    on int masks; the witness is the first failing element and its two
    sides. Holds on duals of genuine up-set algebras over the two-element
    chain; measured, not assumed, elsewhere."""
    space, homs = _ordered_dual(algebra, "isp_i")
    bad = _downclosure_mismatch(algebra, space.order, homs)
    if bad is None:
        return PASS
    a, lhs, rhs = bad
    return failed(
        f"down-closure identity fails at {algebra.element_name(a)}: "
        f"{space.subset_name(mask_members(lhs))} != "
        f"{space.subset_name(mask_members(rhs))}"
    )


# ---------------------------------------------------------------------------
# the mode registry: the laws of the natural maps by tag, and one record per
# duality
# ---------------------------------------------------------------------------


def _implies_preserved(mapping, algebra, double):
    for a, row in enumerate(algebra.implies):
        image = double.implies[mapping[a]]
        if [mapping[v] for v in row] != [image[m] for m in mapping]:
            b = next(b for b, v in enumerate(row) if mapping[v] != image[mapping[b]])
            return failed(
                f"implication not preserved at ({algebra.element_name(a)}, "
                f"{algebra.element_name(b)})"
            )
    return PASS


# algebra-side laws: (evaluation map, algebra, double dual) -> CheckResult
_ALGEBRA_LAWS = {
    "homomorphism": lambda *args: is_homomorphism(*args),
    "implies_preserved": _implies_preserved,
}


def _open_images(mapping, src_topo, dst_topo, space):
    bad = non_open_image(mapping, src_topo, dst_topo)
    if bad is None:
        return PASS
    return failed(f"image of open {space.subset_name(bad)} is not open in the double dual")


def _alpha_compatible(mapping, obj, gc_obj, *_):
    alpha, points = obj.alpha, [1 << v for v in mapping]
    for s, img in alpha.image_masks.items():
        if _union_over(img, points) != gc_obj.alpha.image_mask(s):
            return failed(
                f"assignment image of {alpha.subalgebra_name(s)} "
                "does not match the double dual's"
            )
    return PASS


def _order_reflecting(mapping, space, gc_space, *_):
    gc_up = gc_space.order.up_masks
    for s1, (up, v) in enumerate(zip(space.order.up_masks, mapping)):
        # the points whose images lie above that of s1, less those above s1
        bad = subset_mask(s for s, w in enumerate(mapping) if gc_up[v] >> w & 1) & ~up
        if bad:
            s2 = (bad & -bad).bit_length() - 1
            return failed(
                f"order reflection fails: images of {space.points[s1]}, "
                f"{space.points[s2]} are ordered but the points are not"
            )
    return PASS


def _reflection_device(mapping, space, gc_space, vectors, truth):
    # the 0/1-split separating map from the proof: the indicator of the
    # up-set of s1 separates s1 from every point not above it, so it must be
    # a map of the algebra whenever such a point exists
    vec_set = set(vectors)
    points = range(len(space.points))
    full = (1 << len(points)) - 1
    for s1, up in enumerate(space.order.up_masks):
        if up == full:
            continue
        if tuple(truth.top if up >> s & 1 else truth.bottom for s in points) not in vec_set:
            return failed(
                f"indicator of the up-set of {space.points[s1]} is not a "
                "map of the algebra; no separating witness"
            )
    return PASS


def _inverse_back_condition(mapping, space, gc_space, *_):
    if sorted(mapping) != list(range(len(gc_space.points))):
        return failed("no inverse: the map is not a bijection")
    inverse = [0] * len(mapping)
    for s, v in enumerate(mapping):
        inverse[v] = s
    return back_condition(inverse, gc_space, space)


# space-side laws that no morphism verifier reports: (evaluation map, space,
# double dual, vectors of the map algebra, truth lattice) -> CheckResult
_SPACE_LAWS = {
    "open": lambda m, s, d, *_: _open_images(m, s.topo, d.topo, s),
    "open_1": lambda m, s, d, *_: _open_images(m, s.space.topo1, d.space.topo1, s.space),
    "open_2": lambda m, s, d, *_: _open_images(m, s.space.topo2, d.space.topo2, s.space),
    "alpha_compatible": _alpha_compatible,
    "order_reflecting": _order_reflecting,
    "reflection_device": _reflection_device,
    "inverse_back_condition": _inverse_back_condition,
}


class Mode(_Frozen):
    """One duality: its functors and verifiers, and the laws and phrases in
    which it differs from the others. A field that calls into another layer
    goes through this module's globals (a lambda, not the captured
    function), so that a profiler or a test that rebinds them sees the
    call. Every field is passed by keyword."""

    _fields = (
        "name",
        "dual",
        "reconstruct",
        "verify_object",
        "verify_morphism",
        "space_type",
        "space_truth",
        "from_lattice",
        "axioms",
        "algebra_miss",
        "algebra_laws",
        "map_algebra",
        "space_laws",
        "dual_checks",
        "describe",
        "space_details",
    )

    def __init__(
        self,
        *,
        name: str,
        dual: Callable,  # algebra -> (dual space, its points as homs)
        reconstruct: Callable,  # (space, truth) -> (map algebra, its carrier as vectors)
        verify_object: Callable,  # space -> {tag: CheckResult}
        verify_morphism: Callable,  # (mapping, src, dst) -> {tag: CheckResult}
        space_type: type,  # the class of the mode's spaces
        space_truth: Callable | None = None,  # space -> its truth lattice; None: given beside it
        from_lattice: Callable,  # (lattice, truth) -> the algebra a lattice document gives
        axioms: Callable | None = None,  # algebra -> AxiomReport, checked before dualizing
        algebra_miss: str,  # what an evaluation outside the double dual is not
        algebra_laws: tuple = ("homomorphism",),  # tags of _ALGEBRA_LAWS, in order
        map_algebra: str,  # cardinality key of the map algebra of a space
        space_laws: tuple,  # tags of the morphism verifier or of _SPACE_LAWS, in order
        dual_checks: tuple = (),  # (tag, algebra -> CheckResult), reported with the dual
        describe: Callable,  # dual space -> details of the dualize report
        space_details: Callable = lambda space: {},  # space -> details of verify-space
    ):
        self.name = name
        self.dual = dual
        self.reconstruct = reconstruct
        self.verify_object = verify_object
        self.verify_morphism = verify_morphism
        self.space_type = space_type
        self.space_truth = space_truth
        self.from_lattice = from_lattice
        self.axioms = axioms
        self.algebra_miss = algebra_miss
        self.algebra_laws = algebra_laws
        self.map_algebra = map_algebra
        self.space_laws = space_laws
        self.dual_checks = dual_checks
        self.describe = describe
        self.space_details = space_details

    def check_space(self, space, truth=None):
        """The truth lattice the mode reads ``space`` over: the space's own,
        or ``truth``, which must then be a lattice."""
        if not isinstance(space, self.space_type):
            raise SpaceError(
                "wrong-kind",
                f"{self.name} mode needs a space of type {self.space_type.__name__}; "
                f"{getattr(space, 'name', space)!r} is of type {type(space).__name__}",
            )
        if self.space_truth is not None:
            return self.space_truth(space)
        if not isinstance(truth, FiniteLattice):
            raise AlgebraError(
                "missing-truth",
                f"{self.name} mode needs a truth lattice beside the space, "
                f"not a {type(truth).__name__}",
            )
        return truth


def _verify_esakia_object(space):
    # verify_hspa_object passes exactly when Priestley separation holds, so a
    # passing space is separated once and only a failing one a second time
    try:
        return {"pspa_object": PASS, "hspa_object": verify_hspa_object(space)}
    except SpaceError as exc:
        return {"pspa_object": verify_pspa_object(space), "hspa_object": failed(str(exc))}


def _describe_ordered(space):
    points = space.points
    return {
        "points": list(points),
        "opens": space.topo.open_count,
        "order": [
            f"{points[i]}<={points[j]}"
            for i, up in enumerate(space.order.up_masks)
            for j in sorted(mask_members(up & ~(1 << i)))
        ],
    }


PBS = Mode(
    name="pbs",
    dual=lambda algebra: _lvl_dual(algebra),
    reconstruct=lambda obj, truth: _lvl_reconstruct(obj),
    verify_object=lambda obj: verify_pbs_object(obj),
    verify_morphism=lambda *args: verify_pbs_morphism(*args),
    space_type=PbsObject,
    space_truth=lambda obj: obj.alpha.truth,
    from_lattice=lambda lattice, truth: make_lvl(lattice),
    axioms=lambda algebra: check_lvl_axioms(algebra),
    algebra_miss="a point of the double dual",
    map_algebra="function_algebra",
    space_laws=("continuous_1", "continuous_2", "open_1", "open_2", "alpha_compatible"),
    describe=lambda obj: {
        "points": list(obj.space.points),
        "opens_1": obj.space.topo1.open_count,
        "opens_2": obj.space.topo2.open_count,
        "second_topology_inside_first": check_second_topology_inclusion(obj).passed,
    },
    space_details=lambda obj: {
        "hausdorff_ordered_reading": is_pairwise_hausdorff(obj.space, mode="ordered").passed
    },
)
PSPA = Mode(
    name="pspa",
    dual=lambda algebra: _ordered_dual(algebra, "bdl"),
    reconstruct=lambda space, truth: _ordered_reconstruct(space, truth, "bdl", "C"),
    verify_object=lambda space: {"pspa_object": verify_pspa_object(space)},
    verify_morphism=lambda *args: verify_pspa_morphism(*args),
    space_type=OrderedSpace,
    from_lattice=lambda lattice, truth: make_bdl(lattice, truth),
    algebra_miss="a continuous order-preserving map on the dual",
    map_algebra="map_algebra",
    space_laws=(
        "continuous",
        "open",
        "order_preserving",
        "order_reflecting",
        "reflection_device",
    ),
    describe=_describe_ordered,
)
HSPA = PSPA.replace(
    name="hspa",
    dual=lambda algebra: _ordered_dual(algebra, "isp_i"),
    reconstruct=lambda space, truth: _ordered_reconstruct(space, truth, "isp_i", "CI"),
    verify_object=_verify_esakia_object,
    verify_morphism=lambda *args: verify_hspa_morphism(*args),
    from_lattice=lambda lattice, truth: make_heyting_ispi(lattice, truth),
    algebra_miss="a map of the double dual",
    algebra_laws=("homomorphism", "implies_preserved"),
    space_laws=PSPA.space_laws + ("back_condition", "inverse_back_condition"),
    dual_checks=(
        ("downclosure_identity", lambda algebra: check_downclosure_identity(algebra)),
    ),
)
MODES = {mode.name: mode for mode in (PBS, PSPA, HSPA)}


def as_mode(mode):
    """The record of a mode, given the record or its name: the one place a
    mode is looked up by name."""
    if isinstance(mode, Mode):
        return mode
    try:
        return MODES[mode]
    except (KeyError, TypeError):
        raise AlgebraError("unknown-mode", f"unknown duality mode {mode!r}") from None


# ---------------------------------------------------------------------------
# the round trips
# ---------------------------------------------------------------------------


def _index(images, targets, miss):
    """The positions of the images among the targets and PASS, or None and
    the failure ``miss(i)`` at the first image i that is no target."""
    pos = {t: i for i, t in enumerate(targets)}
    mapping = []
    for i, image in enumerate(images):
        j = pos.get(image)
        if j is None:
            return None, failed(miss(i))
        mapping.append(j)
    return tuple(mapping), PASS


def _columns(rows, width):
    """The columns of the rows, each of ``width`` entries, as tuples: the
    evaluations at each coordinate."""
    return zip(*rows) if rows else [()] * width


def _record_bijection(report, mapping, size, name, target_name):
    """Record whether ``mapping`` is one-to-one and onto range(size)."""
    seen = {}
    res = PASS
    for i, v in enumerate(mapping):
        if v in seen:
            res = failed(f"{name(seen[v])} and {name(i)} collapse")
            break
        seen[v] = i
    report.record("injective", res)
    missing = sorted(set(range(size)) - set(mapping))
    report.record(
        "surjective",
        failed(f"{target_name(missing[0])} is not in the image") if missing else PASS,
    )


def _reconstruct_or_refusal(mode, space, truth):
    """The map algebra of a space and its vectors, and PASS; or None, None
    and the refusal as a failure when the maps are not closed under the
    mode's operations."""
    try:
        return (*mode.reconstruct(space, truth), PASS)
    except AlgebraError as exc:
        if exc.code != "not-closed":
            raise
        return None, None, failed(str(exc))


def _not_well_defined(report, wd, laws):
    """Record the failed well-definedness ``wd`` and fail every later law
    with it."""
    report.record("well_defined", wd)
    for tag in laws:
        report.record(tag, failed("natural map is not well defined"))
    return report


def algebra_roundtrip(mode, algebra):
    """The evaluation map a |-> (h |-> h(a)) into the double dual, checked
    to be a well-defined homomorphism that keeps the mode's further
    operations, and a bijection. A double dual whose maps are not closed
    under the mode's operations leaves the map not well defined, with the
    refusal as its witness."""
    mode = as_mode(mode)
    report = DualityReport()
    laws = (*mode.algebra_laws, "injective", "surjective")
    space, homs = mode.dual(algebra)
    report.cardinalities = {"algebra": len(algebra), "dual_points": len(homs)}
    double, vectors, wd = _reconstruct_or_refusal(mode, space, algebra.truth)
    if double is None:
        return _not_well_defined(report, wd, laws)
    report.cardinalities["double_dual"] = len(double)
    name = algebra.element_name
    mapping, wd = _index(
        _columns([h.mapping for h in homs], len(algebra)),
        vectors,
        lambda a: f"evaluation at {name(a)} is not {mode.algebra_miss}",
    )
    if mapping is None:
        return _not_well_defined(report, wd, laws)
    report.record("well_defined", wd)
    for tag in mode.algebra_laws:
        # is_homomorphism checks an isp_i implication pair by pair already
        kept = tag == "implies_preserved" and report.verdicts.get("homomorphism")
        report.record(tag, PASS if kept else _ALGEBRA_LAWS[tag](mapping, algebra, double))
    _record_bijection(report, mapping, len(double), name, double.element_name)
    return report


def space_roundtrip(mode, space, truth=None):
    """The evaluation map s |-> (f |-> f(s)) into the dual of the map
    algebra, checked to be a bijection and an isomorphism of the mode's
    spaces. ``truth`` is needed by the modes whose spaces do not carry
    their truth lattice. Maps of the space that are not closed under the
    mode's operations leave the map not well defined, with the refusal as
    its witness."""
    mode = as_mode(mode)
    truth = mode.check_space(space, truth)
    report = DualityReport()
    laws = ("injective", "surjective", *mode.space_laws)
    points = space.points
    report.cardinalities = {"points": len(points)}
    ca, vectors, wd = _reconstruct_or_refusal(mode, space, truth)
    if ca is None:
        return _not_well_defined(report, wd, laws)
    gc_space, gc_homs = mode.dual(ca)
    report.cardinalities[mode.map_algebra] = len(ca)
    report.cardinalities["double_dual_points"] = len(gc_homs)
    mapping, wd = _index(
        _columns(vectors, len(points)),
        (h.mapping for h in gc_homs),
        lambda s: f"evaluation at point {points[s]} is not a hom of the "
        + mode.map_algebra.replace("_", " "),
    )
    if mapping is None:
        return _not_well_defined(report, wd, laws)
    report.record("well_defined", wd)
    gc_points = gc_space.points
    _record_bijection(report, mapping, len(gc_homs), points.__getitem__, gc_points.__getitem__)
    morph = mode.verify_morphism(mapping, space, gc_space)
    for tag in mode.space_laws:
        law = _SPACE_LAWS.get(tag)
        res = morph[tag] if law is None else law(mapping, space, gc_space, vectors, truth)
        report.record(tag, res)
    return report


def check_esakia_algebra_roundtrip(algebra):
    """``algebra_roundtrip`` in hspa mode, by the name perfbench's powers
    workload calls."""
    return algebra_roundtrip(HSPA, algebra)


def check_esakia_space_roundtrip(space, truth):
    """``space_roundtrip`` in hspa mode, by the name perfbench's powers
    workload calls."""
    return space_roundtrip(HSPA, space, truth)


# ---------------------------------------------------------------------------
# functors on morphisms
# ---------------------------------------------------------------------------


def dual_map_of_hom(hom, mode):
    """Precomposition: a homomorphism f: A -> B dualizes to the point map
    from the dual of B to the dual of A sending mu to mu o f, returned with
    the checks that certify arrow-hood in the space category, as
    ``dual_hom_of_map`` returns its hom.

    Inside a verification scope the pair is cached on the identities of
    the hom's two ends, its mapping and the mode, so a hom that is
    dualized again (an identity, or a composite g o f met before) is
    built and verified once."""
    mode = as_mode(mode)
    ends = hom.source, hom.target
    key = (dual_map_of_hom, *map(id, ends), hom.mapping, mode.name)
    return _in_scope(key, ends, _dualize_hom, hom, mode)


def _dualize_hom(hom, mode):
    dst_obj, dst_homs = mode.dual(hom.source)
    src_obj, src_homs = mode.dual(hom.target)
    mapping, wd = _index(
        (tuple(map(mu.mapping.__getitem__, hom.mapping)) for mu in src_homs),
        (h.mapping for h in dst_homs),
        lambda k: f"composite through point h{k} is not a point of the dual",
    )
    checks = {"well_defined": wd}
    if mapping is None:
        mapping = ()
    else:
        checks.update(mode.verify_morphism(mapping, src_obj, dst_obj))
    return mapping, checks


def dual_hom_of_map(mapping, src, dst, mode, truth=None):
    """Precomposition on the algebra side: a space map phi: src -> dst
    dualizes to the homomorphism from the map algebra of dst to the map
    algebra of src. ``truth`` is needed by the modes whose spaces do not
    carry their truth lattice. A mapping that is not total from the points
    of src into those of dst raises SpaceError."""
    mode = as_mode(mode)
    truth = mode.check_space(src, truth)
    mode.check_space(dst, truth)
    mapping = _check_total(mapping, src.points, dst.points, f"{mode.name}-map")
    fd, dvec = mode.reconstruct(dst, truth)
    fs, svec = mode.reconstruct(src, truth)
    out, wd = _index(
        (tuple(map(vec.__getitem__, mapping)) for vec in dvec),
        svec,
        lambda i: f"composite of {vector_name(fd.truth, dvec[i])} is not a map on the source",
    )
    checks = {"well_defined": wd}
    hom = None
    if out is not None:
        hom = Homomorphism(fd, fs, out)
        checks["homomorphism"] = is_homomorphism(hom.mapping, fd, fs)
    return hom, checks


def functor_identity_check(algebra, mode):
    """The dual of the identity is the identity."""
    mapping, checks = dual_map_of_hom(identity_hom(algebra), mode)
    bad = next((k for k, r in checks.items() if not r.passed), None)
    if bad is not None:
        return failed(f"dual of identity on {algebra.name!r} fails {bad}: {checks[bad].witness}")
    if mapping != tuple(range(len(mapping))):
        return failed(f"dual of identity on {algebra.name!r} is not the identity")
    return PASS


def functor_composition_check(f, g, mode):
    """Contravariance on a composable pair: the dual of g o f must equal the
    dual of f composed after the dual of g."""
    duals = [dual_map_of_hom(h, mode) for h in (compose_homs(g, f), f, g)]
    for _, checks in duals:
        bad = next((k for k, r in checks.items() if not r.passed), None)
        if bad is not None:
            return failed(f"dualized morphism fails {bad}: {checks[bad].witness}")
    (d_gf, _), (d_f, _), (d_g, _) = duals
    if tuple(map(d_f.__getitem__, d_g)) != d_gf:
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
    homs = enumerate_homs(algebra, make_bdl(truth, truth))
    report = DualityReport()
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
