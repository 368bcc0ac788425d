"""Finite bitopological and ordered topological spaces with validators.

Every space here is finite, so its topology is fixed by the smallest open
set around each point, the intersection of the subbasis sets through it
(Alexandrov 1937, "Diskrete Räume"). A ``Topology`` holds only these
minimal opens, one bitmask per point: a set is open when it contains the
minimal open of each of its points. Every validator reads the minimal opens
and is polynomial in the number of points.

Each law that the validators check over all opens (continuity, open images,
inclusion of one topology in another, the bases of zero-dimensionality)
holds for a union of opens once it holds for each of them. So it holds for
every open once it holds for the minimal ones, and the first failing open in
the canonical order (by size, then by sorted members) is a minimal open:
the witnesses are those a scan of the whole family would give. The family
of all opens is built only on request (``Topology.opens``), for tests and
tracing, and no validator reads it.

Topologies are built from subbasis masks (``topology_from_masks``), and the
order of an ordered space is held, like every order, as one up-set mask per
point (``Poset.up_masks``), so the morphism laws are decided on masks. The
order law and the back condition take their witness from the first failure
of the mask test, which is the first pair a scan of the order would find;
the Priestley separation of an object takes it from the smallest clopen
up-set around each point. Continuity and open images keep
their scan over the minimal opens, run only after the mask test fails, so
that their witness follows the canonical order.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import lvl_subalgebras
from .errors import BudgetExceeded, SpaceError
from .lattice import (
    FiniteLattice,
    Poset,
    _union_over,
    canonical_subset_order,
    mask_members,
    subset_mask,
)
from .reporting import PASS, _Frozen, failed

TOPOLOGY_FAMILY_LIMIT = 1 << 14


def _hull(mask, *steps):
    """The smallest superset of ``mask`` that contains ``step[i]`` for every
    member i and every step table."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        i = low.bit_length() - 1
        for step in steps:
            new = step[i] & ~mask
            mask |= new
            todo |= new
    return mask


class Topology(_Frozen):
    """A topology on points 0..size-1, held by the minimal open around each
    point: bit j of ``minopen[i]`` is set when j lies in every open set that
    contains i."""

    _fields = ("size", "minopen")

    def __init__(self, size: int, minopen: tuple[int, ...]):
        self.size = size
        self.minopen = minopen

    def is_open(self, subset):
        return self.is_open_mask(subset_mask(subset))

    def is_open_mask(self, mask):
        return not _union_over(mask, self.minopen) & ~mask

    @cached_property
    def point_closure(self):
        """Bit i of ``point_closure[j]`` is set when j lies in the minimal
        open of i: the closure of the point j."""
        closure = [0] * self.size
        for i, m in enumerate(self.minopen):
            for j in mask_members(m):
                closure[j] |= 1 << i
        return tuple(closure)

    @cached_property
    def minimal_opens(self):
        """The distinct minimal opens, in canonical order."""
        return canonical_subset_order(map(mask_members, set(self.minopen)))

    @cached_property
    def open_count(self):
        """The number of open sets, counted without building them. An open
        set either misses the lowest undecided point p, and with it every
        point whose minimal open contains p, or contains p's minimal open;
        how many ways remain depends only on the points left undecided."""
        minopen, closure = self.minopen, self.point_closure
        memo = {0: 1}

        def count(rest):
            got = memo.get(rest)
            if got is None:
                p = (rest & -rest).bit_length() - 1
                got = memo[rest] = count(rest & ~closure[p]) + count(rest & ~minopen[p])
            return got

        return count((1 << self.size) - 1)

    @cached_property
    def opens(self):
        """Every open set, in canonical order: the unions of the minimal
        opens. Built on first use only; raises BudgetExceeded beyond
        ``TOPOLOGY_FAMILY_LIMIT`` sets, before building any."""
        if self.open_count > TOPOLOGY_FAMILY_LIMIT:
            raise BudgetExceeded(
                f"topology over {self.size} points exceeded "
                f"{TOPOLOGY_FAMILY_LIMIT} open sets"
            )
        found = {0}
        for g in set(self.minopen):
            found |= {u | g for u in found}
        return canonical_subset_order(map(mask_members, found))


def topology_from_masks(size, masks):
    """Smallest topology containing the sets with the given bitmasks, held
    by its minimal opens: the minimal open of a point is the AND of the
    masks through it."""
    minopen = [(1 << size) - 1] * size
    for m in set(masks):
        rest = m
        while rest:
            low = rest & -rest
            minopen[low.bit_length() - 1] &= m
            rest ^= low
    return Topology(size, tuple(minopen))


def generate_topology(size, basis):
    """Smallest topology containing the basis sets, given as sets of
    points."""
    basis = [frozenset(b) for b in basis]
    for b in basis:
        if not all(0 <= i < size for i in b):
            raise SpaceError(
                "bad-basis", f"basis set {sorted(b)} is not a subset of the carrier"
            )
    return topology_from_masks(size, map(subset_mask, basis))


def discrete_topology(size):
    return topology_from_masks(size, [1 << i for i in range(size)])


def indiscrete_topology(size):
    return topology_from_masks(size, [])


class BitopSpace(_Frozen):
    _fields = ("points", "topo1", "topo2", "name")

    def __init__(
        self,
        points: tuple[str, ...],
        topo1: Topology,
        topo2: Topology,
        *,
        name: str = "bitop-space",
    ):
        self.points = points
        self.topo1 = topo1
        self.topo2 = topo2
        self.name = name
        if topo1.size != len(points) or topo2.size != len(points):
            raise SpaceError(
                "carrier-mismatch", f"topologies of {self.name!r} disagree with the point set"
            )

    def subset_name(self, subset):
        return "{" + ",".join(self.points[i] for i in sorted(subset)) + "}"


class OrderedSpace(_Frozen):
    """One topology plus a partial order on the same points."""

    _fields = ("points", "topo", "order", "name")

    def __init__(
        self, points: tuple[str, ...], topo: Topology, order: Poset, *, name: str = "ordered-space"
    ):
        self.points = points
        self.topo = topo
        self.order = order
        self.name = name
        if topo.size != len(points) or order.elements != points:
            raise SpaceError(
                "carrier-mismatch", f"structure of {self.name!r} disagrees with the point set"
            )

    def subset_name(self, subset):
        return "{" + ",".join(self.points[i] for i in sorted(subset)) + "}"


class AlphaAssignment(_Frozen):
    """Assignment from subalgebras of the truth lattice to point subsets.

    ``subalgebras`` and ``images`` are parallel tuples; subalgebras are
    frozensets of truth-lattice element indices in canonical order. The
    validators read the images as bitmasks (``image_masks``, ``image_mask``).
    """

    _fields = ("truth", "subalgebras", "images")

    def __init__(
        self,
        truth: FiniteLattice,
        subalgebras: tuple[frozenset, ...],
        images: tuple[frozenset, ...],
    ):
        self.truth = truth
        self.subalgebras = subalgebras
        self.images = images

    @cached_property
    def image_masks(self):
        """The image of each subalgebra as a bitmask over the points, keyed
        by the subalgebra in the order of ``subalgebras``."""
        masks = dict(zip(self.subalgebras, map(subset_mask, self.images)))
        if len(masks) != len(self.subalgebras):
            raise SpaceError("alpha-mismatch", "a subalgebra is assigned twice")
        return masks

    def image_mask(self, subalgebra):
        """The image of a subalgebra, as a bitmask over the points."""
        if subalgebra not in self.image_masks:
            raise SpaceError(
                "alpha-mismatch",
                f"no assignment for subalgebra {sorted(subalgebra)}",
            )
        return self.image_masks[subalgebra]

    def subalgebra_name(self, subalgebra):
        return "{" + ",".join(self.truth.elements[i] for i in sorted(subalgebra)) + "}"


class PbsObject(_Frozen):
    _fields = ("space", "alpha")

    def __init__(self, space: BitopSpace, alpha: AlphaAssignment):
        self.space = space
        self.alpha = alpha

    @property
    def name(self):
        return self.space.name


def is_pairwise_hausdorff(space, mode="unordered"):
    """Every two distinct points admit disjoint opens, one per topology.

    ``ordered`` demands the open from the first topology around the first
    point of every ordered pair; ``unordered`` accepts either orientation.
    The definition's quantifier is ambiguous, so both readings exist; the
    unordered one is the default used by the object validators.
    """
    n = len(space.points)
    minopen1, minopen2 = space.topo1.minopen, space.topo2.minopen

    def separated(i, j):
        return not minopen1[i] & minopen2[j]

    for i in range(n):
        for j in range(i + 1, n):
            if mode == "ordered":
                ok = separated(i, j) and separated(j, i)
            else:
                ok = separated(i, j) or separated(j, i)
            if not ok:
                return failed(
                    f"points {space.points[i]} and {space.points[j]} are not separated"
                )
    return PASS


def is_pairwise_compact(space):
    """Always passes: every family of opens over a finite carrier is finite,
    so each cover of a closed set is its own finite subcover. The verdict
    is kept so that every object report lists the same keys."""
    del space
    return PASS


def is_pairwise_zero_dimensional(space):
    """The opens of each topology that are closed in the other must form a
    basis of their own topology: the smallest such set around each point
    must be the point's minimal open."""
    for topo, other, tag in (
        (space.topo1, space.topo2, "1"),
        (space.topo2, space.topo1, "2"),
    ):
        hulls = [
            _hull(1 << y, topo.minopen, other.point_closure) for y in range(topo.size)
        ]
        for o in topo.minimal_opens:
            mask = subset_mask(o)
            if any(hulls[y] & ~mask for y in o):
                return failed(
                    f"open {space.subset_name(o)} of topology {tag} is not a union "
                    "of opens that are closed in the other topology"
                )
    return PASS


def is_pairwise_closed(space, mask):
    """Whether the set with bitmask ``mask`` is closed in both topologies."""
    comp = (1 << len(space.points)) - 1 & ~mask
    return space.topo1.is_open_mask(comp) and space.topo2.is_open_mask(comp)


def verify_pbs_object(obj):
    """All object laws for a pairwise-Boolean-space-with-assignment: the
    three pairwise properties, totality of the assignment over the
    subalgebra family, the full-set law, the intersection law, and pairwise
    closedness of every image. Returns a dict of named CheckResults."""
    space, alpha = obj.space, obj.alpha
    checks = {
        "pairwise_hausdorff": is_pairwise_hausdorff(space),
        "pairwise_compact": is_pairwise_compact(space),
        "pairwise_zero_dimensional": is_pairwise_zero_dimensional(space),
    }
    if tuple(alpha.subalgebras) != lvl_subalgebras(alpha.truth):
        raise SpaceError(
            "alpha-mismatch",
            f"assignment of {obj.name!r} is not indexed by the subalgebra family "
            f"of {alpha.truth.name!r}",
        )
    top_algebra = frozenset(range(len(alpha.truth)))
    res = PASS
    if alpha.image_mask(top_algebra) != (1 << len(space.points)) - 1:
        res = failed("the whole truth lattice is not assigned the full point set")
    checks["alpha_full"] = res

    res = PASS
    masks = alpha.image_masks
    for s2, m2 in masks.items():
        for s3, m3 in masks.items():
            if alpha.image_mask(s2 & s3) != m2 & m3:
                res = failed(
                    f"assignment breaks the intersection law at "
                    f"{alpha.subalgebra_name(s2)} and {alpha.subalgebra_name(s3)}"
                )
                break
        if not res.passed:
            break
    checks["alpha_intersections"] = res

    res = PASS
    for s, img in masks.items():
        if not is_pairwise_closed(space, img):
            res = failed(
                f"image {space.subset_name(mask_members(img))} of "
                f"{alpha.subalgebra_name(s)} "
                "is not pairwise closed"
            )
            break
    checks["alpha_images_closed"] = res
    return checks


def verify_pspa_object(space):
    """Priestley separation: whenever x is not below y some clopen up-set
    contains x and misses y, so the smallest clopen up-set around x must
    miss y."""
    topo, above = space.topo, space.order.up_masks
    for i, point in enumerate(space.points):
        bad = _hull(1 << i, topo.minopen, topo.point_closure, above) & ~above[i]
        if bad:
            j = (bad & -bad).bit_length() - 1
            return failed(f"no clopen up-set separates {point} from {space.points[j]}")
    return PASS


def verify_hspa_object(space):
    """On top of the Priestley laws, the down-closure of every clopen set
    must be clopen. Raises SpaceError when the space fails Priestley
    separation, and otherwise always passes: for any two points one is not
    below the other, so a clopen up-set separates them, every point is its
    own smallest clopen and the finite space is discrete, where every set
    is clopen. The verdict is kept so that every hspa report lists the same
    keys."""
    pspa = verify_pspa_object(space)
    if not pspa.passed:
        raise SpaceError(
            "pspa-invalid",
            f"{space.name!r} is not a valid ordered Stone space: {pspa.witness}",
        )
    return PASS


def _check_total(mapping, src_points, dst_points, name):
    mapping = tuple(mapping)
    if len(mapping) != len(src_points) or any(
        not 0 <= v < len(dst_points) for v in mapping
    ):
        raise SpaceError("carrier-mismatch", f"map {name!r} is not total")
    return mapping


def _maps_into(mapping, src_masks, dst_masks):
    """The first (i, j) with j in ``src_masks[i]`` whose image is not in
    ``dst_masks[mapping[i]]``, by i and then j, or None; the mask holds
    point i (it is the minimal open or the up-set of i), and i's image is
    in its target."""
    for i, (m, v) in enumerate(zip(src_masks, mapping)):
        target, m = dst_masks[v], m & ~(1 << i)
        while m:
            low = m & -m
            if not target >> mapping[low.bit_length() - 1] & 1:
                return i, low.bit_length() - 1
            m ^= low
    return None


def _maps_onto(mapping, src_masks, dst_masks):
    """The first (i, t) with t in ``dst_masks[mapping[i]]`` but not in the
    image of ``src_masks[i]``, by i and then t, or None."""
    points = [1 << v for v in mapping]
    for i, (m, v) in enumerate(zip(src_masks, mapping)):
        missed = dst_masks[v] & ~_union_over(m, points)
        if missed:
            return i, (missed & -missed).bit_length() - 1
    return None


def non_open_preimage(mapping, src_topo, dst_topo):
    """The first open of ``dst_topo`` whose preimage is not open, or None.
    The map is continuous when it sends the minimal open of each point into
    the minimal open of the point's image."""
    if _maps_into(mapping, src_topo.minopen, dst_topo.minopen) is None:
        return None
    for o in dst_topo.minimal_opens:
        if not src_topo.is_open_mask(
            subset_mask(i for i, v in enumerate(mapping) if v in o)
        ):
            return o
    return None


def non_open_image(mapping, src_topo, dst_topo):
    """The first open of ``src_topo`` whose image is not open in
    ``dst_topo``, or None. The map is open when the image of the minimal
    open of each point contains the minimal open of the point's image."""
    if _maps_onto(mapping, src_topo.minopen, dst_topo.minopen) is None:
        return None
    for o in src_topo.minimal_opens:
        if not dst_topo.is_open_mask(subset_mask(mapping[i] for i in o)):
            return o
    return None


def verify_pbs_morphism(mapping, src, dst):
    """Pairwise continuity plus preservation of the subalgebra assignment."""
    mapping = _check_total(mapping, src.space.points, dst.space.points, "pbs-map")
    checks = {}
    for tag, s_topo, d_topo in (
        ("continuous_1", src.space.topo1, dst.space.topo1),
        ("continuous_2", src.space.topo2, dst.space.topo2),
    ):
        bad = non_open_preimage(mapping, s_topo, d_topo)
        checks[tag] = (
            PASS
            if bad is None
            else failed(f"preimage of {dst.space.subset_name(bad)} is not open")
        )
    res = PASS
    for s, img in src.alpha.image_masks.items():
        target = dst.alpha.image_mask(s)
        for i in mask_members(img):
            if not target >> mapping[i] & 1:
                res = failed(
                    f"point {src.space.points[i]} lies in the image of "
                    f"{src.alpha.subalgebra_name(s)} but its value does not"
                )
                break
        if not res.passed:
            break
    checks["alpha_preserved"] = res
    return checks


def verify_pspa_morphism(mapping, src, dst):
    mapping = _check_total(mapping, src.points, dst.points, "pspa-map")
    bad = non_open_preimage(mapping, src.topo, dst.topo)
    checks = {
        "continuous": PASS
        if bad is None
        else failed(f"preimage of {dst.subset_name(bad)} is not open")
    }
    res = PASS
    bad = _maps_into(mapping, src.order.up_masks, dst.order.up_masks)
    if bad is not None:
        i, j = bad
        res = failed(
            f"order broken: {src.points[i]} <= {src.points[j]} "
            "but the images are not ordered"
        )
    checks["order_preserving"] = res
    return checks


def back_condition(mapping, src, dst):
    """The back condition of a total map of ordered spaces: whenever the
    image of s1 sits below some s2, a point above s1 maps onto s2: the
    image of the up-set of each point contains the up-set of its image."""
    bad = _maps_onto(mapping, src.order.up_masks, dst.order.up_masks)
    if bad is None:
        return PASS
    s1, s2 = bad
    return failed(
        f"back condition fails at {src.points[s1]} "
        f"(image below {dst.points[s2]}, nothing above maps onto it)"
    )


def verify_hspa_morphism(mapping, src, dst):
    """Ordered-space morphism laws plus the back condition."""
    checks = verify_pspa_morphism(mapping, src, dst)
    checks["back_condition"] = back_condition(tuple(mapping), src, dst)
    return checks
