"""Finite bitopological and ordered topological spaces with validators.

Topologies are fully materialized open-set families: every validator here
quantifies over opens. On a finite carrier the topology generated by a
subbasis is exactly the family of unions of minimal opens (the intersection
of all subbasis sets through a point), so generation is output-sensitive and
a budget cap cuts off spaces whose families would not stay desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceeded, SpaceError
from .lattice import FiniteLattice, Poset
from .reporting import PASS, failed

TOPOLOGY_FAMILY_LIMIT = 1 << 14


@dataclass(frozen=True)
class Topology:
    """An open-set family over points 0..size-1, closed under union and
    intersection and containing the empty and full sets."""

    size: int
    opens: tuple[frozenset, ...]

    @cached_property
    def _open_set(self):
        return frozenset(self.opens)

    def is_open(self, subset):
        return frozenset(subset) in self._open_set

    def closed_sets(self):
        full = frozenset(range(self.size))
        return canonical_family(full - o for o in self.opens)

    @cached_property
    def _clopens(self):
        full = frozenset(range(self.size))
        return canonical_family(
            o for o in self.opens if full - o in self._open_set
        )

    def clopen_sets(self):
        return self._clopens


def canonical_family(subsets):
    return tuple(sorted(set(subsets), key=lambda s: (len(s), sorted(s))))


def generate_topology(size, basis, limit=TOPOLOGY_FAMILY_LIMIT):
    """Smallest topology containing the basis sets.

    Computed through minimal opens: the sets of the generated topology are
    precisely the unions of per-point minimal opens, collected by a bitmask
    fixpoint. Raises BudgetExceeded when the family would pass ``limit``.
    """
    full_mask = (1 << size) - 1
    masks = []
    for b in basis:
        b = frozenset(b)
        if not all(0 <= i < size for i in b):
            raise SpaceError(
                "bad-basis", f"basis set {sorted(b)} is not a subset of the carrier"
            )
        m = 0
        for i in b:
            m |= 1 << i
        masks.append(m)
    minopen = []
    for i in range(size):
        m = full_mask
        for bm in masks:
            if bm >> i & 1:
                m &= bm
        minopen.append(m)
    generators = sorted(set(minopen))
    found = {0, full_mask}
    queue = [0, full_mask]
    while queue:
        u = queue.pop()
        for g in generators:
            v = u | g
            if v not in found:
                if len(found) >= limit:
                    raise BudgetExceeded(
                        f"topology over {size} points exceeded {limit} open sets"
                    )
                found.add(v)
                queue.append(v)
    opens = [
        frozenset(i for i in range(size) if m >> i & 1) for m in found
    ]
    return Topology(size, canonical_family(opens))


def discrete_topology(size):
    return generate_topology(size, [frozenset([i]) for i in range(size)])


def indiscrete_topology(size):
    return generate_topology(size, [])


@dataclass(frozen=True)
class BitopSpace:
    points: tuple[str, ...]
    topo1: Topology
    topo2: Topology
    name: str = field(default="bitop-space", kw_only=True)

    def __post_init__(self):
        if self.topo1.size != len(self.points) or self.topo2.size != len(self.points):
            raise SpaceError(
                "carrier-mismatch", f"topologies of {self.name!r} disagree with the point set"
            )

    def subset_name(self, subset):
        return "{" + ",".join(self.points[i] for i in sorted(subset)) + "}"


@dataclass(frozen=True)
class OrderedSpace:
    """One topology plus a partial order on the same points."""

    points: tuple[str, ...]
    topo: Topology
    order: Poset
    name: str = field(default="ordered-space", kw_only=True)

    def __post_init__(self):
        if self.topo.size != len(self.points) or self.order.elements != self.points:
            raise SpaceError(
                "carrier-mismatch", f"structure of {self.name!r} disagrees with the point set"
            )

    def subset_name(self, subset):
        return "{" + ",".join(self.points[i] for i in sorted(subset)) + "}"


@dataclass(frozen=True)
class AlphaAssignment:
    """Assignment from subalgebras of the truth lattice to point subsets.

    ``subalgebras`` and ``images`` are parallel tuples; subalgebras are
    frozensets of truth-lattice element indices in canonical order.
    """

    truth: FiniteLattice
    subalgebras: tuple[frozenset, ...]
    images: tuple[frozenset, ...]

    def image_of(self, subalgebra):
        for s, img in zip(self.subalgebras, self.images):
            if s == subalgebra:
                return img
        raise SpaceError(
            "alpha-mismatch",
            f"no assignment for subalgebra {sorted(subalgebra)}",
        )

    def subalgebra_name(self, subalgebra):
        return "{" + ",".join(self.truth.elements[i] for i in sorted(subalgebra)) + "}"


@dataclass(frozen=True)
class PbsObject:
    space: BitopSpace
    alpha: AlphaAssignment

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

    def separated(i, j):
        for o1 in space.topo1.opens:
            if i not in o1:
                continue
            for o2 in space.topo2.opens:
                if j in o2 and not o1 & o2:
                    return True
        return False

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
    basis of their own topology."""
    for topo, other, tag in (
        (space.topo1, space.topo2, "1"),
        (space.topo2, space.topo1, "2"),
    ):
        other_opens = other._open_set
        full = frozenset(range(topo.size))
        admissible = [o for o in topo.opens if full - o in other_opens]
        for o in topo.opens:
            union = frozenset().union(*[b for b in admissible if b <= o])
            if union != o:
                return failed(
                    f"open {space.subset_name(o)} of topology {tag} is not a union "
                    "of opens that are closed in the other topology"
                )
    return PASS


def is_pairwise_closed(space, subset):
    full = frozenset(range(len(space.points)))
    comp = full - frozenset(subset)
    return space.topo1.is_open(comp) and space.topo2.is_open(comp)


def verify_pbs_object(obj):
    """All object laws for a pairwise-Boolean-space-with-assignment: the
    three pairwise properties, totality of the assignment over the
    subalgebra family, the full-set law, the intersection law, and pairwise
    closedness of every image. Returns a dict of named CheckResults."""
    from .lattice import enumerate_subalgebras

    space, alpha = obj.space, obj.alpha
    checks = {
        "pairwise_hausdorff": is_pairwise_hausdorff(space),
        "pairwise_compact": is_pairwise_compact(space),
        "pairwise_zero_dimensional": is_pairwise_zero_dimensional(space),
    }
    expected = enumerate_subalgebras(alpha.truth, "lvl")
    if tuple(alpha.subalgebras) != tuple(expected):
        raise SpaceError(
            "alpha-mismatch",
            f"assignment of {obj.name!r} is not indexed by the subalgebra family "
            f"of {alpha.truth.name!r}",
        )
    full = frozenset(range(len(space.points)))
    top_algebra = frozenset(range(len(alpha.truth)))
    res = PASS
    if alpha.image_of(top_algebra) != full:
        res = failed("the whole truth lattice is not assigned the full point set")
    checks["alpha_full"] = res

    res = PASS
    for s2 in alpha.subalgebras:
        for s3 in alpha.subalgebras:
            s1 = s2 & s3
            if alpha.image_of(s1) != alpha.image_of(s2) & alpha.image_of(s3):
                res = failed(
                    f"assignment breaks the intersection law at "
                    f"{alpha.subalgebra_name(s2)} and {alpha.subalgebra_name(s3)}"
                )
                break
        if not res.passed:
            break
    checks["alpha_intersections"] = res

    res = PASS
    for s, img in zip(alpha.subalgebras, alpha.images):
        if not is_pairwise_closed(space, img):
            res = failed(
                f"image {space.subset_name(img)} of {alpha.subalgebra_name(s)} "
                "is not pairwise closed"
            )
            break
    checks["alpha_images_closed"] = res
    return checks


def clopen_upsets(space):
    return tuple(o for o in space.topo.clopen_sets() if space.order.is_upset(o))


def verify_pspa_object(space):
    """Priestley separation: whenever x is not below y some clopen up-set
    contains x and misses y."""
    ups = clopen_upsets(space)
    n = len(space.points)
    for i in range(n):
        for j in range(n):
            if space.order.leq[i][j]:
                continue
            if not any(i in u and j not in u for u in ups):
                return failed(
                    f"no clopen up-set separates {space.points[i]} from {space.points[j]}"
                )
    return PASS


def verify_hspa_object(space):
    """On top of the Priestley laws, the down-closure of every clopen set
    must be clopen."""
    pspa = verify_pspa_object(space)
    if not pspa.passed:
        raise SpaceError(
            "pspa-invalid",
            f"{space.name!r} is not a valid ordered Stone space: {pspa.witness}",
        )
    clopens = space.topo.clopen_sets()
    clopen_set = set(clopens)
    for c in clopens:
        down = space.order.down_closure(c)
        if down not in clopen_set:
            return failed(
                f"down-closure {space.subset_name(down)} of clopen "
                f"{space.subset_name(c)} is not clopen"
            )
    return PASS


def _check_total(mapping, src_points, dst_points, name):
    mapping = tuple(mapping)
    if len(mapping) != len(src_points) or any(
        not 0 <= v < len(dst_points) for v in mapping
    ):
        raise SpaceError("carrier-mismatch", f"map {name!r} is not total")
    return mapping


def _continuous(mapping, src_topo, dst_topo):
    for o in dst_topo.opens:
        pre = frozenset(i for i, v in enumerate(mapping) if v in o)
        if not src_topo.is_open(pre):
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
        bad = _continuous(mapping, s_topo, d_topo)
        checks[tag] = (
            PASS
            if bad is None
            else failed(f"preimage of {dst.space.subset_name(bad)} is not open")
        )
    res = PASS
    for s, img in zip(src.alpha.subalgebras, src.alpha.images):
        target = dst.alpha.image_of(s)
        for i in sorted(img):
            if mapping[i] not in target:
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
    bad = _continuous(mapping, src.topo, dst.topo)
    checks = {
        "continuous": PASS
        if bad is None
        else failed(f"preimage of {dst.subset_name(bad)} is not open")
    }
    res = PASS
    n = len(src.points)
    for i in range(n):
        for j in range(n):
            if src.order.leq[i][j] and not dst.order.leq[mapping[i]][mapping[j]]:
                res = failed(
                    f"order broken: {src.points[i]} <= {src.points[j]} "
                    "but the images are not ordered"
                )
                break
        if not res.passed:
            break
    checks["order_preserving"] = res
    return checks


def verify_hspa_morphism(mapping, src, dst):
    """Ordered-space morphism laws plus the back condition: whenever the
    image of s1 sits below some s2, a point above s1 maps onto s2."""
    checks = verify_pspa_morphism(mapping, src, dst)
    mapping = tuple(mapping)
    res = PASS
    for s1 in range(len(src.points)):
        for s2 in range(len(dst.points)):
            if not dst.order.leq[mapping[s1]][s2]:
                continue
            if not any(
                src.order.leq[s1][s] and mapping[s] == s2
                for s in range(len(src.points))
            ):
                res = failed(
                    f"back condition fails at {src.points[s1]} "
                    f"(image below {dst.points[s2]}, nothing above maps onto it)"
                )
                break
        if not res.passed:
            break
    checks["back_condition"] = res
    return checks
