"""Slow oracle for ``dualbench.topology``: every open set built as a
frozenset, and validators that quantify over the whole open family, as the
workbench had them before topologies were held by their minimal opens.

The tests cross-check the fast validators against these, verdicts and
witness strings alike. An oracle space is the workbench's own
``BitopSpace``, ``OrderedSpace`` or ``PbsObject`` with an ``OracleTopology``
in place of each ``Topology``; ``generate`` builds one from a subbasis by
the definition (unions of finite intersections), independently of the
minimal opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dualbench.errors import SpaceError
from dualbench.algebra import enumerate_subalgebras, make_lvl
from dualbench.reporting import PASS, failed
from dualbench.topology import topology_from_masks


def discrete_topology(size):
    return topology_from_masks(size, [1 << i for i in range(size)])


def indiscrete_topology(size):
    return topology_from_masks(size, [])


def canonical_family(subsets):
    return tuple(sorted(set(subsets), key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class OracleTopology:
    """An open-set family over points 0..size-1, closed under union and
    intersection and containing the empty and full sets."""

    size: int
    opens: tuple[frozenset, ...]

    @cached_property
    def _open_set(self):
        return frozenset(self.opens)

    def is_open(self, subset):
        return frozenset(subset) in self._open_set

    def clopen_sets(self):
        full = frozenset(range(self.size))
        return canonical_family(o for o in self.opens if full - o in self._open_set)


def generate(size, basis):
    """Every union of finite intersections of basis sets; the empty
    intersection is the full set and the empty union the empty set."""
    full = frozenset(range(size))
    meets = {full}
    todo = [frozenset(b) for b in basis]
    while todo:
        b = todo.pop()
        if b in meets:
            continue
        todo.extend(b & m for m in meets)
        meets.add(b)
    unions = {frozenset()}
    for m in meets:
        unions |= {u | m for u in unions}
    return OracleTopology(size, canonical_family(unions))


def is_pairwise_hausdorff(space, mode="unordered"):
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


def is_pairwise_zero_dimensional(space):
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


def image_of(alpha, subalgebra):
    """The image of a subalgebra as a frozenset, by a linear scan of the
    assignment."""
    for s, img in zip(alpha.subalgebras, alpha.images):
        if s == subalgebra:
            return img
    raise SpaceError(
        "alpha-mismatch",
        f"no assignment for subalgebra {sorted(subalgebra)}",
    )


def verify_pbs_object(obj):
    space, alpha = obj.space, obj.alpha
    checks = {
        "pairwise_hausdorff": is_pairwise_hausdorff(space),
        "pairwise_compact": PASS,
        "pairwise_zero_dimensional": is_pairwise_zero_dimensional(space),
    }
    expected = enumerate_subalgebras(make_lvl(alpha.truth))
    if tuple(alpha.subalgebras) != tuple(expected):
        raise SpaceError(
            "alpha-mismatch",
            f"assignment of {obj.name!r} is not indexed by the subalgebra family "
            f"of {alpha.truth.name!r}",
        )
    full = frozenset(range(len(space.points)))
    top_algebra = frozenset(range(len(alpha.truth)))
    res = PASS
    if image_of(alpha, top_algebra) != full:
        res = failed("the whole truth lattice is not assigned the full point set")
    checks["alpha_full"] = res

    res = PASS
    for s2 in alpha.subalgebras:
        for s3 in alpha.subalgebras:
            s1 = s2 & s3
            if image_of(alpha, s1) != image_of(alpha, s2) & image_of(alpha, s3):
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
    pspa = verify_pspa_object(space)
    if not pspa.passed:
        raise SpaceError(
            "pspa-invalid",
            f"{space.name!r} is not a valid ordered Stone space: {pspa.witness}",
        )
    clopens = space.topo.clopen_sets()
    clopen_set = set(clopens)
    up = space.order.up_masks
    for c in clopens:
        down = frozenset(i for i in range(len(up)) if any(up[i] >> j & 1 for j in c))
        if down not in clopen_set:
            return failed(
                f"down-closure {space.subset_name(down)} of clopen "
                f"{space.subset_name(c)} is not clopen"
            )
    return PASS


def non_open_preimage(mapping, src_topo, dst_topo):
    """The first open of the target whose preimage is not open, or None."""
    for o in dst_topo.opens:
        pre = frozenset(i for i, v in enumerate(mapping) if v in o)
        if not src_topo.is_open(pre):
            return o
    return None


def non_open_image(mapping, src_topo, dst_topo):
    """The first open of the source whose image is not open, or None."""
    for o in src_topo.opens:
        img = frozenset(mapping[i] for i in o)
        if not dst_topo.is_open(img):
            return o
    return None


def check_second_topology_inclusion(obj):
    for o in obj.space.topo2.opens:
        if not obj.space.topo1.is_open(o):
            return failed(
                f"{obj.space.subset_name(o)} is open in the second topology only"
            )
    return PASS


def order_preserving(mapping, src, dst):
    """The order law of an ordered-space map, pair by pair; the witness is
    the first pair (i, j) with i <= j whose images are not ordered."""
    n = len(src.points)
    for i in range(n):
        for j in range(n):
            if src.order.leq[i][j] and not dst.order.leq[mapping[i]][mapping[j]]:
                return failed(
                    f"order broken: {src.points[i]} <= {src.points[j]} "
                    "but the images are not ordered"
                )
    return PASS


def back_condition(mapping, src, dst):
    """The back condition point by point: whenever the image of s1 sits
    below some s2, a point above s1 maps onto s2."""
    for s1 in range(len(src.points)):
        for s2 in range(len(dst.points)):
            if not dst.order.leq[mapping[s1]][s2]:
                continue
            if not any(
                src.order.leq[s1][s] and mapping[s] == s2
                for s in range(len(src.points))
            ):
                return failed(
                    f"back condition fails at {src.points[s1]} "
                    f"(image below {dst.points[s2]}, nothing above maps onto it)"
                )
    return PASS


def downclosure_scan(algebra, space, homs):
    """The down-closure identity element by element, on frozensets and the
    order's bool matrix, with the first failing element as the witness: the
    scan that ``duality.check_downclosure_identity`` ran for its witness
    before the mask test gave it."""
    points = range(len(homs))
    top = algebra.truth.top
    bot = algebra.lattice.bottom
    leq = space.order.leq

    def basic_open(a):
        return frozenset(i for i, h in enumerate(homs) if h.mapping[a] == top)

    for a in range(len(algebra)):
        opened = basic_open(a)
        lhs = frozenset(j for j in points if any(leq[j][i] for i in opened))
        rhs = frozenset(points) - basic_open(algebra.implies[a][bot])
        if lhs != rhs:
            return failed(
                f"down-closure identity fails at {algebra.element_name(a)}: "
                f"{space.subset_name(lhs)} != {space.subset_name(rhs)}"
            )
    return PASS


def alpha_preserved(mapping, src, dst):
    """Every point in the image of a subalgebra maps into the image of the
    same subalgebra; the witness is the first such subalgebra, then its
    first point whose value is outside."""
    for s, img in zip(src.alpha.subalgebras, src.alpha.images):
        target = image_of(dst.alpha, s)
        for i in sorted(img):
            if mapping[i] not in target:
                return failed(
                    f"point {src.space.points[i]} lies in the image of "
                    f"{src.alpha.subalgebra_name(s)} but its value does not"
                )
    return PASS


def alpha_compatible(mapping, obj, gc_obj):
    """The map carries the image of each subalgebra onto the image of the
    same subalgebra in ``gc_obj``."""
    alpha = obj.alpha
    for s in alpha.subalgebras:
        if frozenset(mapping[p] for p in image_of(alpha, s)) != image_of(gc_obj.alpha, s):
            return failed(
                f"assignment image of {alpha.subalgebra_name(s)} "
                "does not match the double dual's"
            )
    return PASS
