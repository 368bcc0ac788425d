"""Intuitionistic frames and frame-indexed powers of the truth lattice.

The power of a truth lattice over a frame has every function from worlds to
truth values in its carrier, nt^nw of them. Its lattice operations are
pointwise; its implication is not: at a world it is the meet, over every
world above, of the pointwise Heyting implications.

The algebras of interest are small subalgebras of the power: the up-set
algebra, or the subalgebra a document generates. The subalgebra a document
generates is built by closing its generating vectors (and both bounds)
under those operations. The up-set algebra needs no closing: its family,
the order-preserving vectors, is closed already. Pointwise meet and join
keep a vector order-preserving, and the implication of any two vectors is
order-preserving, because a larger world has a smaller up-set to take its
meet over. Either way the tables range over the family alone; the power
itself is materialized only when it is asked for.

Both the closure and the tables work on packed vectors
(``algebra.packed_slices``). The truth lattice is distributive, so by
Birkhoff's representation each value is the set of join-irreducibles below
it, and a vector over nw worlds is one int with an nw-bit slice per
join-irreducible. Meet is ``&`` and join is ``|``. The implication is
``~u | v``, ANDed in each slice with the slices of the join-irreducibles
below it, and then, for the meet over the worlds above, each slice is
replaced by its interior in the up-set topology of the frame (the worlds
whose whole up-set lies in it). Over the two-element chain that is one
memoized lookup, ``interior[(~u | v) & full]``.
"""

from __future__ import annotations

import itertools

from .algebra import packed_slices, vector_algebra, vector_name
from .duality import HSPA, _map_vectors
from .errors import AlgebraError, BudgetExceeded
from .lattice import heyting_table
from .reporting import PASS, failed

DEFAULT_POWER_BUDGET = 4096


def build_frame(worlds, order_pairs, name="frame"):
    """An intuitionistic frame is just a finite poset of worlds."""
    from .lattice import build_poset

    return build_poset(worlds, order_pairs, name=name)


def intuitionistic_power(truth, frame, budget=DEFAULT_POWER_BUDGET, name=None):
    """The full power of the truth lattice over a frame, with pointwise
    lattice operations and the frame-relativized implication
    (f -> g)(w) = meet over w <= w' of f(w') -> g(w'). A carrier over the
    budget is refused before anything over it is built.
    """
    nw, nt = len(frame), len(truth)
    if nt**nw > budget:
        raise BudgetExceeded(
            f"power carrier {nt}^{nw} exceeds the budget of {budget} elements"
        )
    vectors = tuple(itertools.product(range(len(truth)), repeat=len(frame)))
    name = name or f"{truth.name}^{frame.name}"
    return vector_algebra(vectors, truth, name, "isp_i", order=frame)


def close_vectors(truth, frame, seeds, budget=DEFAULT_POWER_BUDGET):
    """The seed vectors and both constant bounds, closed under pointwise
    meet and join and the frame-relativized implication, in sorted order
    (the power's index order). The budget bounds the closed family, not the
    power around it: BudgetExceeded is raised as soon as more than
    ``budget`` vectors are found.

    A worklist on packed vectors (``packed_slices``): each new vector is
    combined once with every vector already taken off the list, itself
    included, in both argument orders of the implication; a result not yet
    seen joins the list. Only the closed family is unpacked."""
    full, encode, decode, implication, _ = packed_slices(truth, len(frame), frame)
    closed = {0, full, *map(encode, seeds)}

    def refuse():
        raise BudgetExceeded(
            f"the closure of the generators over {frame.name!r} has more than "
            f"{budget} elements"
        )

    if len(closed) > budget:
        refuse()
    work = list(closed)
    done = []
    while work:
        u = work.pop()
        done.append(u)
        nu = ~u
        for v in done:
            for p in (
                u & v,
                u | v,
                implication[(nu | v) & full],
                implication[(~v | u) & full],
            ):
                if p not in closed:
                    closed.add(p)
                    if len(closed) > budget:
                        refuse()
                    work.append(p)
    return tuple(sorted(map(decode, closed)))


def power_subalgebra(truth, frame, generators, name=None, budget=DEFAULT_POWER_BUDGET):
    """The subalgebra of the power of the truth lattice over a frame that
    the generator vectors (plus both bounds) generate, built without
    materializing the power. Elements come in the power's index order. The
    default name is the power's name, ``truth^frame``, followed by the
    carrier, as ``subalgebra_of`` names a subset. The budget bounds the
    closed carrier (``close_vectors``)."""
    closed = close_vectors(truth, frame, generators, budget)
    if name is None:
        carrier = "".join(vector_name(truth, v) for v in closed)
        name = f"{truth.name}^{frame.name}|{carrier}"
    return vector_algebra(closed, truth, name, "isp_i", order=frame)


def monotone_vectors(truth, frame, limit=DEFAULT_POWER_BUDGET):
    """The order-preserving world-to-truth vectors in the power's index
    order: the map search of ``duality._map_vectors`` with no topology. It
    raises BudgetExceeded once more than ``limit`` vectors are kept."""
    nw, nt = len(frame), len(truth)
    what = f"order-preserving vectors over {frame.name!r}"
    return _map_vectors([(1 << nt) - 1] * nw, (), frame, truth, limit, what)


def upset_algebra(truth, frame, budget=DEFAULT_POWER_BUDGET):
    """The subalgebra generated by every order-preserving vector; over the
    two-element truth lattice this is the Heyting algebra of up-sets. The
    budget bounds that family, not the power it is a subalgebra of: the map
    search stops once more than ``budget`` vectors are kept, before any
    table is built.

    The order-preserving vectors are that subalgebra already, so they are
    not closed again: pointwise meet and join keep a vector
    order-preserving, and the implication of any two vectors is
    order-preserving, since at a larger world the meet runs over a smaller
    up-set. ``vector_algebra`` still refuses a family that is not closed.

    The algebra is built once per truth lattice (by value) and budget and
    kept in the frame's ``derived``, so every suite that reads it shares
    one object; a refusal keeps nothing and is raised again on each call."""
    key = ("upset_algebra", truth, budget)
    algebra = frame.derived.get(key)
    if algebra is None:
        vectors = monotone_vectors(truth, frame, budget)
        algebra = frame.derived[key] = vector_algebra(
            vectors, truth, f"up({frame.name})", "isp_i", order=frame
        )
    return algebra


def _kripke_columns_agree(algebra, homs, order):
    """The Kripke condition on packed columns (``packed_slices`` over the
    homs, relativized to their ``order``; the truth lattice is distributive):
    ``col[a]`` packs h(a) over the homs h, and the relativized implication
    of ``col[x]`` and ``col[y]`` is, at v, the meet of w(x) -> w(y) over
    the homs w above v."""
    full, encode, _, implication, _ = packed_slices(algebra.truth, len(homs), order)
    # with no homs there are no columns, and nothing to check
    cols = [encode(column) for column in zip(*[h.mapping for h in homs])]
    for x, row in zip(cols, algebra.implies):
        nx = ~x
        if [cols[xy] for xy in row] != [implication[(nx | y) & full] for y in cols]:
            return False
    return True


def _kripke_scan(algebra, homs, order):
    """The Kripke condition hom by hom, over the homs above each in
    ``order``; the witness is the first failing v, then its first (x, y)."""
    truth = algebra.truth
    hey = heyting_table(truth)
    n = len(algebra)
    for vi, (v, up) in enumerate(zip(homs, order.up_masks)):
        succ = [w for wi, w in enumerate(homs) if up >> wi & 1]
        for x in range(n):
            for y in range(n):
                expected = truth.top
                for w in succ:
                    expected = truth.meet[expected][hey[w.mapping[x]][w.mapping[y]]]
                if v.mapping[algebra.implies[x][y]] != expected:
                    return failed(
                        f"hom h{vi} [{v.describe()}]: v(x->y) != meet of "
                        f"w(x)->w(y) at x={algebra.element_name(x)}, "
                        f"y={algebra.element_name(y)}"
                    )
    return PASS


def kripke_condition_check(algebra):
    """The intuitionistic Kripke model condition: for every hom v of the
    bounded-lattice reduct into the truth lattice, and all x, y,
    v(x -> y) must equal the meet of w(x) -> w(y) over all homs w above v
    in the pointwise order. Witness is (v, x, y) on failure.

    The homs and their order are those of the hspa dual, which a
    verification scope shares. The verdict comes from packed columns over a
    distributive truth lattice; the hom-by-hom scan runs otherwise, and
    after a mismatch for its witness."""
    if algebra.signature != "isp_i":
        raise AlgebraError(
            "signature-mismatch",
            f"Kripke condition check needs an isp_i algebra, got {algebra.signature}",
        )
    space, homs = HSPA.dual(algebra)
    order = space.order
    if algebra.truth.is_distributive and _kripke_columns_agree(algebra, homs, order):
        return PASS
    return _kripke_scan(algebra, homs, order)
