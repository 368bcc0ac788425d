"""The tuple-at-a-time table build and vector closure that the packed-slice
kernel of ``dualbench.algebra`` replaced, kept verbatim as its slow oracle:
every vector is a tuple of truth values, and every table entry is a fresh
tuple looked up in a dict. Beside them, the n^2 scan of the meet rows that
``vector_algebra`` ran before it handed its lattice both order masks, the
recursive search for the order-preserving vectors that the one map search
of ``dualbench.duality`` replaced, and the filter that picks those vectors
out of a power."""

from dualbench.algebra import Algebra, PowerPresentation, _validate, vector_name
from dualbench.errors import AlgebraError
from dualbench.lattice import FiniteLattice, heyting_table, mask_members
from lattice_oracle import up_masks_of


def relativized_implication(truth, order):
    """The implication relativized to a poset on vector coordinates (the
    worlds of a frame, or the points of an ordered space), as a function of
    two truth-valued vectors: (u -> v)(w) = meet over w <= w' of
    u(w') -> v(w').

    The result depends only on the pointwise implication, so it is computed
    once per distinct pointwise vector: as the meet of that vector at w with
    the results at the covers of w, worlds taken from the top down."""
    hey = heyting_table(truth)
    meet = truth.meet
    # worlds above come first: a strictly larger world has a smaller up-set
    worlds = sorted(range(len(order)), key=lambda w: order.up_masks[w].bit_count())
    covers = [sorted(mask_members(m)) for m in order.cover_masks]
    known = {}

    def implies(u, v):
        pointwise = tuple([hey[x][y] for x, y in zip(u, v)])
        out = known.get(pointwise)
        if out is None:
            vals = list(pointwise)
            for w in worlds:
                val = vals[w]
                for c in covers[w]:
                    val = meet[val][vals[c]]
                vals[w] = val
            out = known[pointwise] = tuple(vals)
        return out

    return implies


def order_masks_of_meet(meet):
    """The up-set and down-set masks of a lattice given by its meet table,
    one scan of the rows and one of the columns: u <= v exactly when u meet
    v is u."""
    n = len(meet)
    up = tuple(sum(1 << k for k, x in enumerate(row) if x == i) for i, row in enumerate(meet))
    down = tuple(sum(1 << i for i in range(n) if meet[i][k] == i) for k in range(n))
    return up, down


def vector_algebra(vectors, truth, name, signature, order=None):
    """Pointwise algebra on a family of truth-valued vectors, with tables
    over the family alone. ``heyting`` and ``lvl`` take the pointwise
    relative pseudocomplement, and ``lvl`` the truth-constant operators,
    which the family must be closed under. ``isp_i`` relativizes the
    implication to ``order``, a poset on the coordinates, and carries its
    PowerPresentation over ``order``."""
    if not vectors:
        raise AlgebraError("empty-carrier", f"{name!r} has no maps at all")
    vectors = tuple(vectors)
    width = len(vectors[0])
    pos = {v: i for i, v in enumerate(vectors)}

    def table(op, what):
        out = tuple(tuple(pos.get(op(u, v), -1) for v in vectors) for u in vectors)
        if any(-1 in row for row in out):
            raise AlgebraError("not-closed", f"{name!r}: {what} leaves the map family")
        return out

    def pointwise(t):
        return lambda u, v: tuple([t[x][y] for x, y in zip(u, v)])

    def look(vec, what):
        i = pos.get(vec)
        if i is None:
            raise AlgebraError("not-closed", f"{name!r}: {what} leaves the map family")
        return i

    meet = table(pointwise(truth.meet), "a meet")
    lattice = FiniteLattice(
        tuple(vector_name(truth, v) for v in vectors),
        # pointwise, u <= v exactly when u meet v is u
        up_masks_of(tuple(k == i for k in row) for i, row in enumerate(meet)),
        meet,
        table(pointwise(truth.join), "a join"),
        look((truth.bottom,) * width, "the bottom"),
        look((truth.top,) * width, "the top"),
        name=name,
    )
    implies = None
    if signature in ("heyting", "lvl"):
        implies = table(pointwise(heyting_table(truth)), "an implication")
    elif signature == "isp_i":
        implies = table(relativized_implication(truth, order), "an implication")
    t_ops = None
    if signature == "lvl":
        t_ops = tuple(
            tuple(
                pos.get(tuple([truth.top if x == l else truth.bottom for x in v]), -1)
                for v in vectors
            )
            for l in range(len(truth))
        )
        if any(-1 in row for row in t_ops):
            raise AlgebraError(
                "not-closed", f"{name!r}: a truth-constant image leaves the map family"
            )
    presentation = PowerPresentation(order, vectors) if signature == "isp_i" else None
    return _validate(
        Algebra(
            signature,
            lattice,
            truth,
            implies=implies,
            t_ops=t_ops,
            presentation=presentation,
        )
    )


def close_vectors(truth, frame, seeds):
    """The seed vectors and both constant bounds, closed under pointwise
    meet and join and the frame-relativized implication, in sorted order
    (the power's index order).

    A worklist: each new vector is combined once with every vector already
    taken off the list, itself included, in both argument orders of the
    implication; a result not yet seen joins the list.
    """
    width = len(frame)
    meet, join = truth.meet, truth.join
    implies = relativized_implication(truth, frame)
    closed = {(truth.bottom,) * width, (truth.top,) * width, *seeds}
    work = list(closed)
    done = []
    while work:
        u = work.pop()
        done.append(u)
        for v in done:
            for vec in (
                tuple([meet[x][y] for x, y in zip(u, v)]),
                tuple([join[x][y] for x, y in zip(u, v)]),
                implies(u, v),
                implies(v, u),
            ):
                if vec not in closed:
                    closed.add(vec)
                    work.append(vec)
    return tuple(sorted(closed))


def monotone_vectors(truth, frame):
    """The order-preserving world-to-truth vectors in the power's index
    order, each prefix extended only by values that keep it
    order-preserving."""
    nw, nt = len(frame), len(truth)
    below = [[w2 for w2 in range(w) if frame.leq[w2][w]] for w in range(nw)]
    above = [[w2 for w2 in range(w) if frame.leq[w][w2]] for w in range(nw)]
    leq = truth.leq
    vec = [truth.bottom] * nw
    out = []

    def extend(w):
        if w == nw:
            out.append(tuple(vec))
            return
        for x in range(nt):
            if all(leq[vec[v]][x] for v in below[w]) and all(
                leq[x][vec[v]] for v in above[w]
            ):
                vec[w] = x
                extend(w + 1)

    extend(0)
    extend = None  # drop the closure's cycle through itself
    return tuple(out)


def monotone_vector_indices(power):
    """Indices of the order-preserving world-to-truth vectors in a power."""
    frame = power.presentation.frame
    truth = power.truth
    nw = len(frame)
    out = []
    for i, vec in enumerate(power.presentation.vectors):
        if all(
            truth.leq[vec[w]][vec[w2]]
            for w in range(nw)
            for w2 in range(nw)
            if frame.leq[w][w2]
        ):
            out.append(i)
    return tuple(out)
