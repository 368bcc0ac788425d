"""The hom search that ``dualbench.algebra.enumerate_homs`` replaced, kept
verbatim as its slow oracle: a backtracking search over every element of
the source, with each assignment propagated through every operation table
by a worklist. It assumes nothing of either lattice, distributivity
included. ``hom_leq`` and ``hom_leq_masks`` are the elementwise oracle of
``dualbench.algebra.hom_order``."""

from __future__ import annotations

import operator

from dualbench.algebra import Homomorphism, _op_tables, _require_compatible


def _commutative(table):
    return all(map(operator.eq, map(tuple, table), zip(*table)))


def enumerate_homs(a, b):
    """All homomorphisms a -> b, canonically ordered (lexicographic over the
    image tuple in declaration order).

    Backtracking search: bounds are pinned, and every assignment is
    propagated through the operation tables by a worklist in the style of
    AC-3 (Mackworth 1977). Each newly fixed element x is applied once to
    every unary table and paired once with every element already processed,
    x itself included, in both argument orders of every binary table; a
    forced image that is still free joins the worklist, one that disagrees
    kills the branch. A table pair that is commutative on both sides (meet
    and join always are) needs one argument order only: the other forces
    the same image to the same value. So fixing h(x) and h(y) forces
    h(x meet y), h(x join y), and so on, without rescanning pairs already
    checked. The forced closure does not depend on the order of work. Dead
    branches are cut by order-compatibility with the assigned elements
    strictly above and below. brute_force_homs is the scan oracle.
    """
    _require_compatible(a, b)
    n, m = len(a), len(b)
    consts, unaries, binaries = _op_tables(a, b)
    binaries = [
        (ta, tb, _commutative(ta) and _commutative(tb)) for _, ta, tb in binaries
    ]
    unaries = [(ta, tb) for _, ta, tb in unaries]
    leq_a, leq_b = a.lattice.leq, b.lattice.leq
    strictly_above = [
        [j for j in range(n) if j != i and leq_a[i][j]] for i in range(n)
    ]
    strictly_below = [
        [j for j in range(n) if j != i and leq_a[j][i]] for i in range(n)
    ]
    assign = [-1] * n
    # fixed elements whose table entries against each other are all checked
    done = []

    def propagate(trail):
        head = 0
        while head < len(trail):
            x = trail[head]
            head += 1
            vx = assign[x]
            for ta, tb in unaries:
                k, forced = ta[x], tb[vx]
                if assign[k] < 0:
                    assign[k] = forced
                    trail.append(k)
                elif assign[k] != forced:
                    return False
            done.append(x)
            for ta, tb, commutative in binaries:
                row_a, row_b = ta[x], tb[vx]
                for y in done:
                    vy = assign[y]
                    k, forced = row_a[y], row_b[vy]
                    if assign[k] < 0:
                        assign[k] = forced
                        trail.append(k)
                    elif assign[k] != forced:
                        return False
                    if commutative:
                        continue
                    k, forced = ta[y][x], tb[vy][vx]
                    if assign[k] < 0:
                        assign[k] = forced
                        trail.append(k)
                    elif assign[k] != forced:
                        return False
        return True

    def consistent(i, v):
        row_v = leq_b[v]
        for j in strictly_above[i]:
            w = assign[j]
            if w >= 0 and not row_v[w]:
                return False
        for j in strictly_below[i]:
            w = assign[j]
            if w >= 0 and not leq_b[w][v]:
                return False
        return True

    found = []

    def search():
        for i in range(n):
            if assign[i] < 0:
                mark = len(done)
                for v in range(m):
                    if not consistent(i, v):
                        continue
                    trail = [i]
                    assign[i] = v
                    if propagate(trail):
                        search()
                    for k in trail:
                        assign[k] = -1
                    del done[mark:]
                return
        found.append(tuple(assign))

    trail = []
    ok = True
    for _, ia, ib in consts:
        if assign[ia] < 0:
            assign[ia] = ib
            trail.append(ia)
        elif assign[ia] != ib:
            ok = False
    if ok and propagate(trail):
        search()
    return tuple(
        Homomorphism(a, b, mapping) for mapping in sorted(found)
    )


def hom_leq(h1, h2):
    """Pointwise order on homomorphisms into a common target."""
    leq = h1.target.lattice.leq
    return all(leq[x][y] for x, y in zip(h1.mapping, h2.mapping))


def hom_leq_masks(homs):
    """The up-set masks of the pointwise order, pair by pair with hom_leq."""
    return tuple(sum(1 << j for j, w in enumerate(homs) if hom_leq(v, w)) for v in homs)
