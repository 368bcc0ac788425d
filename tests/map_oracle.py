"""Slow oracle for the map searches of ``dualbench.duality``: every candidate
map is built first and continuity is checked afterwards, one preimage at a
time, as the workbench did before continuity moved into the search.

The spaces may carry the workbench's ``Topology`` or the ``OracleTopology``
of ``topology_oracle``; only ``is_open`` is read. Neither function has a
budget, so both are for small spaces only.
"""

from __future__ import annotations

import itertools


def value_preimages(vec, nt):
    """The preimage of each of the nt truth values under vec."""
    pre = [set() for _ in range(nt)]
    for p, v in enumerate(vec):
        pre[v].add(p)
    return [frozenset(s) for s in pre]


def continuous(vec, nt, topologies):
    return all(
        topo.is_open(pre) for pre in value_preimages(vec, nt) for topo in topologies
    )


def order_preserving_vectors(space, truth):
    """Every order-preserving map into the truth lattice, by backtracking
    with the order constraints only."""
    n = len(space.points)
    nt = len(truth)
    leq_p = space.order.leq
    leq_t = truth.leq
    out = []
    vec = [0] * n

    def rec(i):
        if i == n:
            out.append(tuple(vec))
            return
        for v in range(nt):
            if all(
                (not leq_p[j][i] or leq_t[vec[j]][v])
                and (not leq_p[i][j] or leq_t[v][vec[j]])
                for j in range(i)
            ):
                vec[i] = v
                rec(i + 1)

    rec(0)
    return tuple(out)


def ordered_map_vectors(space, truth):
    """The continuous maps among the order-preserving ones."""
    nt = len(truth)
    return tuple(
        v for v in order_preserving_vectors(space, truth) if continuous(v, nt, (space.topo,))
    )


def assignment_vectors(obj):
    """Every map that respects the subalgebra assignment: the product of
    the allowed values per point."""
    nt = len(obj.alpha.truth)
    allowed = [set(range(nt)) for _ in obj.space.points]
    for s, img in zip(obj.alpha.subalgebras, obj.alpha.images):
        for p in img:
            allowed[p] &= s
    return tuple(itertools.product(*[sorted(a) for a in allowed]))


def pbs_map_vectors(obj):
    """The maps among the assignment-respecting ones that are continuous for
    both topologies."""
    nt = len(obj.alpha.truth)
    topologies = (obj.space.topo1, obj.space.topo2)
    return tuple(v for v in assignment_vectors(obj) if continuous(v, nt, topologies))
