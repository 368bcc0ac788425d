"""The corpus enumeration that scanned every strict order, kept as the
oracle for the generator in ``dualbench.corpus``.

It scans all 2^(n(n-1)/2) strict orders compatible with the index order,
keys each by the lexicographically least reflexive ``leq`` matrix over all
n! relabelings, and builds the down-set lattices by scanning all 2^n
subsets. Too slow beyond six join-irreducibles, but independent of the
generator, its pruned key and its down-set search.
"""

import itertools

from dualbench.lattice import FiniteLattice, Poset
from lattice_oracle import up_masks_of

POINT_NAMES = "abcdefg"


def _strict_orders(n):
    """All transitive strict orders on 0..n-1 compatible with the index
    order (every finite poset has such a labeling)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rel = [[False] * n for _ in range(n)]
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rel[i][j] = True
        ok = True
        for i in range(n):
            ri = rel[i]
            for j in range(i + 1, n):
                if ri[j]:
                    rj = rel[j]
                    for k in range(j + 1, n):
                        if rj[k] and not ri[k]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield rel
    return


def _canonical_key(rel, n):
    """Lexicographically minimal encoding of the reflexive order over all
    relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(
            perm[i] == perm[j] or rel[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        )
        if best is None or enc < best:
            best = enc
    return best


def _poset_from_key(key, n, names, name):
    leq = tuple(tuple(key[i * n + j] for j in range(n)) for i in range(n))
    return Poset(tuple(names[:n]), up_masks_of(leq), name=name)


def _count_downsets_capped(rel, n, cap):
    pred = [0] * n
    for i in range(n):
        for j in range(n):
            if rel[j][i]:
                pred[i] |= 1 << j
    count = 0
    for s in range(1 << n):
        m = s
        ok = True
        while m:
            b = (m & -m).bit_length() - 1
            if pred[b] & ~s:
                ok = False
                break
            m &= m - 1
        if ok:
            count += 1
            if count > cap:
                return count
    return count


def downset_lattice(poset, name):
    """The Birkhoff lattice of down-sets, by a scan of all 2^n subsets."""
    n = len(poset)
    downs = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all(
            poset.leq[j][i] <= (j in members)
            for i in members
            for j in range(n)
        ):
            downs.append(frozenset(members))
    downs.sort(key=lambda s: (len(s), sorted(s)))
    pos = {s: i for i, s in enumerate(downs)}
    names = tuple(
        "{" + ",".join(poset.elements[i] for i in sorted(s)) + "}" for s in downs
    )
    leq = tuple(tuple(u <= v for v in downs) for u in downs)
    meet = tuple(tuple(pos[u & v] for v in downs) for u in downs)
    join = tuple(tuple(pos[u | v] for v in downs) for u in downs)
    return FiniteLattice(
        names,
        up_masks_of(leq),
        meet,
        join,
        pos[frozenset()],
        pos[frozenset(range(n))],
        name=name,
    )


def corpus_frames(max_worlds=4):
    frames = []
    for n in range(1, max_worlds + 1):
        keys = {_canonical_key(rel, n) for rel in _strict_orders(n)}
        for idx, key in enumerate(sorted(keys)):
            names = tuple(f"w{i}" for i in range(n))
            frames.append(_poset_from_key(key, n, names, f"frame{n}_{idx}"))
    return tuple(frames)


def corpus_lattices(max_size=7):
    entries = []
    for n in range(1, max_size):
        seen = set()
        for rel in _strict_orders(n):
            if _count_downsets_capped(rel, n, max_size) > max_size:
                continue
            key = _canonical_key(rel, n)
            if key in seen:
                continue
            seen.add(key)
        for key in sorted(seen):
            entries.append((n, key, _poset_from_key(key, n, POINT_NAMES, "jirr")))
    sized = []
    for n, key, poset in entries:
        sized.append((len(downset_lattice(poset, "tmp")), n, key, poset))
    sized.sort(key=lambda t: (t[0], t[1], t[2]))
    out = []
    counters = {}
    for size, n, key, poset in sized:
        idx = counters.get(size, 0)
        counters[size] = idx + 1
        out.append(downset_lattice(poset, f"L{size}_{idx}"))
    return tuple(out)
