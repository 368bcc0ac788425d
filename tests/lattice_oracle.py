"""The lattice build that ``dualbench.lattice.build_lattice`` replaced, kept
verbatim as its slow oracle: the order's closure on a bool matrix, each meet
and join found by listing the common bounds and scanning them for a greatest
(least) one, and distributivity checked one triple at a time; and the
subset closure that rescans every pair until nothing new appears."""

from dualbench.errors import LatticeError
from dualbench.lattice import FiniteLattice, Poset


def up_masks_of(leq):
    """The up-set masks of an order given as a bool matrix, the one form in
    which a ``Poset`` holds it: bit j of row i is set when leq[i][j]."""
    return tuple(sum(1 << j for j, le in enumerate(row) if le) for row in leq)


def cover_pairs(order):
    """(i, j) for each cover of an order, j covering i: i < j with nothing
    strictly between them, by the definition on its up-set masks."""
    n = range(len(order))
    below = [[i != j and bool(up >> j & 1) for j in n] for i, up in enumerate(order.up_masks)]
    return [
        (i, j)
        for i in n
        for j in n
        if below[i][j] and not any(below[i][k] and below[k][j] for k in n)
    ]


def lattice_text(lattice):
    """A lattice document that declares the lattice by its cover pairs."""
    names = lattice.elements
    leq = " ".join(f"{names[i]}<={names[j]}" for i, j in cover_pairs(lattice))
    return (
        f"kind: lattice\nname: {lattice.name}\nelements: {' '.join(names)}\n"
        f"leq: {leq}\nbottom: {names[lattice.bottom]}\ntop: {names[lattice.top]}\n"
    )


def _transitive_reflexive_closure(n, pairs):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def build_poset(elements, pairs, name="poset"):
    """Validated poset from named leq pairs; closure is applied first."""
    elements = tuple(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise LatticeError(
                "duplicate-element", f"element {e!r} declared twice in {name}", (e,)
            )
        seen.add(e)
    index = {e: i for i, e in enumerate(elements)}
    numeric = []
    for a, b in pairs:
        if a not in index:
            raise LatticeError("unknown-element", f"unknown element {a!r} in {name}", (a,))
        if b not in index:
            raise LatticeError("unknown-element", f"unknown element {b!r} in {name}", (b,))
        numeric.append((index[a], index[b]))
    leq = _transitive_reflexive_closure(len(elements), numeric)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if leq[i][j] and leq[j][i]:
                raise LatticeError(
                    "not-a-poset",
                    f"cycle between {elements[i]!r} and {elements[j]!r} in {name}",
                    (elements[i], elements[j]),
                )
    return Poset(elements, up_masks_of(leq), name=name)


def _glb(poset, i, j):
    lower = [k for k in range(len(poset)) if poset.leq[k][i] and poset.leq[k][j]]
    for g in lower:
        if all(poset.leq[k][g] for k in lower):
            return g
    return None


def _lub(poset, i, j):
    upper = [k for k in range(len(poset)) if poset.leq[i][k] and poset.leq[j][k]]
    for g in upper:
        if all(poset.leq[g][k] for k in upper):
            return g
    return None


def build_lattice(elements, leq_pairs, bottom, top, name="lattice"):
    """Validated bounded distributive lattice with derived operation tables.

    Raises LatticeError with the first violated law and a witness: a cycle
    pair for ``not-a-poset``, a pair for ``missing-meet``/``missing-join``,
    a triple for ``not-distributive``, the offending element for
    ``wrong-bounds``.
    """
    poset = build_poset(elements, leq_pairs, name=name)
    n = len(poset)
    bot, topi = poset.index(bottom), poset.index(top)
    for x in range(n):
        if not poset.leq[bot][x]:
            raise LatticeError(
                "wrong-bounds",
                f"declared bottom {bottom!r} is not below {poset.elements[x]!r}",
                (bottom, poset.elements[x]),
            )
        if not poset.leq[x][topi]:
            raise LatticeError(
                "wrong-bounds",
                f"declared top {top!r} is not above {poset.elements[x]!r}",
                (top, poset.elements[x]),
            )
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            g = _glb(poset, i, j)
            if g is None:
                raise LatticeError(
                    "missing-meet",
                    f"{poset.elements[i]!r} and {poset.elements[j]!r} have no meet",
                    (poset.elements[i], poset.elements[j]),
                )
            s = _lub(poset, i, j)
            if s is None:
                raise LatticeError(
                    "missing-join",
                    f"{poset.elements[i]!r} and {poset.elements[j]!r} have no join",
                    (poset.elements[i], poset.elements[j]),
                )
            meet[i][j] = g
            join[i][j] = s
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    names = (poset.elements[x], poset.elements[y], poset.elements[z])
                    raise LatticeError(
                        "not-distributive",
                        "meet does not distribute over join at "
                        f"({names[0]!r}, {names[1]!r}, {names[2]!r})",
                        names,
                    )
    return FiniteLattice(
        poset.elements,
        poset.up_masks,
        tuple(tuple(row) for row in meet),
        tuple(tuple(row) for row in join),
        bot,
        topi,
        name=name,
    )


def close_subset(subset, binaries, unaries):
    """The closure of a subset under binary and unary tables, by rescanning
    every pair of the current set until a round adds nothing: the closure
    that ``enumerate_subalgebras`` ran before it closed on bitmasks with a
    worklist."""
    out = set(subset)
    frontier = True
    while frontier:
        frontier = False
        current = list(out)
        for table in unaries:
            for x in current:
                v = table[x]
                if v not in out:
                    out.add(v)
                    frontier = True
        for table in binaries:
            for x in current:
                row = table[x]
                for y in current:
                    v = row[y]
                    if v not in out:
                        out.add(v)
                        frontier = True
    return frozenset(out)
