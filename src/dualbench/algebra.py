"""Algebras over the four signatures, axiom checking, and the enumeration of
subalgebras and homs.

A signature is one of:

* ``bdl``     - bounded distributive lattice (meet, join, 0, 1)
* ``heyting`` - bdl plus the relative pseudocomplement
* ``lvl``     - heyting plus one unary truth-constant operator per element
                of the truth lattice
* ``isp_i``   - bdl plus a distinguished implication that need not be
                pointwise (it may come from a frame-indexed power)

The truth lattice is carried by every algebra: for lvl it indexes the
unary operator family, for the other signatures it names the dualizing
object used when the algebra is sent to its dual space.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_

from .errors import AlgebraError, BudgetExceeded
from .lattice import (
    FiniteLattice,
    Memo,
    Poset,
    canonical_subset_order,
    heyting_table,
    mask_members,
    subset_mask,
)
from .reporting import PASS, AxiomReport, _Frozen, failed

SIGNATURES = ("bdl", "heyting", "lvl", "isp_i")
BRUTE_FORCE_LIMIT = 2_000_000


def vector_name(truth, vec):
    """Canonical rendering of a truth-valued vector, e.g. ``(0,m,1)``."""
    return "(" + ",".join(map(truth.elements.__getitem__, vec)) + ")"


class PowerPresentation(_Frozen):
    """Provenance of an algebra built as (a subalgebra of) a frame-indexed
    power of the truth lattice: each carrier element is a world-indexed
    vector of truth values."""

    _fields = ("frame", "vectors")

    def __init__(self, frame: Poset, vectors: tuple[tuple[int, ...], ...]):
        self.frame = frame
        self.vectors = vectors


class Algebra(_Frozen):
    _fields = ("signature", "lattice", "truth", "implies", "t_ops", "presentation")

    def __init__(
        self,
        signature: str,
        lattice: FiniteLattice,
        truth: FiniteLattice,
        implies: tuple[tuple[int, ...], ...] | None = None,
        t_ops: tuple[tuple[int, ...], ...] | None = None,
        presentation: PowerPresentation | None = None,
    ):
        self.signature = signature
        self.lattice = lattice
        self.truth = truth
        self.implies = implies
        self.t_ops = t_ops
        self.presentation = presentation

    @property
    def name(self):
        return self.lattice.name

    @property
    def elements(self):
        return self.lattice.elements

    def __len__(self):
        return len(self.lattice)

    def element_name(self, i):
        return self.lattice.elements[i]


def _validate(alg):
    if alg.signature not in SIGNATURES:
        raise AlgebraError("unknown-signature", f"unknown signature {alg.signature!r}")
    n = len(alg)
    if n < 2:
        raise AlgebraError(
            "degenerate-carrier",
            f"algebra {alg.name!r} has a one-element carrier; 0 = 1 is rejected",
        )
    if alg.signature in ("heyting", "lvl", "isp_i"):
        if alg.implies is None:
            raise AlgebraError(
                "missing-operation", f"{alg.signature} algebra {alg.name!r} needs an implication table"
            )
        _check_table(alg, alg.implies, "implies")
    if alg.signature == "lvl":
        if alg.t_ops is None or len(alg.t_ops) != len(alg.truth):
            raise AlgebraError(
                "missing-operation",
                f"lvl algebra {alg.name!r} needs one unary operator per truth element",
            )
        for table in alg.t_ops:
            if len(table) != n or any(not 0 <= v < n for v in table):
                raise AlgebraError(
                    "bad-table", f"unary truth-operator table of {alg.name!r} is not total"
                )
    return alg


def _check_table(alg, table, symbol):
    n = len(alg)
    square = len(table) == n and all(len(row) == n for row in table)
    if not square or min(map(min, table)) < 0 or max(map(max, table)) >= n:
        raise AlgebraError("bad-table", f"{symbol} table of {alg.name!r} is not total")


def packed_slices(truth, width, order=None):
    """The packed-slice code of the vectors of ``width`` truth values, as
    ``(full, encode, decode, implication, constant)``.

    ``encode`` packs a vector into an int and ``decode`` unpacks it. Meet
    is ``&`` and join is ``|``; ``0`` and ``full`` are the constant bounds.
    The implication of packed u and v is ``implication[(~u | v) & full]``,
    a memo. ``constant(p, l)`` packs the image of p under the
    truth-constant operator of l.

    By Birkhoff's representation a finite distributive lattice embeds in
    the sets of its join-irreducibles, with meet and join going to
    intersection and union. So a vector is one int: bit ``i*width + w`` is
    set when the i-th join-irreducible lies below the value at coordinate w.
    The pointwise relative pseudocomplement has slice j equal to the AND,
    over the join-irreducibles j' <= j, of ``~u_j' | v_j'``. With ``order``,
    a poset on the coordinates, the implication is relativized to it: the
    meet over the coordinates above, which takes each slice to its
    interior in the up-set topology (the coordinates whose whole up-set
    lies in the slice), memoized per slice mask."""
    if not truth.is_distributive:
        raise AlgebraError(
            "not-distributive", f"truth lattice {truth.name!r} is not distributive"
        )
    irreducibles = sorted(truth.join_irreducibles)
    down = truth.down_masks
    below = [sum(1 << i for i, j in enumerate(irreducibles) if d >> j & 1) for d in down]
    k = len(irreducibles)
    # each value by the column of its slice bits, as '0'/'1' characters
    element = {
        tuple("01"[mask >> i & 1] for i in range(k)): a for a, mask in enumerate(below)
    }
    slice_full = (1 << width) - 1
    spread = [sum(1 << (i * width) for i in range(k) if mask >> i & 1) for mask in below]
    repunit = spread[truth.top]
    lower = [
        [i2 * width for i2, j2 in enumerate(irreducibles) if down[j] >> j2 & 1]
        for j in irreducibles
    ]

    def encode(vec):
        p = 0
        for w, x in enumerate(vec):
            p |= spread[x] << w
        return p

    def decode(p):
        if not k:
            return (truth.bottom,) * width
        bits = format(p, f"0{k * width}b")[::-1]
        slices = [bits[i * width : (i + 1) * width] for i in range(k)]
        return tuple([element[column] for column in zip(*slices)])

    interior = None
    if order is not None:
        ups = order.up_masks

        def interior_of(s):
            out = 0
            for w, up in enumerate(ups):
                if up & s == up:
                    out |= 1 << w
            return out

        interior = Memo(interior_of)

    def implication_of(x):
        out = 0
        for i, shifts in enumerate(lower):
            s = slice_full
            for shift in shifts:
                s &= x >> shift
            if interior is not None:
                s = interior[s]
            out |= s << (i * width)
        return out

    def constant(p, l):
        mask = below[l]
        eq = slice_full
        for i in range(k):
            s = p >> (i * width)
            eq &= s if mask >> i & 1 else ~s
        return eq * repunit

    if k == 1 and interior is not None:
        # one slice, nothing below it: the implication is its interior
        implication = interior
    else:
        implication = Memo(implication_of)
    return (1 << (k * width)) - 1, encode, decode, implication, constant


def vector_algebra(vectors, truth, name, signature, order=None, presented=False):
    """Pointwise algebra on a family of truth-valued vectors, with tables
    over the family alone. ``heyting`` and ``lvl`` take the pointwise
    relative pseudocomplement; ``isp_i`` relativizes the implication to
    ``order``, a poset on the coordinates. A ``presented`` family is (a
    subalgebra of) the power of the truth lattice over ``order``: the
    algebra carries its PowerPresentation and the truth-constant operators
    whenever the family is closed under them (``lvl`` requires them).

    The family is packed once (``packed_slices``) and every table entry is
    one or two bit operations and a lookup of the packed result. The
    lattice arrives whole: both order masks come from one pass over the
    meet rows, and it is distributive by construction. The family is
    closed under meet and join and holds both bounds, so it is a bounded
    sublattice of a power of the truth lattice, which ``packed_slices``
    requires to be distributive."""
    if not vectors:
        raise AlgebraError("empty-carrier", f"{name!r} has no maps at all")
    vectors = tuple(vectors)
    full, encode, _, implication, constant = packed_slices(
        truth, len(vectors[0]), order if signature == "isp_i" else None
    )
    packed = [encode(v) for v in vectors]
    pos = {p: i for i, p in enumerate(packed)}

    def refused(what):
        return AlgebraError("not-closed", f"{name!r}: {what} leaves the map family")

    def table(row, what):
        try:
            return tuple(row(a) for a in packed)
        except KeyError:
            raise refused(what) from None

    def look(p, what):
        if p not in pos:
            raise refused(what)
        return pos[p]

    def implication_row(a):
        na = ~a
        return tuple([pos[implication[(na | b) & full]] for b in packed])

    meet = table(lambda a: tuple([pos[a & b] for b in packed]), "a meet")
    join = table(lambda a: tuple([pos[a | b] for b in packed]), "a join")
    # pointwise, u <= v exactly when u meet v is u: bit k of up[i] and bit
    # i of down[k] are set when meet[i][k] == i
    n = len(packed)
    up, down = [0] * n, [0] * n
    for i, row in enumerate(meet):
        bit, mask = 1 << i, 0
        for k, x in enumerate(row):
            if x == i:
                mask |= 1 << k
                down[k] |= bit
        up[i] = mask
    lattice = FiniteLattice(
        tuple([vector_name(truth, v) for v in vectors]),
        tuple(up),
        meet,
        join,
        look(0, "the bottom"),
        look(full, "the top"),
        name=name,
    )
    lattice.down_masks = tuple(down)
    lattice.is_distributive = True
    implies = None
    if signature in ("heyting", "lvl", "isp_i"):
        implies = table(implication_row, "an implication")
    t_ops = None
    if signature == "lvl" or presented:
        t_ops = tuple(
            tuple([pos.get(constant(p, l), -1) for p in packed])
            for l in range(len(truth))
        )
        if any(-1 in row for row in t_ops):
            if signature == "lvl":
                raise refused("a truth-constant image")
            t_ops = None
    presentation = PowerPresentation(order, vectors) if presented else None
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


def characteristic_tables(lattice):
    """The truth-constant operator family on the lattice itself:
    t[l][x] is top when x equals l and bottom otherwise."""
    n = len(lattice)
    return tuple(
        tuple(lattice.top if x == l else lattice.bottom for x in range(n))
        for l in range(n)
    )


def make_bdl(lattice, truth):
    return _validate(Algebra("bdl", lattice, truth))


def make_heyting(lattice, truth):
    return _validate(Algebra("heyting", lattice, truth, implies=heyting_table(lattice)))


def make_heyting_ispi(lattice, truth):
    """A Heyting algebra packaged as an isp_i object (its own implication
    plays the distinguished role)."""
    return _validate(Algebra("isp_i", lattice, truth, implies=heyting_table(lattice)))


def make_lvl(lattice):
    """The canonical lattice-valued algebra on the truth lattice itself:
    implication is the relative pseudocomplement and each unary operator is
    the characteristic function of its index."""
    return _validate(
        Algebra(
            "lvl",
            lattice,
            lattice,
            implies=heyting_table(lattice),
            t_ops=characteristic_tables(lattice),
        )
    )


def algebra_from_tables(signature, lattice, truth, implies=None, t_ops=None, name=None):
    """Assemble an algebra from explicit tables. Totality is enforced here;
    the substantive laws are left to the axiom checker so that deliberately
    broken operator families can still be built and explored."""
    lat = lattice if name is None else lattice.replace(name=name)
    return _validate(Algebra(signature, lat, truth, implies=implies, t_ops=t_ops))


def product_algebra(a, b):
    """Direct product with componentwise operations."""
    if a.signature != b.signature or a.truth != b.truth:
        raise AlgebraError(
            "signature-mismatch",
            f"cannot form the product of {a.name!r} and {b.name!r}",
        )
    pairs = list(itertools.product(range(len(a)), range(len(b))))
    pos = {p: k for k, p in enumerate(pairs)}
    names = tuple(
        f"({a.element_name(i)},{b.element_name(j)})" for i, j in pairs
    )
    la, lb = a.lattice, b.lattice
    # (i, j) is element i * |b| + j, so the up-set of (i, j) holds the
    # up-set of j at the offset of every k above i
    offsets = [[k * len(b) for k in mask_members(up)] for up in la.up_masks]
    up = tuple(sum(lb.up_masks[j] << o for o in offsets[i]) for i, j in pairs)

    def combine(ta, tb):
        return tuple(
            tuple(pos[ta[i][k], tb[j][l]] for k, l in pairs) for i, j in pairs
        )

    lattice = FiniteLattice(
        names,
        up,
        combine(la.meet, lb.meet),
        combine(la.join, lb.join),
        pos[la.bottom, lb.bottom],
        pos[la.top, lb.top],
        name=f"{a.name}*{b.name}",
    )
    implies = None
    if a.implies is not None and b.implies is not None:
        implies = combine(a.implies, b.implies)
    t_ops = None
    if a.t_ops is not None and b.t_ops is not None:
        t_ops = tuple(
            tuple(pos[ta[i], tb[j]] for i, j in pairs)
            for ta, tb in zip(a.t_ops, b.t_ops)
        )
    return _validate(
        Algebra(a.signature, lattice, a.truth, implies=implies, t_ops=t_ops)
    )


def subalgebra_of(alg, subset, name=None):
    """The induced algebra on a subset closed under every operation of the
    signature (bounds included)."""
    order = sorted(subset)
    pos = {old: new for new, old in enumerate(order)}
    lat = alg.lattice
    if lat.bottom not in pos or lat.top not in pos:
        raise AlgebraError("not-closed", f"subset of {alg.name!r} is missing a bound")

    def restrict2(table):
        out = []
        for i in order:
            row = []
            for j in order:
                v = table[i][j]
                if v not in pos:
                    raise AlgebraError(
                        "not-closed",
                        f"subset of {alg.name!r} is not closed at "
                        f"({alg.element_name(i)!r}, {alg.element_name(j)!r})",
                    )
                row.append(pos[v])
            out.append(tuple(row))
        return tuple(out)

    names = tuple(lat.elements[i] for i in order)
    lattice = FiniteLattice(
        names,
        tuple(
            sum(1 << q for q, j in enumerate(order) if lat.up_masks[i] >> j & 1)
            for i in order
        ),
        restrict2(lat.meet),
        restrict2(lat.join),
        pos[lat.bottom],
        pos[lat.top],
        name=name or f"{alg.name}|{''.join(names)}",
    )
    implies = restrict2(alg.implies) if alg.implies is not None else None
    t_ops = None
    if alg.t_ops is not None:
        t_ops = []
        for table in alg.t_ops:
            row = []
            for i in order:
                v = table[i]
                if v not in pos:
                    raise AlgebraError(
                        "not-closed",
                        f"subset of {alg.name!r} is not closed under a unary operator "
                        f"at {alg.element_name(i)!r}",
                    )
                row.append(pos[v])
            t_ops.append(tuple(row))
        t_ops = tuple(t_ops)
    prs = None
    if alg.presentation is not None:
        prs = PowerPresentation(
            alg.presentation.frame, tuple(alg.presentation.vectors[i] for i in order)
        )
    return _validate(
        Algebra(alg.signature, lattice, alg.truth, implies=implies, t_ops=t_ops, presentation=prs)
    )


class Homomorphism(_Frozen):
    _fields = ("source", "target", "mapping")

    def __init__(self, source: Algebra, target: Algebra, mapping: tuple[int, ...]):
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, i):
        return self.mapping[i]

    def describe(self):
        return ", ".join(
            f"{self.source.element_name(i)}->{self.target.element_name(v)}"
            for i, v in enumerate(self.mapping)
        )


def identity_hom(alg):
    return Homomorphism(alg, alg, tuple(range(len(alg))))


def compose_homs(g, f):
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise AlgebraError("composition-mismatch", "homomorphisms do not compose")
    return Homomorphism(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


def _op_tables(a, b):
    """Parallel (symbol, source table, target table) views of the shared
    signature, split by arity."""
    consts = [
        ("0", a.lattice.bottom, b.lattice.bottom),
        ("1", a.lattice.top, b.lattice.top),
    ]
    binaries = [
        ("meet", a.lattice.meet, b.lattice.meet),
        ("join", a.lattice.join, b.lattice.join),
    ]
    unaries = []
    if a.signature in ("heyting", "lvl", "isp_i"):
        binaries.append(("implies", a.implies, b.implies))
    if a.signature == "lvl":
        for l in range(len(a.truth)):
            unaries.append(
                (f"t[{a.truth.elements[l]}]", a.t_ops[l], b.t_ops[l])
            )
    return consts, unaries, binaries


def _require_compatible(a, b):
    if a.signature != b.signature:
        raise AlgebraError(
            "signature-mismatch",
            f"{a.name!r} has signature {a.signature}, {b.name!r} has {b.signature}",
        )
    if a.signature == "lvl" and a.truth.elements != b.truth.elements:
        raise AlgebraError(
            "signature-mismatch",
            f"{a.name!r} and {b.name!r} index their operator families by different truth lattices",
        )


def is_homomorphism(mapping, a, b):
    """Does the map commute with every operation of the shared signature?
    On failure the witness names the violated symbol and argument tuple."""
    _require_compatible(a, b)
    mapping = tuple(mapping)
    n = len(a)
    if len(mapping) != n or any(not 0 <= v < len(b) for v in mapping):
        raise AlgebraError(
            "carrier-mismatch", f"map is not total from {a.name!r} into {b.name!r}"
        )
    consts, unaries, binaries = _op_tables(a, b)
    for symbol, ia, ib in consts:
        if mapping[ia] != ib:
            return failed(
                f"{symbol} not preserved: h({a.element_name(ia)}) = "
                f"{b.element_name(mapping[ia])} != {b.element_name(ib)}"
            )
    for symbol, ta, tb in unaries:
        for i in range(n):
            if mapping[ta[i]] != tb[mapping[i]]:
                return failed(
                    f"{symbol} not preserved at ({a.element_name(i)})"
                )
    for symbol, ta, tb in binaries:
        for i in range(n):
            for j in range(n):
                if mapping[ta[i][j]] != tb[mapping[i]][mapping[j]]:
                    return failed(
                        f"{symbol} not preserved at "
                        f"({a.element_name(i)}, {a.element_name(j)})"
                    )
    return PASS


def enumerate_subalgebras(algebra):
    """Every subset holding the constants and closed under every operation
    of the algebra's signature, as ``_op_tables`` lists them, in canonical
    order (size, then lexicographic over declaration order).

    Generator-closure search on bitmasks: from the closure of the
    constants, each subalgebra found is grown by one element at a time and
    closed again. A closure is a worklist: the closed part needs no look,
    and each new element is combined with every member, in both argument
    orders of each binary table (one order when the table is symmetric),
    and sent through each unary table.
    """
    n = len(algebra)
    consts, unaries, binaries = _op_tables(algebra, algebra)
    # bits[x][y] is the bit of table[x][y], per binary table and argument
    # order; a symmetric table needs one order
    bit_tables = []
    for _, table, _ in binaries:
        columns = tuple(zip(*table))
        for rows in (table,) if columns == table else (table, columns):
            bit_tables.append([tuple([1 << v for v in row]) for row in rows])
    unary_bits = [subset_mask({table[x] for _, table, _ in unaries}) for x in range(n)]

    def close(members, mask, new):
        """The closure of ``mask | new``, where ``mask`` is closed and
        ``members`` lists its elements."""
        members = list(members)
        mask |= new
        while new:
            low = new & -new
            new ^= low
            x = low.bit_length() - 1
            members.append(x)
            made = unary_bits[x]
            for bits in bit_tables:
                made |= reduce(or_, map(bits[x].__getitem__, members))
            made &= ~mask
            mask |= made
            new |= made
        return mask

    seed = close((), 0, subset_mask({c for _, c, _ in consts}))
    found = {seed}
    queue = [seed]
    while queue:
        s = queue.pop()
        members = [x for x in range(n) if s >> x & 1]
        for x in range(n):
            if not s >> x & 1:
                bigger = close(members, s, 1 << x)
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    return canonical_subset_order(map(mask_members, found))


def lvl_subalgebras(truth):
    """``enumerate_subalgebras(make_lvl(truth))``, the family a bitopological
    dual over ``truth`` assigns images to, found once per truth lattice and
    kept in its ``derived``."""
    family = truth.derived.get("lvl_subalgebras")
    if family is None:
        family = truth.derived["lvl_subalgebras"] = enumerate_subalgebras(make_lvl(truth))
    return family


def hom_search_plan(lattice):
    """The part of ``enumerate_homs``'s setup that depends only on its
    source lattice, found once per lattice and kept in its ``derived``:
    ``(irreducibles, pairs, final, ups)``.

    * ``irreducibles``: the join-irreducibles in the order of the search.
    * ``pairs[p]``: (j', j meet j') for every earlier join-irreducible j'
      incomparable to the j of step p.
    * ``final[x]``: the step after which h(x) is final, the step of the last
      join-irreducible below x; h(0) and h(1) are final from the start.
    * ``ups[p]``: the elements above the j of step p, the top left out."""
    plan = lattice.derived.get("hom_search_plan")
    if plan is not None:
        return plan
    up, meet, top = lattice.up_masks, lattice.meet, lattice.top
    irreducibles = lattice.join_irreducibles
    pairs = tuple(
        tuple([(i, meet[j][i]) for i in irreducibles[:p] if not up[i] >> j & 1])
        for p, j in enumerate(irreducibles)
    )
    n = len(lattice)
    final = [0] * n
    ups = []
    for p, j in enumerate(irreducibles, 1):
        above = []
        rest = up[j] & ~(1 << top)
        while rest:
            low = rest & -rest
            above.append(low.bit_length() - 1)
            rest ^= low
        above = tuple(above)
        for x in above:
            final[x] = p
        ups.append(above)
    plan = irreducibles, pairs, tuple(final), tuple(ups)
    lattice.derived["hom_search_plan"] = plan
    return plan


def enumerate_homs(a, b):
    """All homomorphisms a -> b, canonically ordered (lexicographic over the
    image tuple in declaration order).

    A finite distributive lattice is the lattice of down-sets of its
    join-irreducibles J (Birkhoff), so a bounded-lattice hom h is fixed by
    its values g on J: h(x) is the join of g(j) over the j in J below x.
    The search assigns g along a linear extension of J. Conversely, for any
    g, that h keeps 0, and it keeps joins because every j in J is
    join-prime. It extends g when g is order-preserving, and it keeps 1
    when the join of g is the top. On a distributive target it keeps meets
    exactly when g(j) meet g(j') <= h(j meet j') for all j, j' in J, since
    the meet of two joins is the join of the pairwise meets; comparable
    j, j' pass by order. So setting g(j) to v needs two checks, both on
    values already final: v lies above h(j), the join of g below j, and
    v <= g(j') -> h(j meet j') (the relative pseudocomplement of the
    target) for every earlier j' incomparable to j.

    h is held in one array, copied for each value tried: setting g(j)
    joins v into the entries over the up-set of j, and a leaf's array is
    its mapping. h(1) is the top from the start, as in every hom, and a
    leaf is kept only when the join of g is the top. The implication and
    the truth-constant operators are checked inside the search: each
    (table, arguments) constraint is checked at the step after which all
    of its elements, result included, are final, that is, when the last
    join-irreducible below them is set. What depends on the source alone
    is its ``hom_search_plan``.

    Every hom passes every check on any finite lattices, so the search is
    complete. It is sound when both lattices are distributive, as every
    lattice built in this package is; otherwise each leaf is also checked
    with is_homomorphism. brute_force_homs is the scan oracle.
    """
    _require_compatible(a, b)
    la, lb = a.lattice, b.lattice
    n, m = len(la), len(lb)
    bottom_a, top_a, top_b = la.bottom, la.top, lb.top
    irreducibles, pairs, final, ups = hom_search_plan(la)
    k = len(irreducibles)
    _, unaries, binaries = _op_tables(a, b)
    binaries = binaries[2:]  # meets and joins are kept by construction
    exact = la.is_distributive and lb.is_distributive
    # (result, x, y, target table): h(result) must be table[h(x)][h(y)]. A
    # unary table is widened to ignore y, which is the bottom. The cheap
    # unary checks come first.
    checks = [[] for _ in range(k + 1)]
    for _, ta, tb in unaries:
        wide = [[v] * m for v in tb]
        for x in range(n):
            r = ta[x]
            checks[max(final[x], final[r])].append((r, x, bottom_a, wide))
    for _, ta, tb in binaries:
        for x in range(n):
            fx = final[x]
            for y, r in enumerate(ta[x]):
                checks[max(fx, final[y], final[r])].append((r, x, y, tb))
    join_b, down_b, up_b = lb.join, lb.down_masks, lb.up_masks
    implies_b = heyting_table(lb)
    steps = list(zip(irreducibles, pairs, ups, checks[1:]))
    found = []

    def extend(p, h, joined):
        j, pairs_p, up, step = steps[p]
        values = up_b[h[j]]
        for i, c in pairs_p:
            values &= down_b[implies_b[h[i]][h[c]]]
        while values:
            low = values & -values
            values ^= low
            row = join_b[low.bit_length() - 1]
            g = h.copy()
            for x in up:
                g[x] = row[g[x]]
            for r, x, y, tb in step:
                if g[r] != tb[g[x]][g[y]]:
                    break
            else:
                if p + 1 < k:
                    extend(p + 1, g, row[joined])
                elif row[joined] == top_b:
                    if exact or is_homomorphism(g, a, b).passed:
                        found.append(tuple(g))

    h = [lb.bottom] * n
    h[top_a] = top_b
    if all(h[r] == tb[h[x]][h[y]] for r, x, y, tb in checks[0]):
        extend(0, h, lb.bottom)
    extend = None  # drop the closure's cycle through itself, and the algebras it holds
    return tuple(Homomorphism(a, b, mapping) for mapping in sorted(found))


def brute_force_homs(a, b):
    """Full |b|^|a| scan; the independent oracle for enumerate_homs."""
    n, m = len(a), len(b)
    if m**n > BRUTE_FORCE_LIMIT:
        raise BudgetExceeded(f"brute-force scan of {m}^{n} maps refused")
    out = []
    for mapping in itertools.product(range(m), repeat=n):
        if is_homomorphism(mapping, a, b).passed:
            out.append(Homomorphism(a, b, mapping))
    return tuple(sorted(out, key=lambda h: h.mapping))


def hom_order(homs):
    """The pointwise order on lattice homomorphisms from a common source into
    a common target, as up-set masks: bit i' of ``hom_order(homs)[i]`` is
    set when homs[i] <= homs[i'].

    Every element x of a finite lattice is the join of the
    join-irreducibles below it, and a hom keeps joins and the bottom, so
    h(x) is the join of h(j) over those j (Birkhoff). So h <= h' exactly
    when h(j) <= h'(j) for every join-irreducible j of the source, and the
    up-set of h is the AND, over j, of the mask of homs whose value at j
    lies above h(j): k * |J| mask operations, not k^2. The result is exact
    on lattice homs only; an arbitrary map is compared on J alone.
    ``tests/hom_oracle.hom_leq_masks`` is the elementwise oracle."""
    if not homs:
        return ()
    down = homs[0].target.lattice.down_masks
    mappings = [h.mapping for h in homs]
    full = (1 << len(homs)) - 1
    out = [full] * len(homs)
    for j in homs[0].source.lattice.join_irreducibles:
        column = [mapping[j] for mapping in mappings]
        # at[v]: the homs with value v at j
        at = [0] * len(down)
        bit = 1
        for v in column:
            at[v] |= bit
            bit <<= 1
        if full in at:
            continue  # every hom has the same value at j
        # above[v]: the homs whose value at j lies above v
        above = [0] * len(down)
        for w, mask in enumerate(at):
            if mask:
                below = down[w]
                while below:
                    low = below & -below
                    above[low.bit_length() - 1] |= mask
                    below ^= low
        out = list(map(and_, out, map(above.__getitem__, column)))
    return tuple(out)


def _fold(table, values, unit):
    out = unit
    for v in values:
        out = table[out][v]
    return out


def check_lvl_axioms(algebra, literal_iv=False):
    """Exhaustive check of the seven lattice-valued-algebra axiom clauses.

    Quantifiers run with truth indices outermost, then carrier elements, so
    the first witness per clause is deterministic.  Clause (iv)'s second
    identity defaults to the amended single-index form (the two-index form
    fails already on a three-element truth lattice); pass literal_iv=True to
    check the two-index form instead.
    """
    if algebra.signature != "lvl":
        raise AlgebraError(
            "signature-mismatch", f"axiom check needs an lvl algebra, got {algebra.signature}"
        )
    a = algebra
    lat, truth = a.lattice, a.truth
    n, nt = len(a), len(truth)
    t, imp, meet, join, leq = a.t_ops, a.implies, lat.meet, lat.join, lat.leq
    hey_t = heyting_table(truth)
    t_truth = characteristic_tables(truth)
    en, tn = a.element_name, lambda l: truth.elements[l]
    report = AxiomReport()

    def biimp(x, y):
        return meet[imp[x][y]][imp[y][x]]

    def clause_i():
        for x in range(n):
            for y in range(n):
                for c in range(n):
                    if leq[meet[x][c]][y] != leq[c][imp[x][y]]:
                        return failed(
                            "residuation fails at "
                            f"a={en(x)}, b={en(y)}, c={en(c)}"
                        )
        return PASS

    def clause_ii():
        # where T_L1(a) or T_L2(b) is the bottom the left side is the bottom,
        # so a and b run over the supports only, in the same order
        support = [[x for x in range(n) if row[x] != lat.bottom] for row in t]
        for l1 in range(nt):
            for l2 in range(nt):
                for x in support[l1]:
                    for y in support[l2]:
                        lhs = meet[t[l1][x]][t[l2][y]]
                        rhs = meet[
                            meet[t[hey_t[l1][l2]][imp[x][y]]][t[truth.meet[l1][l2]][meet[x][y]]]
                        ][t[truth.join[l1][l2]][join[x][y]]]
                        if not leq[lhs][rhs]:
                            return failed(
                                "T_L1(a)^T_L2(b) <= T(L1->L2)(a->b)^... fails at "
                                f"L1={tn(l1)}, L2={tn(l2)}, a={en(x)}, b={en(y)}"
                            )
        for l1 in range(nt):
            for l2 in range(nt):
                for x in range(n):
                    if not leq[t[l2][x]][t[t_truth[l1][l2]][t[l1][x]]]:
                        return failed(
                            "T_L2(a) <= T_(T_L1(L2))(T_L1(a)) fails at "
                            f"L1={tn(l1)}, L2={tn(l2)}, a={en(x)}"
                        )
        return PASS

    def clause_iii():
        if t[truth.bottom][lat.bottom] != lat.top:
            return failed("T_0(0) != 1")
        for l in range(nt):
            if l != truth.bottom and t[l][lat.bottom] != lat.bottom:
                return failed(f"T_L(0) != 0 at L={tn(l)}")
        if t[truth.top][lat.top] != lat.top:
            return failed("T_1(1) != 1")
        for l in range(nt):
            if l != truth.top and t[l][lat.top] != lat.bottom:
                return failed(f"T_L(1) != 0 at L={tn(l)}")
        return PASS

    def clause_iv():
        for x in range(n):
            if _fold(join, (t[l][x] for l in range(nt)), lat.bottom) != lat.top:
                return failed(f"join of all T_L(a) != 1 at a={en(x)}")
        if literal_iv:
            for l1 in range(nt):
                for l2 in range(nt):
                    for x in range(n):
                        if join[t[l1][x]][imp[t[l2][x]][lat.bottom]] != lat.top:
                            return failed(
                                "T_L1(a) v (T_L2(a) -> 0) != 1 at "
                                f"a={en(x)}, L1={tn(l1)}, L2={tn(l2)}"
                            )
        else:
            for l in range(nt):
                for x in range(n):
                    if join[t[l][x]][imp[t[l][x]][lat.bottom]] != lat.top:
                        return failed(
                            f"T_L(a) v (T_L(a) -> 0) != 1 at a={en(x)}, L={tn(l)}"
                        )
        for l1 in range(nt):
            for l2 in range(nt):
                if l1 == l2:
                    continue
                for x in range(n):
                    if meet[t[l1][x]][t[l2][x]] != lat.bottom:
                        return failed(
                            "T_L1(a) ^ T_L2(a) != 0 at "
                            f"a={en(x)}, L1={tn(l1)}, L2={tn(l2)}"
                        )
        return PASS

    def clause_v():
        for l in range(nt):
            for x in range(n):
                if t[truth.top][t[l][x]] != t[l][x]:
                    return failed(f"T_1(T_L(a)) != T_L(a) at L={tn(l)}, a={en(x)}")
        for l in range(nt):
            for x in range(n):
                if t[truth.bottom][t[l][x]] != imp[t[l][x]][lat.bottom]:
                    return failed(f"T_0(T_L(a)) != T_L(a) -> 0 at L={tn(l)}, a={en(x)}")
        for l1 in range(nt):
            for l2 in range(nt):
                if l2 in (truth.bottom, truth.top):
                    continue
                for x in range(n):
                    if t[l2][t[l1][x]] != lat.bottom:
                        return failed(
                            "T_L2(T_L1(a)) != 0 at "
                            f"L1={tn(l1)}, L2={tn(l2)}, a={en(x)}"
                        )
        return PASS

    def clause_vi():
        for x in range(n):
            if not leq[t[truth.top][x]][x]:
                return failed(f"T_1(a) <= a fails at a={en(x)}")
        for x in range(n):
            for y in range(n):
                if t[truth.top][meet[x][y]] != meet[t[truth.top][x]][t[truth.top][y]]:
                    return failed(
                        f"T_1(a^b) != T_1(a)^T_1(b) at a={en(x)}, b={en(y)}"
                    )
        return PASS

    def clause_vii():
        # where T_l(a) and T_l(b) are both the bottom the term is
        # biimp(bottom, bottom), the unit of the meet when it is the top, so
        # the fold runs over the l at which a or b is in the support of T_l;
        # tables on which biimp(bottom, bottom) is not the top keep every l
        bottom = lat.bottom
        if biimp(bottom, bottom) == lat.top:
            support = [sum(1 << l for l in range(nt) if t[l][x] != bottom) for x in range(n)]
        else:
            support = [(1 << nt) - 1] * n
        levels = Memo(lambda mask: [l for l in range(nt) if mask >> l & 1])
        for x in range(n):
            for y in range(n):
                lhs = _fold(
                    meet,
                    (biimp(t[l][x], t[l][y]) for l in levels[support[x] | support[y]]),
                    lat.top,
                )
                if not leq[lhs][biimp(x, y)]:
                    return failed(
                        f"meet of T-biimplications not below a<->b at a={en(x)}, b={en(y)}"
                    )
        return PASS

    report.clauses["i"] = clause_i()
    report.clauses["ii"] = clause_ii()
    report.clauses["iii"] = clause_iii()
    report.clauses["iv"] = clause_iv()
    report.clauses["v"] = clause_v()
    report.clauses["vi"] = clause_vi()
    report.clauses["vii"] = clause_vii()
    return report
