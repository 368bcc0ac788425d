"""Finite posets, bounded distributive lattices, and prime filter machinery.

Everything is index-based internally: the canonical element order is the
declaration order, element i is ``elements[i]``, and all set-valued results
come back as frozensets of indices sorted canonically by the callers that
render them. All structures are immutable after construction.

An order is held one way only, by the up-set of each element as a bitmask
(``Poset.up_masks``); the down-sets, the covers and the bool matrix
``leq`` are read off it on first use. Every builder produces the up-sets
directly, and the kernels here and in the other modules read masks: the
lattice tables come from down-set masks, and the laws of the dual spaces
are decided on up- and down-set masks, as Priestley duality states them.
"""

from __future__ import annotations

from functools import cached_property
from operator import eq

from .errors import LatticeError
from .reporting import _Frozen


def subset_mask(subset):
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def mask_members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _union_over(mask, table):
    """The OR of ``table[i]`` over the members i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)``."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        out = self[key] = self.compute(key)
        return out


class Poset(_Frozen):
    """A finite partial order, held by the up-set of each element: bit j of
    ``up_masks[i]`` is set when element i is below j."""

    _fields = ("elements", "up_masks", "name")

    def __init__(
        self, elements: tuple[str, ...], up_masks: tuple[int, ...], *, name: str = "poset"
    ):
        self.elements = elements
        self.up_masks = up_masks
        self.name = name

    def __len__(self):
        return len(self.elements)

    def index(self, element_name):
        try:
            return self.elements.index(element_name)
        except ValueError:
            raise LatticeError(
                "unknown-element",
                f"element {element_name!r} is not in the carrier of {self.name}",
                witness=(element_name,),
            ) from None

    @cached_property
    def derived(self):
        """What other modules derive from this poset alone and keep with
        it, by key (``algebra.hom_search_plan`` and
        ``algebra.lvl_subalgebras`` of a lattice, ``kripke.upset_algebra``
        of a frame). It is no field, so equality and hashing ignore it."""
        return {}

    @cached_property
    def down_masks(self):
        """Bit y of ``down_masks[x]`` is set when y <= x."""
        down = [0] * len(self.up_masks)
        for y, up in enumerate(self.up_masks):
            bit = 1 << y
            while up:
                low = up & -up
                down[low.bit_length() - 1] |= bit
                up ^= low
        return tuple(down)

    @cached_property
    def leq(self):
        """The order as a read-only bool matrix: ``leq[i][j]`` says i <= j."""
        columns = range(len(self.up_masks))
        return tuple(tuple([bool(up >> j & 1) for j in columns]) for up in self.up_masks)

    @cached_property
    def cover_masks(self):
        """Bit j of ``cover_masks[i]`` is set when j covers i: i < j with
        nothing strictly between them."""
        strict = [up & ~(1 << i) for i, up in enumerate(self.up_masks)]
        return tuple(s & ~_union_over(s, strict) for s in strict)

    def upset(self, i):
        """R(x): everything above element i, including i."""
        self._check(i)
        return mask_members(self.up_masks[i])

    def down_closure(self, subset):
        """R^{-1}(X0): everything below some member of the subset."""
        subset = frozenset(subset)
        for i in subset:
            self._check(i)
        return mask_members(_union_over(subset_mask(subset), self.down_masks))

    def is_upset(self, subset):
        mask = subset_mask(subset)
        return not _union_over(mask, self.up_masks) & ~mask

    def names(self, subset):
        return tuple(self.elements[i] for i in sorted(subset))

    def _check(self, i):
        if not 0 <= i < len(self):
            raise LatticeError(
                "unknown-element",
                f"index {i} is outside the carrier of {self.name}",
                witness=(i,),
            )


class FiniteLattice(Poset):
    """Bounded distributive lattice with precomputed meet/join tables.

    The tables are built once at validation time so every later operation is
    a lookup; all downstream enumerations are at least quadratic in the
    carrier, so this is the cheap part.
    """

    _fields = Poset._fields + ("meet", "join", "bottom", "top")

    def __init__(
        self,
        elements: tuple[str, ...],
        up_masks: tuple[int, ...],
        meet: tuple[tuple[int, ...], ...],
        join: tuple[tuple[int, ...], ...],
        bottom: int,
        top: int,
        *,
        name: str = "poset",
    ):
        self.elements = elements
        self.up_masks = up_masks
        self.name = name
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top

    @cached_property
    def join_irreducibles(self):
        """The join-irreducible elements in a linear extension of the order
        (fewest elements below first, then declaration order). x is
        join-irreducible when it is not the bottom and the elements strictly
        below it have a greatest one, its only lower cover."""
        down = self.down_masks
        masks = set(down)
        return tuple(
            sorted(
                (
                    x
                    for x, mask in enumerate(down)
                    if x != self.bottom and mask ^ (1 << x) in masks
                ),
                key=lambda x: (down[x].bit_count(), x),
            )
        )

    @cached_property
    def is_distributive(self):
        """Birkhoff's test. x <= y exactly when J(x), the join-irreducibles
        below x, lies in J(y), so x -> J(x) is an order embedding into the
        down-sets of the join-irreducibles. It is onto, and the lattice is
        distributive, exactly when J(x join j) = J(x) | J(j) for every x and
        join-irreducible j: adding one principal down-set at a time reaches
        every down-set. That is n * |J| mask operations, not n^3."""
        irreducibles = self.join_irreducibles
        only = sum(1 << j for j in irreducibles)
        below = [mask & only for mask in self.down_masks]
        return all(
            all(
                map(eq, map(below.__getitem__, self.join[j]), map(below[j].__or__, below))
            )
            for j in irreducibles
        )

    @cached_property
    def heyting_table(self):
        """``heyting_table(self)``: the relative pseudocomplement of every
        pair, found once per lattice.

        On a distributive lattice x is the join of J(x), the
        join-irreducibles below it, and a join-irreducible j lies below
        a -> b exactly when a /\\ j <= b, that is when no member of
        J(a) & ~J(b) lies below j. So J(a -> b) is J minus the up-closure in
        J of J(a) & ~J(b), memoized per mask and looked up among the J(x):
        n^2 lookups. Any other lattice takes the definitional scan,
        ``heyting_implies``, for each pair."""
        n = len(self)
        if not self.is_distributive:
            return tuple(
                tuple(heyting_implies(self, a, b) for b in range(n)) for a in range(n)
            )
        irreducibles = self.join_irreducibles
        only = sum(1 << j for j in irreducibles)
        below = [mask & only for mask in self.down_masks]
        by_below = {mask: x for x, mask in enumerate(below)}
        up = {j: self.up_masks[j] & only for j in irreducibles}

        memo = Memo(lambda gap: by_below[only ^ _union_over(gap, up)])
        return tuple(tuple([memo[a & ~b] for b in below]) for a in below)

    @cached_property
    def prime_filters(self):
        """``prime_filters(self)``, found once per lattice."""
        n = len(self)
        join = self.join
        found = []
        for a, above in enumerate(self.up_masks):
            if a == self.bottom:
                continue
            outside = [x for x in range(n) if not above >> x & 1]
            if not any(above >> join[x][y] & 1 for x in outside for y in outside):
                found.append(mask_members(above))
        return canonical_subset_order(found)

    @cached_property
    def prime_ideals(self):
        """``prime_ideals(self)``, found once per lattice."""
        full = frozenset(range(len(self)))
        return tuple(full - f for f in self.prime_filters)


def _transitive_reflexive_closure(n, pairs):
    """The reflexive-transitive closure as up-set masks, by Warshall's
    algorithm on int rows: bit j of ``rows[i]`` is set when i <= j."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return tuple(rows)


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
    up = _transitive_reflexive_closure(len(elements), numeric)
    for i, row in enumerate(up):
        for j in range(i + 1, len(elements)):
            if row >> j & 1 and up[j] >> i & 1:
                raise LatticeError(
                    "not-a-poset",
                    f"cycle between {elements[i]!r} and {elements[j]!r} in {name}",
                    (elements[i], elements[j]),
                )
    return Poset(elements, up, name=name)


def build_lattice(elements, leq_pairs, bottom, top, name="lattice"):
    """Validated bounded distributive lattice with derived operation tables.

    Raises LatticeError with the first violated law and a witness: a cycle
    pair for ``not-a-poset``, a pair for ``missing-meet``/``missing-join``,
    a triple for ``not-distributive``, the offending element for
    ``wrong-bounds``.

    Distributivity is decided by Birkhoff's test,
    ``FiniteLattice.is_distributive`` (n * |J| mask operations, cached on
    the lattice returned). Only when it fails does the n^3 scan over the
    triples (x, y, z), in that order, run to find the first one at which
    meet does not distribute over join: that triple is the witness.
    """
    poset = build_poset(elements, leq_pairs, name=name)
    n = len(poset)
    bot, topi = poset.index(bottom), poset.index(top)
    up, down = poset.up_masks, poset.down_masks
    for x in range(n):
        if not up[bot] >> x & 1:
            raise LatticeError(
                "wrong-bounds",
                f"declared bottom {bottom!r} is not below {poset.elements[x]!r}",
                (bottom, poset.elements[x]),
            )
        if not down[topi] >> x & 1:
            raise LatticeError(
                "wrong-bounds",
                f"declared top {top!r} is not above {poset.elements[x]!r}",
                (top, poset.elements[x]),
            )
    # g is the meet of i and j exactly when its down-set is the intersection
    # of theirs, so a missing down-set is a missing meet; joins likewise
    by_down = {mask: i for i, mask in enumerate(down)}
    by_up = {mask: i for i, mask in enumerate(up)}
    meet, join = [], []
    for i in range(n):
        meet_row = tuple(map(by_down.get, map(down[i].__and__, down)))
        join_row = tuple(map(by_up.get, map(up[i].__and__, up)))
        if None in meet_row or None in join_row:
            # the first bad pair of the (i, j) scan, meet before join
            j = next(j for j in range(n) if None in (meet_row[j], join_row[j]))
            what = "meet" if meet_row[j] is None else "join"
            names = (poset.elements[i], poset.elements[j])
            raise LatticeError(
                f"missing-{what}", f"{names[0]!r} and {names[1]!r} have no {what}", names
            )
        meet.append(meet_row)
        join.append(join_row)
    lattice = FiniteLattice(
        poset.elements, up, tuple(meet), tuple(join), bot, topi, name=name
    )
    # the same up-sets, so the same down-sets: is_distributive reads them
    lattice.down_masks = down
    if lattice.is_distributive:
        return lattice
    x, y, z = next(
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]
    )
    names = (poset.elements[x], poset.elements[y], poset.elements[z])
    raise LatticeError(
        "not-distributive",
        "meet does not distribute over join at "
        f"({names[0]!r}, {names[1]!r}, {names[2]!r})",
        names,
    )


def chain_lattice(n, name=None):
    """The n-element chain c0 < c1 < ... (the 2-chain is named 0, 1)."""
    if n == 2:
        elems = ("0", "1")
    elif n == 3:
        elems = ("0", "m", "1")
    else:
        elems = tuple(f"c{i}" for i in range(n))
    pairs = [(elems[i], elems[i + 1]) for i in range(n - 1)]
    return build_lattice(elems, pairs, elems[0], elems[-1], name=name or f"chain{n}")


def diamond_lattice():
    """The four-element Boolean lattice 0 < a,b < 1."""
    return build_lattice(
        ("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "0", "1", name="b2"
    )


def heyting_implies(lattice, a, b):
    """Relative pseudocomplement: the join of every l with a /\\ l <= b."""
    lattice._check(a)
    lattice._check(b)
    out, below_b = lattice.bottom, lattice.down_masks[b]
    for l in range(len(lattice)):
        if below_b >> lattice.meet[a][l] & 1:
            out = lattice.join[out][l]
    return out


def heyting_table(lattice):
    """The relative pseudocomplement as a table, ``table[a][b]`` being
    a -> b; found once per lattice (``FiniteLattice.heyting_table``)."""
    return lattice.heyting_table


def canonical_subset_order(subsets):
    return tuple(sorted(subsets, key=lambda s: (len(s), sorted(s))))


def _is_filter(lattice, subset):
    if not subset or len(subset) == len(lattice):
        return False
    if not lattice.is_upset(subset):
        return False
    return all(lattice.meet[a][b] in subset for a in subset for b in subset)


def _is_prime_filter(lattice, subset):
    if not _is_filter(lattice, subset):
        return False
    n = len(lattice)
    for a in range(n):
        for b in range(n):
            if lattice.join[a][b] in subset and a not in subset and b not in subset:
                return False
    return True


def prime_filters(lattice):
    """All prime filters, canonically ordered by (size, lexicographic).

    A filter of a finite lattice contains the meet of its members, so it is
    the principal filter of that meet. The principal filter of a is proper
    when a is not the bottom, and prime exactly when a is join-prime: no
    join of two elements outside it lies above a. So the prime filters
    come from one O(n^3) pass over the elements, on any finite lattice,
    distributive or not. The pass runs once per lattice.
    """
    return lattice.prime_filters


def prime_ideals(lattice):
    """Prime ideals as complements of the prime filters, in filter order.

    The parallel ordering makes the complementation bijection positional.
    """
    return lattice.prime_ideals


def is_prime_ideal(lattice, subset):
    """Direct check of the ideal laws: nonempty, proper, down-closed, closed
    under join, and meet-prime. This is the independent re-verification
    route; it does not go through the filter complementation."""
    subset = frozenset(subset)
    n = len(lattice)
    if not subset or len(subset) == n:
        return False
    mask = subset_mask(subset)
    if _union_over(mask, lattice.down_masks) & ~mask:
        return False
    if not all(lattice.join[a][b] in subset for a in subset for b in subset):
        return False
    for a in range(n):
        for b in range(n):
            if lattice.meet[a][b] in subset and a not in subset and b not in subset:
                return False
    return True


def separating_prime_ideal(lattice, x, y):
    """First prime ideal (in prime_ideals order) containing exactly one of
    x, y, together with which side it contains.

    Existence is guaranteed by distributivity on finite carriers; the
    classical one-sided statement fails when x is the top, so the symmetric
    form is what is implemented. The ideals are the complements of the
    prime filters, found once per lattice, so each call scans at most n
    ideals; on a lattice that is not distributive the search can come up
    empty, and ``separation-failed`` is raised.
    """
    lattice._check(x)
    lattice._check(y)
    if x == y:
        raise LatticeError(
            "equal-elements",
            f"cannot separate {lattice.elements[x]!r} from itself",
            (lattice.elements[x],),
        )
    for ideal in prime_ideals(lattice):
        has_x, has_y = x in ideal, y in ideal
        if has_x != has_y:
            return ideal, "contains-x" if has_x else "contains-y"
    raise LatticeError(
        "separation-failed",
        f"no prime ideal separates {lattice.elements[x]!r} from {lattice.elements[y]!r}",
        (lattice.elements[x], lattice.elements[y]),
    )
