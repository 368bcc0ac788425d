"""Algebras over the four signatures, axiom checking, and hom enumeration.

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
from dataclasses import dataclass

from .errors import AlgebraError, BudgetExceeded
from .lattice import (
    FiniteLattice,
    Poset,
    characteristic_tables,
    heyting_table,
)
from .reporting import PASS, AxiomReport, failed

SIGNATURES = ("bdl", "heyting", "lvl", "isp_i")
BRUTE_FORCE_LIMIT = 2_000_000


def vector_name(truth, vec):
    """Canonical rendering of a truth-valued vector, e.g. ``(0,m,1)``."""
    return "(" + ",".join(truth.elements[v] for v in vec) + ")"


@dataclass(frozen=True)
class PowerPresentation:
    """Provenance of an algebra built as (a subalgebra of) a frame-indexed
    power of the truth lattice: each carrier element is a world-indexed
    vector of truth values."""

    frame: Poset
    vectors: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Algebra:
    signature: str
    lattice: FiniteLattice
    truth: FiniteLattice
    implies: tuple[tuple[int, ...], ...] | None = None
    t_ops: tuple[tuple[int, ...], ...] | None = None
    presentation: PowerPresentation | None = None

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
    if len(table) != n or any(
        len(row) != n or any(not 0 <= v < n for v in row) for row in table
    ):
        raise AlgebraError("bad-table", f"{symbol} table of {alg.name!r} is not total")


def t_operator(truth, l, x):
    """Truth-constant operator on the truth lattice itself: top iff x is l."""
    truth._check(l)
    truth._check(x)
    return truth.top if x == l else truth.bottom


def make_bdl(lattice, truth, name=None):
    lat = lattice if name is None else _renamed(lattice, name)
    return _validate(Algebra("bdl", lat, truth))


def make_heyting(lattice, truth, name=None):
    lat = lattice if name is None else _renamed(lattice, name)
    return _validate(Algebra("heyting", lat, truth, implies=heyting_table(lattice)))


def make_heyting_ispi(lattice, truth, name=None):
    """A Heyting algebra packaged as an isp_i object (its own implication
    plays the distinguished role)."""
    lat = lattice if name is None else _renamed(lattice, name)
    return _validate(Algebra("isp_i", lat, truth, implies=heyting_table(lattice)))


def make_lvl(lattice, name=None):
    """The canonical lattice-valued algebra on the truth lattice itself:
    implication is the relative pseudocomplement and each unary operator is
    the characteristic function of its index."""
    lat = lattice if name is None else _renamed(lattice, name)
    return _validate(
        Algebra(
            "lvl",
            lat,
            lattice,
            implies=heyting_table(lattice),
            t_ops=characteristic_tables(lattice),
        )
    )


def algebra_from_tables(signature, lattice, truth, implies=None, t_ops=None, name=None):
    """Assemble an algebra from explicit tables. Totality is enforced here;
    the substantive laws are left to the axiom checker so that deliberately
    broken operator families can still be built and explored."""
    lat = lattice if name is None else _renamed(lattice, name)
    return _validate(Algebra(signature, lat, truth, implies=implies, t_ops=t_ops))


def _renamed(lattice, name):
    return FiniteLattice(
        lattice.elements,
        lattice.leq,
        lattice.meet,
        lattice.join,
        lattice.bottom,
        lattice.top,
        name=name,
    )


def product_algebra(a, b, name=None):
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
    leq = tuple(
        tuple(la.leq[i][k] and lb.leq[j][l] for k, l in pairs) for i, j in pairs
    )

    def combine(ta, tb):
        return tuple(
            tuple(pos[ta[i][k], tb[j][l]] for k, l in pairs) for i, j in pairs
        )

    lattice = FiniteLattice(
        names,
        leq,
        combine(la.meet, lb.meet),
        combine(la.join, lb.join),
        pos[la.bottom, lb.bottom],
        pos[la.top, lb.top],
        name=name or f"{a.name}*{b.name}",
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
    leq = tuple(tuple(lat.leq[i][j] for j in order) for i in order)
    lattice = FiniteLattice(
        names,
        leq,
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
            alg.presentation.frame,
            tuple(alg.presentation.vectors[i] for i in order),
            alg.presentation.generators,
        )
    return _validate(
        Algebra(alg.signature, lattice, alg.truth, implies=implies, t_ops=t_ops, presentation=prs)
    )


@dataclass(frozen=True)
class Homomorphism:
    source: Algebra
    target: Algebra
    mapping: tuple[int, ...]

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
    if len(mapping) != len(a) or any(not 0 <= v < len(b) for v in mapping):
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
        for i in range(len(a)):
            if mapping[ta[i]] != tb[mapping[i]]:
                return failed(
                    f"{symbol} not preserved at ({a.element_name(i)})"
                )
    for symbol, ta, tb in binaries:
        for i in range(len(a)):
            for j in range(len(a)):
                if mapping[ta[i][j]] != tb[mapping[i]][mapping[j]]:
                    return failed(
                        f"{symbol} not preserved at "
                        f"({a.element_name(i)}, {a.element_name(j)})"
                    )
    return PASS


def enumerate_homs(a, b):
    """All homomorphisms a -> b, canonically ordered (lexicographic over the
    image tuple in declaration order).

    Backtracking search: bounds are pinned, and every assignment is
    propagated through the operation tables by a worklist in the style of
    AC-3 (Mackworth 1977). Each newly fixed element x is applied once to
    every unary table and paired once with every element already processed,
    x itself included, in both argument orders of every binary table; a
    forced image that is still free joins the worklist, one that disagrees
    kills the branch. So fixing h(x) and h(y) forces h(x meet y),
    h(x join y), and so on, without rescanning pairs already checked. The
    forced closure does not depend on the order of work. Dead branches are
    cut by order-compatibility with what is already assigned.
    brute_force_homs is the scan oracle.
    """
    _require_compatible(a, b)
    n, m = len(a), len(b)
    consts, unaries, binaries = _op_tables(a, b)
    leq_a, leq_b = a.lattice.leq, b.lattice.leq
    assign = [-1] * n
    # fixed elements whose table entries against each other are all checked
    done = []

    def propagate(trail):
        head = 0
        while head < len(trail):
            x = trail[head]
            head += 1
            vx = assign[x]
            for _, ta, tb in unaries:
                k, forced = ta[x], tb[vx]
                if assign[k] < 0:
                    assign[k] = forced
                    trail.append(k)
                elif assign[k] != forced:
                    return False
            done.append(x)
            for _, ta, tb in binaries:
                row_a, row_b = ta[x], tb[vx]
                for y in done:
                    vy = assign[y]
                    k, forced = row_a[y], row_b[vy]
                    if assign[k] < 0:
                        assign[k] = forced
                        trail.append(k)
                    elif assign[k] != forced:
                        return False
                    k, forced = ta[y][x], tb[vy][vx]
                    if assign[k] < 0:
                        assign[k] = forced
                        trail.append(k)
                    elif assign[k] != forced:
                        return False
        return True

    def consistent(i, v):
        for j in range(n):
            w = assign[j]
            if w < 0:
                continue
            if leq_a[i][j] and not leq_b[v][w]:
                return False
            if leq_a[j][i] and not leq_b[w][v]:
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


def hom_leq(h1, h2):
    """Pointwise order on homomorphisms into a common target."""
    leq = h1.target.lattice.leq
    return all(leq[x][y] for x, y in zip(h1.mapping, h2.mapping))


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
    report = AxiomReport(algebra=a.name, literal_iv=literal_iv)

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
        for l1 in range(nt):
            for l2 in range(nt):
                for x in range(n):
                    for y in range(n):
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
        for x in range(n):
            for y in range(n):
                lhs = _fold(
                    meet, (biimp(t[l][x], t[l][y]) for l in range(nt)), lat.top
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
