"""Corpus enumeration and the batch verification runner.

The lattice corpus is every bounded distributive lattice up to a size bound,
obtained as the down-set lattices of all posets of join-irreducibles up to
isomorphism. The frame corpus is every poset up to a world bound. Both come
from one generator that grows posets one maximal point at a time and keeps
one poset per isomorphism class (isomorph-free generation in the manner of
McKay 1998 and Brinkmann & McKay 2002). Each class is labeled by its
lexicographically least ``leq`` matrix over all relabelings, found by a
branch-and-bound search, and the corpora are sorted by that key, so names
such as ``L7_3`` and ``frame4_10`` are fixed by the poset alone.
``corpus_run`` drives all the verification suites over these corpora and
aggregates verdicts deterministically.
"""

from __future__ import annotations

import bisect
import random
import time
from functools import lru_cache

from .algebra import (
    check_lvl_axioms,
    enumerate_homs,
    make_bdl,
    make_lvl,
    product_algebra,
)
from .duality import (
    HSPA,
    PBS,
    PSPA,
    algebra_roundtrip,
    check_downclosure_identity,
    check_second_topology_inclusion,
    esakia_dual,
    functor_composition_check,
    functor_identity_check,
    lvl_dual,
    priestley_dual,
    space_roundtrip,
    spectrum_correspondence,
    verification_scope,
)
from .errors import BudgetExceeded, DualityError
from .kripke import DEFAULT_POWER_BUDGET, kripke_condition_check, upset_algebra
from .lattice import (
    FiniteLattice,
    Poset,
    chain_lattice,
    diamond_lattice,
    heyting_table,
    is_prime_ideal,
    mask_members,
    separating_prime_ideal,
)
from .reporting import _Record
from .topology import verify_hspa_object, verify_pbs_object, verify_pspa_object


def _jirr_names(n):
    """Element names for n join-irreducibles: a to z, then p26, p27, ..."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(letters[i] if i < len(letters) else f"p{i}" for i in range(n))


def _cells(down):
    """Colour refinement of the poset whose point i has strict down-set
    ``down[i]`` (a bitmask): start from each point's down- and up-set sizes
    and split by the colours below and above it until the partition is
    stable. The returned cell ranks are invariant under isomorphism."""
    n = len(down)
    below = [[a for a in range(n) if down[e] >> a & 1] for e in range(n)]
    above = [[b for b in range(n) if down[b] >> e & 1] for e in range(n)]
    colour = [(len(below[e]), len(above[e])) for e in range(n)]
    count = 0
    while True:
        index = {c: i for i, c in enumerate(sorted(set(colour)))}
        rank = [index[c] for c in colour]
        if len(index) == count:
            return rank
        count = len(index)
        colour = [
            (
                rank[e],
                tuple(sorted(rank[a] for a in below[e])),
                tuple(sorted(rank[b] for b in above[e])),
            )
            for e in range(n)
        ]


def _lex_min(down, rank=None):
    """The lexicographically least row-major reflexive ``leq`` matrix over
    all relabelings of the poset whose point i has strict down-set
    ``down[i]`` (a bitmask), as one int per row with column 0 as its top
    bit. With ``rank``, only relabelings that list the cells in rank order
    count.

    Branch and bound: positions are filled one at a time, best child first,
    and a partial relabeling is cut once a lower bound on all its
    completions reaches the best key found. A filled row is bounded by its
    known columns, then ``False``s, then its remaining ``True``s; an open row
    by the least known part over the free points, its diagonal and the
    fewest remaining ``True``s among those points. Of free twins (points
    with the same strict down- and up-sets, which swap by an automorphism)
    only the lowest is tried."""
    n = len(down)
    col = [1 << (n - 1 - c) for c in range(n)]
    below = [down[e] | 1 << e for e in range(n)]
    above = [1 << e for e in range(n)]
    for e in range(n):
        m = down[e]
        while m:
            low = m & -m
            above[low.bit_length() - 1] |= 1 << e
            m ^= low
    twins = {}
    for e in range(n):
        key = (down[e], above[e] ^ 1 << e)
        twins[key] = twins.get(key, 0) | 1 << e
    twin = [twins[down[e], above[e] ^ 1 << e] for e in range(n)]
    slots = None if rank is None else sorted(rank)
    best = None

    def search(k, free, known, perm):
        nonlocal best
        children = []
        m = free
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            if slots is not None and rank[x] != slots[k]:
                continue
            if twin[x] & free & (low - 1):
                continue
            child = known[:]
            b = below[x]
            while b:
                lb = b & -b
                child[lb.bit_length() - 1] |= col[k]
                b ^= lb
            rest = free ^ low
            rows = [
                child[p] | (1 << (above[p] & rest).bit_count()) - 1
                for p in perm
            ]
            rows.append(child[x] | (1 << (above[x] & rest).bit_count()) - 1)
            if rest:
                part, trues = min(
                    (child[e], (above[e] & rest).bit_count() - 1)
                    for e in range(n)
                    if rest >> e & 1
                )
                for i in range(k + 1, n):
                    tail = (1 << trues) - 1
                    if tail >= col[i]:
                        tail = (tail << 1 | 1) & ~col[i]
                    rows.append(part | col[i] | tail)
            children.append((tuple(rows), x, child))
        children.sort()
        for bound, x, child in children:
            if best is not None and bound >= best:
                break
            if k + 1 == n:
                best = bound
                break
            search(k + 1, free & ~(1 << x), child, perm + [x])

    search(0, (1 << n) - 1, [0] * n, [])
    return best


def _poset_classes(max_points, cap=None):
    """Posets on 1..max_points points, one per isomorphism class, level by
    level. Level n grows from level n - 1 by one new maximal point whose
    strict down-set is any down-set of the smaller poset; every poset
    arises so, by removing a maximal point. Children are deduplicated by the
    least key over relabelings that keep the colour-refinement cells in
    order. Yields ``(n, classes)`` with each class as ``(down, downs)``: the
    strict down-set of every point and every down-set, as bitmasks. With
    ``cap``, posets with more than ``cap`` down-sets are dropped, which is
    safe because a new point never lowers the count."""
    level = [((), (0,))]
    for n in range(1, max_points + 1):
        bit = 1 << (n - 1)
        grown = {}
        for down, downs in level:
            for d in downs:
                lifted = tuple(e | bit for e in downs if e & d == d)
                if cap is not None and len(downs) + len(lifted) > cap:
                    continue
                child = down + (d,)
                cert = _lex_min(child, _cells(child))
                if cert not in grown:
                    grown[cert] = (child, downs + lifted)
        level = list(grown.values())
        if not level:
            return
        yield n, level


def _poset_from_key(key, names, name):
    # a key row holds column 0 as its top bit, an up-set mask as its lowest
    n = len(key)
    return Poset(names, tuple(int(f"{row:0{n}b}"[::-1], 2) for row in key), name=name)


@lru_cache(maxsize=None)
def corpus_frames(max_worlds=4):
    """All posets with 1..max_worlds points up to isomorphism, canonically
    labeled and deterministically ordered."""
    frames = []
    for n, level in _poset_classes(max_worlds):
        names = tuple(f"w{i}" for i in range(n))
        keys = sorted(_lex_min(down) for down, _ in level)
        for idx, key in enumerate(keys):
            frames.append(_poset_from_key(key, names, f"frame{n}_{idx}"))
    return tuple(frames)


def downset_lattice(poset, name):
    """The Birkhoff lattice of down-sets, ordered by inclusion."""
    n = len(poset)
    below = poset.down_masks
    masks = {0}
    frontier = [0]
    while frontier:
        grown = []
        for d in frontier:
            for i in range(n):
                if below[i] & ~d == 1 << i and d | 1 << i not in masks:
                    masks.add(d | 1 << i)
                    grown.append(d | 1 << i)
        frontier = grown
    members = {m: sorted(mask_members(m)) for m in masks}
    downs = sorted(masks, key=lambda m: (m.bit_count(), members[m]))
    pos = {m: i for i, m in enumerate(downs)}
    names = tuple(
        "{" + ",".join(poset.elements[i] for i in members[m]) + "}" for m in downs
    )
    return FiniteLattice(
        names,
        tuple(sum(1 << j for j, v in enumerate(downs) if not u & ~v) for u in downs),
        tuple(tuple([pos[u & v] for v in downs]) for u in downs),
        tuple(tuple([pos[u | v] for v in downs]) for u in downs),
        pos[0],
        pos[(1 << n) - 1],
        name=name,
    )


@lru_cache(maxsize=None)
def corpus_lattices(max_size=7):
    """Every bounded distributive lattice with 2..max_size elements, one per
    isomorphism class, ordered by size."""
    entries = sorted(
        (len(downs), n, _lex_min(down))
        for n, level in _poset_classes(max_size - 1, cap=max_size)
        for down, downs in level
    )
    out = []
    counters = {}
    for size, n, key in entries:
        idx = counters.get(size, 0)
        counters[size] = idx + 1
        poset = _poset_from_key(key, _jirr_names(n), "jirr")
        out.append(downset_lattice(poset, f"L{size}_{idx}"))
    return tuple(out)


class SuiteResult(_Record):
    """One suite's verdict. ``failures`` keeps the first 25 witnesses;
    ``failure_count`` counts every failure and ``seconds`` is the suite's
    CPU time (``time.process_time``), and neither is part of ``to_dict``."""

    _fields = ("name", "passed", "counts", "failures", "notes", "failure_count")
    _uncompared = ("seconds",)

    def __init__(
        self,
        name: str,
        passed: bool = True,
        counts: dict | None = None,
        failures: list | None = None,
        notes: list | None = None,
        failure_count: int = 0,
        seconds: float = 0.0,
    ):
        self.name = name
        self.passed = passed
        self.counts = {} if counts is None else counts
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes
        self.failure_count = failure_count
        self.seconds = seconds

    def fail(self, witness):
        self.passed = False
        self.failure_count += 1
        if len(self.failures) < 25:
            self.failures.append(witness)

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "counts": dict(sorted(self.counts.items())),
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


class CorpusReport(_Record):
    _fields = ("max_size", "frame_worlds", "seed", "suites")
    _uncompared = ("enumerate_seconds",)

    def __init__(
        self,
        max_size: int,
        frame_worlds: int,
        seed: int,
        suites: list | None = None,
        enumerate_seconds: float = 0.0,
    ):
        self.max_size = max_size
        self.frame_worlds = frame_worlds
        self.seed = seed
        self.suites = [] if suites is None else suites
        self.enumerate_seconds = enumerate_seconds

    @property
    def passed(self):
        return all(s.passed for s in self.suites)

    def to_dict(self):
        return {
            "max_size": self.max_size,
            "frame_worlds": self.frame_worlds,
            "seed": self.seed,
            "passed": self.passed,
            "suites": [s.to_dict() for s in self.suites],
        }


def _guarded(suite, witness_prefix, fn):
    """Run one corpus instance in its own verification scope; enumeration
    budgets count as failures with an explanatory witness instead of
    aborting the whole suite."""
    try:
        with verification_scope():
            fn()
    except BudgetExceeded as exc:
        suite.fail(f"{witness_prefix}: budget exceeded ({exc})")
    except DualityError as exc:
        suite.fail(f"{witness_prefix}: error ({exc})")


def suite_spectrum(lattices):
    suite = SuiteResult("spectrum_bijection")
    truth = chain_lattice(2)
    total = 0
    for lat in lattices:
        rep = spectrum_correspondence(make_bdl(lat, truth))
        total += rep.cardinalities.get("homs", 0)
        if not rep.passed:
            suite.fail(f"{lat.name}: {rep.witnesses}")
    suite.counts = {"lattices": len(lattices), "homs": total}
    return suite


def suite_separation(lattices):
    suite = SuiteResult("prime_separation")
    pairs = 0
    for lat in lattices:
        for x in range(len(lat)):
            for y in range(x + 1, len(lat)):
                pairs += 1
                ideal, flag = separating_prime_ideal(lat, x, y)
                if not is_prime_ideal(lat, ideal):
                    suite.fail(
                        f"{lat.name}: ideal for ({lat.elements[x]},{lat.elements[y]}) "
                        "is not prime on re-verification"
                    )
                    continue
                inside = flag == "contains-x"
                if (x in ideal) != inside or (y in ideal) == inside:
                    suite.fail(
                        f"{lat.name}: ideal does not separate "
                        f"({lat.elements[x]},{lat.elements[y]})"
                    )
    suite.counts = {"lattices": len(lattices), "pairs": pairs}
    return suite


def _fail_roundtrips(suite, label, mode, algebra, space, truth):
    """Fail the suite on each of the two round trips that is red."""
    rep = algebra_roundtrip(mode, algebra)
    if not rep.passed:
        suite.fail(f"{label}: algebra round trip: {rep.witnesses}")
    rep = space_roundtrip(mode, space, truth)
    if not rep.passed:
        suite.fail(f"{label}: space round trip: {rep.witnesses}")


def suite_isp_roundtrip(lattices, truth):
    suite = SuiteResult(f"isp_roundtrip_{truth.name}")
    for lat in lattices:
        def run(lat=lat):
            algebra = make_bdl(lat, truth)
            space = priestley_dual(algebra)
            obj_check = verify_pspa_object(space)
            if not obj_check.passed:
                suite.fail(f"{lat.name}: dual space invalid: {obj_check.witness}")
            _fail_roundtrips(suite, lat.name, PSPA, algebra, space, truth)

        _guarded(suite, lat.name, run)
    suite.counts = {"lattices": len(lattices)}
    return suite


def suite_ispi_roundtrip(frames, budget=DEFAULT_POWER_BUDGET):
    suite = SuiteResult("ispi_roundtrip")
    truth = chain_lattice(2)
    for frame in frames:
        def run(frame=frame):
            algebra = upset_algebra(truth, frame, budget=budget)
            cond = kripke_condition_check(algebra)
            if not cond.passed:
                suite.fail(f"{frame.name}: Kripke condition: {cond.witness}")
            space = esakia_dual(algebra)
            obj_check = verify_hspa_object(space)
            if not obj_check.passed:
                suite.fail(f"{frame.name}: dual space invalid: {obj_check.witness}")
            downclosure = check_downclosure_identity(algebra)
            if not downclosure.passed:
                suite.fail(
                    f"{frame.name}: down-closure identity: {downclosure.witness}"
                )
            _fail_roundtrips(suite, frame.name, HSPA, algebra, space, truth)

        _guarded(suite, frame.name, run)
    suite.counts = {"frames": len(frames)}
    return suite


def suite_heyting_coincidence(frames, budget=DEFAULT_POWER_BUDGET):
    suite = SuiteResult("heyting_coincidence")
    truth = chain_lattice(2)
    pairs = 0
    for frame in frames:
        def run(frame=frame):
            nonlocal pairs
            algebra = upset_algebra(truth, frame, budget=budget)
            n = len(algebra)
            table = heyting_table(algebra.lattice)
            if algebra.implies == table:
                pairs += n * n
                return
            # the first differing pair, counted as a pair-by-pair scan would
            f, g = next(
                (f, g)
                for f in range(n)
                for g in range(n)
                if algebra.implies[f][g] != table[f][g]
            )
            pairs += f * n + g + 1
            suite.fail(
                f"{frame.name}: implication differs from the relative "
                f"pseudocomplement at ({algebra.element_name(f)}, "
                f"{algebra.element_name(g)})"
            )

        _guarded(suite, frame.name, run)
    suite.counts = {"frames": len(frames), "pairs": pairs}
    return suite


def suite_lvl_duality():
    suite = SuiteResult("lvl_duality")
    inclusion_holds = 0
    objects = 0
    for truth in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
        base = make_lvl(truth)
        for algebra in (base, product_algebra(base, base)):
            objects += 1

            def run(algebra=algebra):
                nonlocal inclusion_holds
                obj = lvl_dual(algebra)
                for tag, res in verify_pbs_object(obj).items():
                    if not res.passed:
                        suite.fail(f"{algebra.name}: {tag}: {res.witness}")
                if check_second_topology_inclusion(obj).passed:
                    inclusion_holds += 1
                else:
                    suite.notes.append(
                        f"{algebra.name}: second dual topology escapes the first"
                    )
                _fail_roundtrips(suite, algebra.name, PBS, algebra, obj, truth)

            _guarded(suite, algebra.name, run)
    suite.counts = {"objects": objects, "second_topology_inside_first": inclusion_holds}
    return suite


def suite_axiom_ledger(lattices):
    suite = SuiteResult("axiom_ledger")
    for lat in lattices:
        rep = check_lvl_axioms(make_lvl(lat))
        if not rep.passed:
            bad = next(k for k, r in sorted(rep.clauses.items()) if not r.passed)
            suite.fail(f"{lat.name}: clause ({bad}): {rep.clauses[bad].witness}")
    c3 = chain_lattice(3)
    literal = check_lvl_axioms(make_lvl(c3), literal_iv=True)
    if literal.clauses["iv"].passed:
        suite.fail("three-chain: the two-index clause (iv) unexpectedly holds")
    else:
        witness = literal.clauses["iv"].witness or ""
        if "a=m, L1=0, L2=m" not in witness:
            suite.fail(f"three-chain: unexpected clause (iv) witness: {witness}")
    # direct evaluation of the two-index form at the recorded witness
    alg = make_lvl(c3)
    m = alg.lattice.index("m")
    val = alg.lattice.join[alg.t_ops[c3.index("0")][m]][
        alg.implies[alg.t_ops[c3.index("m")][m]][alg.lattice.bottom]
    ]
    if val == alg.lattice.top:
        suite.fail("three-chain: direct evaluation does not violate clause (iv)")
    suite.counts = {"lattices": len(lattices)}
    return suite


def _sample_pairs(homsets, rng, want):
    """Composable (f, g) pairs drawn deterministically from hom-sets indexed
    by (source, target) object indices.

    The pairs are numbered block by block, f-major within a (f-block,
    g-block) block, and only the drawn numbers are decoded: random.sample
    reads its population through len and indexing alone, so drawing from
    range(total) picks the same pairs as drawing from the full list."""
    keys = sorted(homsets)
    blocks = []
    starts = []
    total = 0
    for x, y in keys:
        for y2, z in keys:
            if y2 == y:
                fs, gs = homsets[(x, y)], homsets[(y, z)]
                blocks.append((fs, gs))
                starts.append(total)
                total += len(fs) * len(gs)
    picks = rng.sample(range(total), want) if total > want else range(total)
    pairs = []
    for index in picks:
        b = bisect.bisect_right(starts, index) - 1
        fs, gs = blocks[b]
        i, j = divmod(index - starts[b], len(gs))
        pairs.append((fs[i], gs[j]))
    return pairs


# the most composable hom pairs drawn from each object pool
FUNCTORIALITY_PAIRS = 60


# the objects and hom-sets live for the whole suite, so one verification
# scope lets every dualized hom reuse the duals of its ends
@verification_scope()
def suite_functoriality(lattices, frames, seed, budget=DEFAULT_POWER_BUDGET):
    suite = SuiteResult("functoriality")
    truth2 = chain_lattice(2)
    rng = random.Random(seed)
    counts = {}

    def run_mode(mode, objects):
        homsets = {}
        for i, a in enumerate(objects):
            for j, b in enumerate(objects):
                homs = enumerate_homs(a, b)
                if homs:
                    homsets[(i, j)] = homs
        for obj in objects:
            res = functor_identity_check(obj, mode)
            if not res.passed:
                suite.fail(f"{mode.name}: {res.witness}")
        pairs = _sample_pairs(homsets, rng, FUNCTORIALITY_PAIRS)
        counts[mode.name] = counts.get(mode.name, 0) + len(pairs)
        for f, g in pairs:
            res = functor_composition_check(f, g, mode)
            if not res.passed:
                suite.fail(
                    f"{mode.name}: pair {f.source.name}->{f.target.name}->{g.target.name}: "
                    f"{res.witness}"
                )

    # homs only exist within one truth lattice, so the pbs pool is split by
    # truth and the pair counts are added up
    for truth in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
        base = make_lvl(truth)
        run_mode(PBS, [base, product_algebra(base, base)])

    pspa_objects = [make_bdl(lat, truth2) for lat in lattices if len(lat) <= 5]
    run_mode(PSPA, pspa_objects)

    hspa_objects = [
        upset_algebra(truth2, frame, budget=budget)
        for frame in frames
        if len(frame) <= 3
    ]
    run_mode(HSPA, hspa_objects)

    suite.counts = dict(sorted(counts.items()))
    return suite


def corpus_run(max_size=7, frame_worlds=4, seed=0, budget=DEFAULT_POWER_BUDGET):
    """Run every verification suite over the corpus. Deterministic for fixed
    parameters: the seed only drives morphism-pair sampling. The seconds
    recorded are CPU seconds of this process."""
    started = time.process_time()
    lattices = corpus_lattices(max_size)
    frames = corpus_frames(frame_worlds)
    report = CorpusReport(
        max_size=max_size,
        frame_worlds=frame_worlds,
        seed=seed,
        enumerate_seconds=time.process_time() - started,
    )
    suites = (
        lambda: suite_spectrum(lattices),
        lambda: suite_separation(lattices),
        lambda: suite_isp_roundtrip(lattices, chain_lattice(2)),
        lambda: suite_isp_roundtrip(lattices, chain_lattice(3)),
        lambda: suite_ispi_roundtrip(frames, budget=budget),
        lambda: suite_heyting_coincidence(frames, budget=budget),
        suite_lvl_duality,
        lambda: suite_axiom_ledger(lattices),
        lambda: suite_functoriality(lattices, frames, seed, budget=budget),
    )
    for run in suites:
        started = time.process_time()
        suite = run()
        suite.seconds = time.process_time() - started
        report.suites.append(suite)
    return report
