"""Corpus enumeration and the batch verification runner.

The lattice corpus is every bounded distributive lattice up to a size bound,
obtained as down-set lattices of all posets of join-irreducibles up to
isomorphism (canonical labeling by lexicographically minimal adjacency
encoding over all permutations, which is fine at these sizes). The frame
corpus is every poset up to a world bound. ``corpus_run`` drives all the
verification suites over these corpora and aggregates verdicts
deterministically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (
    check_lvl_axioms,
    enumerate_homs,
    make_bdl,
    make_lvl,
    product_algebra,
)
from .duality import (
    check_downclosure_identity,
    check_esakia_algebra_roundtrip,
    check_esakia_space_roundtrip,
    check_lvl_algebra_roundtrip,
    check_lvl_space_roundtrip,
    check_priestley_algebra_roundtrip,
    check_priestley_space_roundtrip,
    check_second_topology_inclusion,
    esakia_dual,
    functor_composition_check,
    functor_identity_check,
    lvl_dual,
    priestley_dual,
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
    heyting_implies,
    is_prime_ideal,
    separating_prime_ideal,
)
from .topology import verify_hspa_object, verify_pbs_object, verify_pspa_object

MAX_IRREDUCIBLES = 6
_POINT_NAMES = "abcdefg"


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
    return Poset(tuple(names[:n]), leq, name=name)


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


@lru_cache(maxsize=None)
def corpus_frames(max_worlds=4):
    """All posets with 1..max_worlds points up to isomorphism, canonically
    labeled and deterministically ordered."""
    frames = []
    for n in range(1, max_worlds + 1):
        keys = {_canonical_key(rel, n) for rel in _strict_orders(n)}
        for idx, key in enumerate(sorted(keys)):
            names = tuple(f"w{i}" for i in range(n))
            frames.append(_poset_from_key(key, n, names, f"frame{n}_{idx}"))
    return tuple(frames)


def downset_lattice(poset, name):
    """The Birkhoff lattice of down-sets, ordered by inclusion."""
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
        leq,
        meet,
        join,
        pos[frozenset()],
        pos[frozenset(range(n))],
        name=name,
    )


@lru_cache(maxsize=None)
def corpus_lattices(max_size=7):
    """Every bounded distributive lattice with 2..max_size elements, one per
    isomorphism class, ordered by size."""
    if max_size - 1 > MAX_IRREDUCIBLES:
        raise BudgetExceeded(
            f"lattice corpus beyond {MAX_IRREDUCIBLES + 1} elements needs more "
            "join-irreducibles than the poset scan supports"
        )
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
            entries.append((n, key, _poset_from_key(key, n, _POINT_NAMES, "jirr")))
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


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, witness):
        self.passed = False
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


@dataclass
class CorpusReport:
    max_size: int
    frame_worlds: int
    seed: int
    suites: list = field(default_factory=list)

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


def suite_isp_roundtrip(lattices, truth):
    suite = SuiteResult(f"isp_roundtrip_{truth.name}")
    for lat in lattices:
        def run(lat=lat):
            algebra = make_bdl(lat, truth)
            space = priestley_dual(algebra)
            obj_check = verify_pspa_object(space)
            if not obj_check.passed:
                suite.fail(f"{lat.name}: dual space invalid: {obj_check.witness}")
            sigma = check_priestley_algebra_roundtrip(algebra)
            if not sigma.passed:
                suite.fail(f"{lat.name}: algebra round trip: {sigma.witnesses}")
            delta = check_priestley_space_roundtrip(space, truth)
            if not delta.passed:
                suite.fail(f"{lat.name}: space round trip: {delta.witnesses}")

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
            sigma = check_esakia_algebra_roundtrip(algebra)
            if not sigma.passed:
                suite.fail(f"{frame.name}: algebra round trip: {sigma.witnesses}")
            delta = check_esakia_space_roundtrip(space, truth)
            if not delta.passed:
                suite.fail(f"{frame.name}: space round trip: {delta.witnesses}")

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
            for f in range(len(algebra)):
                for g in range(len(algebra)):
                    pairs += 1
                    if algebra.implies[f][g] != heyting_implies(
                        algebra.lattice, f, g
                    ):
                        suite.fail(
                            f"{frame.name}: implication differs from the relative "
                            f"pseudocomplement at ({algebra.element_name(f)}, "
                            f"{algebra.element_name(g)})"
                        )
                        return

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
                beta = check_lvl_algebra_roundtrip(algebra)
                if not beta.passed:
                    suite.fail(f"{algebra.name}: algebra round trip: {beta.witnesses}")
                zeta = check_lvl_space_roundtrip(obj)
                if not zeta.passed:
                    suite.fail(f"{algebra.name}: space round trip: {zeta.witnesses}")

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
    by (source, target) object indices."""
    pairs = []
    keys = sorted(homsets)
    for x, y in keys:
        for y2, z in keys:
            if y2 != y:
                continue
            for f in homsets[(x, y)]:
                for g in homsets[(y, z)]:
                    pairs.append((f, g))
    if len(pairs) > want:
        pairs = rng.sample(pairs, want)
    return pairs


# the objects and hom-sets live for the whole suite, so one verification
# scope lets every dualized hom reuse the duals of its ends
@verification_scope()
def suite_functoriality(lattices, frames, seed, budget=DEFAULT_POWER_BUDGET, want=60):
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
                suite.fail(f"{mode}: {res.witness}")
        pairs = _sample_pairs(homsets, rng, want)
        counts[mode] = len(pairs)
        for f, g in pairs:
            res = functor_composition_check(f, g, mode)
            if not res.passed:
                suite.fail(
                    f"{mode}: pair {f.source.name}->{f.target.name}->{g.target.name}: "
                    f"{res.witness}"
                )

    # homs only exist within one truth lattice, so the pbs pool is split by
    # truth and the pair counts are added up
    pbs_pairs = 0
    for truth in (chain_lattice(2), chain_lattice(3), diamond_lattice()):
        base = make_lvl(truth)
        group = [base, product_algebra(base, base)]
        for obj in group:
            res = functor_identity_check(obj, "pbs")
            if not res.passed:
                suite.fail(f"pbs: {res.witness}")
        hs = {}
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                homs = enumerate_homs(a, b)
                if homs:
                    hs[(i, j)] = homs
        pairs = _sample_pairs(hs, rng, want)
        pbs_pairs += len(pairs)
        for f, g in pairs:
            res = functor_composition_check(f, g, "pbs")
            if not res.passed:
                suite.fail(f"pbs: {res.witness}")
    counts["pbs"] = pbs_pairs

    pspa_objects = [make_bdl(lat, truth2) for lat in lattices if len(lat) <= 5]
    run_mode("pspa", pspa_objects)

    hspa_objects = [
        upset_algebra(truth2, frame, budget=budget)
        for frame in frames
        if len(frame) <= 3
    ]
    run_mode("hspa", hspa_objects)

    suite.counts = dict(sorted(counts.items()))
    return suite


def corpus_run(max_size=7, frame_worlds=4, seed=0, budget=DEFAULT_POWER_BUDGET):
    """Run every verification suite over the corpus. Deterministic for fixed
    parameters: the seed only drives morphism-pair sampling."""
    lattices = corpus_lattices(max_size)
    frames = corpus_frames(frame_worlds)
    report = CorpusReport(max_size=max_size, frame_worlds=frame_worlds, seed=seed)
    report.suites.append(suite_spectrum(lattices))
    report.suites.append(suite_separation(lattices))
    report.suites.append(suite_isp_roundtrip(lattices, chain_lattice(2)))
    report.suites.append(suite_isp_roundtrip(lattices, chain_lattice(3)))
    report.suites.append(suite_ispi_roundtrip(frames, budget=budget))
    report.suites.append(suite_heyting_coincidence(frames, budget=budget))
    report.suites.append(suite_lvl_duality())
    report.suites.append(suite_axiom_ledger(lattices))
    report.suites.append(suite_functoriality(lattices, frames, seed, budget=budget))
    return report
