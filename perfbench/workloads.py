"""Workload inputs and their reference answers.

Nothing here imports dualbench: the inputs are generated, and the answers
known, by this module's own code or by published counts, so a wrong verdict
of the program cannot also move the answer it is checked against.

Workloads:

* ``corpus`` - ``corpus_run(max_size=7, frame_worlds=4, seed)``, the
  end-to-end number of the repository. Hom search dominates and most of the
  work repeats (1813 hom searches over 184 distinct operation-table pairs at
  seed 0). The seed only drives functoriality sampling.
* ``powers`` - the implication side at scale: the implication round trip
  and the Heyting coincidence over every frame of up to 5 worlds, and the
  up-set algebra with its implication checks over seeded random 7- and
  8-world frames, whose full powers have 128 and 256 elements. Topologies
  stay tiny.
* ``wide-duals`` - single-document CLI runs with large duals: seeded random
  posets of 11 to 13 join-irreducibles written as lattice documents, each
  dualized and round-tripped in pspa and hspa modes. The duals carry
  2^11 to 2^13 open sets, so the topology layer dominates; this is the only
  workload that goes through the document parser and the CLI. Thirteen
  points is the cap because 14 would exceed the topology family limit of
  the program today.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("corpus", "powers", "wide-duals")

# OEIS A006982: distributive lattices with n elements, n = 2..7.
DISTRIBUTIVE_LATTICES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}
# OEIS A000112: posets with n elements, n = 1..5.
POSETS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

CORPUS_MAX_SIZE = 7
CORPUS_FRAME_WORLDS = 4
POWERS_FRAME_WORLDS = 5
# Worlds of the seeded frames; the cost of the full power depends on these
# alone (2^7 and 2^8 elements with quadratic tables).
POWERS_SEEDED_WORLDS = (7, 7, 8, 8)
# Up-set count of every seeded frame: the checks after the power are
# polynomial in it, so fixing it keeps a pass's work alike across seeds.
POWERS_UPSETS = 16
# Join-irreducibles (dual points) of the wide-duals documents.
WIDE_POINTS = (11, 12, 13)
# Down-set count (lattice size) of every wide-duals document, fixed for the
# same reason.
WIDE_DOWNSETS = 22
# Chance that two points of a random poset are related before closure.
COMPARABILITY = 0.6

WIDE_COMMANDS = (
    ("dualize", "pspa"),
    ("dualize", "hspa"),
    ("roundtrip", "pspa"),
    ("roundtrip", "hspa"),
)

# Mathematically expected suite verdicts. The ordered round trip over the
# three-element chain is false (the README explains why), so its failure
# ledger is the correct answer.
SUITE_VERDICTS = {
    "spectrum_bijection": True,
    "prime_separation": True,
    "isp_roundtrip_chain2": True,
    "isp_roundtrip_chain3": False,
    "ispi_roundtrip": True,
    "heyting_coincidence": True,
    "lvl_duality": True,
    "axiom_ledger": True,
    "functoriality": True,
}

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.json"


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------


def random_poset(n, rng, p=COMPARABILITY):
    """A reflexive, transitive ``leq`` matrix: each pair below a random
    linear order is related with chance ``p``, then closed transitively."""
    order = list(range(n))
    rng.shuffle(order)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                leq[order[a]][order[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def downset_masks(leq):
    """Every down-set as a bitmask, in increasing mask order."""
    n = len(leq)
    below = [sum(1 << j for j in range(n) if leq[j][i]) for i in range(n)]
    out = []
    for mask in range(1 << n):
        if all(below[i] & ~mask == 0 for i in range(n) if mask >> i & 1):
            out.append(mask)
    return out


def count_upsets(leq):
    """Up-sets and down-sets of a finite poset are in bijection."""
    return len(downset_masks(leq))


def opposite(leq):
    n = len(leq)
    return [[leq[j][i] for j in range(n)] for i in range(n)]


def isomorphic(p, q):
    """Whether two ``leq`` matrices are order-isomorphic, by backtracking
    over points matched on their numbers of elements above and below."""
    n = len(p)
    if n != len(q):
        return False

    def profile(leq, i):
        return (sum(leq[i]), sum(row[i] for row in leq))

    prof_p = [profile(p, i) for i in range(n)]
    prof_q = [profile(q, i) for i in range(n)]
    if sorted(prof_p) != sorted(prof_q):
        return False
    image = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or prof_q[j] != prof_p[i]:
                continue
            if all(
                p[i][k] == q[j][image[k]] and p[k][i] == q[image[k]][j]
                for k in range(i)
            ):
                image[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def _sample_poset(n, rng, upsets):
    while True:
        leq = random_poset(n, rng)
        if count_upsets(leq) == upsets:
            return leq


def lattice_document(name, leq):
    """The down-set lattice of a poset as a lattice document, with the
    covering pairs as its order."""
    downs = downset_masks(leq)
    label = {m: f"d{i}" for i, m in enumerate(downs)}
    present = set(downs)
    covers = [
        f"{label[m]}<={label[m | 1 << i]}"
        for m in downs
        for i in range(len(leq))
        if not m >> i & 1 and m | 1 << i in present
    ]
    return (
        "kind: lattice\n"
        f"name: {name}\n"
        f"elements: {' '.join(label[m] for m in downs)}\n"
        f"leq: {' '.join(covers)}\n"
        f"bottom: {label[downs[0]]}\n"
        f"top: {label[downs[-1]]}\n"
    )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def generate(workload, seed, workdir):
    """The inputs of one workload at one seed, as a JSON-ready dict; the
    wide-duals documents are written into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        return {
            "workload": workload,
            "seed": seed,
            "max_size": CORPUS_MAX_SIZE,
            "frame_worlds": CORPUS_FRAME_WORLDS,
        }
    if workload == "powers":
        frames = []
        for i, n in enumerate(POWERS_SEEDED_WORLDS):
            leq = _sample_poset(n, rng, POWERS_UPSETS)
            frames.append(
                {
                    "name": f"seeded{i}",
                    "worlds": [f"w{j}" for j in range(n)],
                    "leq": leq,
                    "upsets": count_upsets(leq),
                }
            )
        return {
            "workload": workload,
            "seed": seed,
            "frame_worlds": POWERS_FRAME_WORLDS,
            "frames": frames,
        }
    if workload == "wide-duals":
        docs = []
        for i, n in enumerate(WIDE_POINTS):
            leq = _sample_poset(n, rng, WIDE_DOWNSETS)
            name = f"wide{i}"
            path = Path(workdir) / f"{name}.doc"
            path.write_text(lattice_document(name, leq), encoding="utf-8")
            docs.append(
                {
                    "name": name,
                    "path": str(path),
                    "points": n,
                    "leq": leq,
                    "downsets": count_upsets(leq),
                }
            )
        return {"workload": workload, "seed": seed, "documents": docs}
    raise ValueError(f"unknown workload {workload!r}")


def instance_count(inputs):
    """How many instances one pass of these inputs decides."""
    workload = inputs["workload"]
    if workload == "corpus":
        return len(DISTRIBUTIVE_LATTICES) + CORPUS_FRAME_WORLDS + len(SUITE_VERDICTS)
    if workload == "powers":
        return POWERS_FRAME_WORLDS + 2 + len(inputs["frames"])
    return len(inputs["documents"]) * len(WIDE_COMMANDS)


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def load_ledger():
    with open(LEDGER_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def join_irreducibles(leq):
    """Elements with exactly one lower cover; a finite distributive lattice
    has one prime filter, hence one hom into the two-chain, per such
    element."""
    n = len(leq)
    count = 0
    for x in range(n):
        below = [y for y in range(n) if y != x and leq[y][x]]
        covers = [
            y for y in below if not any(z != y and leq[y][z] for z in below)
        ]
        count += len(covers) == 1
    return count


def check(inputs, result, ledger):
    """Each instance of one pass as ``(instance, problem)``; ``problem`` is
    None when the program's answer matches the reference."""
    workload = inputs["workload"]
    if workload == "corpus":
        return _check_corpus(result, ledger["corpus"])
    if workload == "powers":
        return _check_powers(inputs, result, ledger["powers"])
    return _check_wide(inputs, result)


def _count_by_size(sizes, expected, what):
    out = []
    for size, want in expected.items():
        got = sizes.count(size)
        problem = None if got == want else f"{got} {what} of size {size}, not {want}"
        out.append((f"{what}.size{size}", problem))
    return out


def _check_suite(suite, pinned, extra=None):
    name = suite["name"]
    if suite["passed"] != SUITE_VERDICTS[name]:
        return name, f"verdict {suite['passed']}, expected {SUITE_VERDICTS[name]}"
    if extra:
        return name, extra
    if suite != pinned:
        return name, "counts, witnesses or notes differ from the pinned ledger"
    return name, None


def _check_corpus(result, pinned):
    out = _count_by_size(
        [len(leq) for leq in result["lattices"]], DISTRIBUTIVE_LATTICES, "lattices"
    )
    frames = {n: POSETS[n] for n in range(1, CORPUS_FRAME_WORLDS + 1)}
    out += _count_by_size(result["frames"], frames, "frames")
    suites = {s["name"]: s for s in result["report"]["suites"]}
    expected_homs = sum(join_irreducibles(leq) for leq in result["lattices"])
    for name in SUITE_VERDICTS:
        suite = suites.get(name)
        if suite is None:
            out.append((name, "suite missing from the report"))
            continue
        extra = None
        if name == "spectrum_bijection" and suite["counts"].get("homs") != expected_homs:
            extra = f"{suite['counts'].get('homs')} homs, expected {expected_homs}"
        out.append(_check_suite(suite, pinned[name], extra))
    return out


def _check_powers(inputs, result, pinned):
    frames = result["frames"]
    out = _count_by_size([len(leq) for leq in frames], POSETS, "frames")
    pairs = sum(count_upsets(leq) ** 2 for leq in frames)
    for suite in result["suites"]:
        extra = None
        if suite["name"] == "heyting_coincidence" and suite["counts"].get("pairs") != pairs:
            extra = f"{suite['counts'].get('pairs')} pairs, expected {pairs}"
        out.append(_check_suite(suite, pinned[suite["name"]], extra))
    for frame, got in zip(inputs["frames"], result["seeded"]):
        problems = []
        if "error" in got:
            problems.append(got["error"])
        else:
            if got["size"] != frame["upsets"]:
                problems.append(f"{got['size']} elements, expected {frame['upsets']}")
            if got["points"] != len(frame["worlds"]):
                problems.append(
                    f"{got['points']} dual points, expected {len(frame['worlds'])}"
                )
            problems += [f"{k} failed" for k, ok in sorted(got["verdicts"].items()) if not ok]
        out.append((frame["name"], "; ".join(problems) or None))
    return out


def _dual_order(details):
    points = details["points"]
    index = {p: i for i, p in enumerate(points)}
    leq = [[i == j for j in range(len(points))] for i in range(len(points))]
    for pair in details["order"]:
        a, b = pair.split("<=")
        leq[index[a]][index[b]] = True
    return leq


def _check_wide(inputs, result):
    out = []
    for doc, runs in zip(inputs["documents"], result["documents"]):
        n, downs = doc["points"], doc["downsets"]
        for (command, mode), run in zip(WIDE_COMMANDS, runs):
            problems = []
            if run["exit"] != 0:
                problems.append(f"exit code {run['exit']}")
            report = run.get("report") or {}
            problems += [k for k, ok in sorted(report.get("verdicts", {}).items()) if not ok]
            if not report.get("verdicts"):
                problems.append("no verdicts")
            details = report.get("details", {})
            if command == "dualize" and report:
                if len(details.get("points", ())) != n:
                    problems.append(f"{len(details.get('points', ()))} points, expected {n}")
                elif not isomorphic(_dual_order(details), opposite(doc["leq"])):
                    # prime filters are ordered by inclusion, which reverses
                    # the order of the points that generate them
                    problems.append("dual order is not the opposite of the poset")
                if details.get("opens") != 2**n:
                    problems.append(f"{details.get('opens')} opens, expected {2**n}")
            if command == "roundtrip" and report:
                want = {
                    "algebra_algebra": downs,
                    "algebra_double_dual": downs,
                    "space_map_algebra": downs,
                    "algebra_dual_points": n,
                    "space_points": n,
                    "space_double_dual_points": n,
                }
                problems += [
                    f"{k}={details.get(k)}, expected {v}"
                    for k, v in want.items()
                    if details.get(k) != v
                ]
            out.append((f"{doc['name']}.{command}.{mode}", "; ".join(problems) or None))
    return out
