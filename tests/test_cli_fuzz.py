"""A seeded mutation fuzz of the CLI.

Every case takes random edits of a sample document (characters, tokens and
lines deleted, inserted, duplicated or swapped, now and then a byte that is
not UTF-8) and runs it through one command and mode, sometimes with a
mutated truth lattice beside it. Whatever the input, a run ends in exit 0
or 1 with nothing on stderr, or in exit 2 with nothing on stdout and one
message on stderr: an ``error:`` line from the command, or argparse's
usage block. No other exception may escape, and argparse's ``SystemExit``
must carry code 2.
"""

import os
import random

from dualbench import cli
from dualbench.duality import MODES

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "sample_docs")
SAMPLES = sorted(name for name in os.listdir(DOCS) if name.endswith(".doc"))
MODE_COMMANDS = ("dualize", "reconstruct", "roundtrip", "verify-space")
TRUTH_COMMANDS = ("homs", "spectrum") + MODE_COMMANDS
# every command that reads a file, with each mode it takes; corpus-run reads
# no input, so there is nothing to mutate for it
RUNS = [
    (command, mode)
    for command in cli._HANDLERS
    if command != "corpus-run"
    for mode in (MODES if command in MODE_COMMANDS else (None,))
]
CASES = 3000
SEED = 0
ALPHABET = "01abmpqwz{},:<=()- #\n"


def sample(name):
    with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
        return fh.read()


def mutate(text, rng):
    """``text`` after one to three random edits, as bytes."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        tokens = text.split()
        edit = rng.randrange(7)
        at = rng.randrange(len(text) + 1)
        if edit == 0:
            text = text[:at] + text[at + 1 :]
        elif edit == 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif edit == 2:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif edit == 3:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        elif edit == 4:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        elif edit == 5 and tokens:
            old, new = rng.choice(tokens), rng.choice(tokens)
            text = text.replace(old, new, 1)
        elif edit == 6:
            data = text.encode("utf-8")
            at = rng.randrange(len(data) + 1)
            return data[:at] + b"\xff" + data[at:]
    return text.encode("utf-8")


def case_argv(rng, tmp_path):
    """The argv of one case, with its mutated inputs written out."""
    command, mode = rng.choice(RUNS)
    path = tmp_path / "case.doc"
    path.write_bytes(mutate(sample(rng.choice(SAMPLES)), rng))
    argv = [command, str(path), "--format", rng.choice(("text", "machine"))]
    if mode is not None:
        argv += ["--mode", mode]
    if command in TRUTH_COMMANDS and rng.random() < 0.2:
        truth = tmp_path / "truth.doc"
        truth.write_bytes(mutate(sample(rng.choice(SAMPLES)), rng))
        argv += ["--truth", str(truth)]
    if rng.random() < 0.2:
        argv += ["--budget", str(rng.choice((1, 4, 64)))]
    return argv


def check(code, out, err):
    """What is wrong with the outcome of a case, or None."""
    if code in (0, 1):
        return None if err == "" else "stderr written on exit 0 or 1"
    if code != 2:
        return f"exit {code!r}"
    if out != "":
        return "stdout written on exit 2"
    one_error_line = err.startswith("error: ") and err.find("\n") == len(err) - 1
    if not (one_error_line or err.startswith("usage: ")):
        return "exit 2 without one error line or a usage message"
    return None


def test_mutated_sample_documents_exit_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DUALITY_BUDGET", raising=False)
    rng = random.Random(SEED)
    faults, codes = [], {}
    for case in range(CASES):
        argv = case_argv(rng, tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code if exc.code == 2 else f"SystemExit({exc.code!r})"
        except Exception as exc:  # any other escape is a fault
            code = f"{type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        fault = check(code, out, err)
        if fault is not None:
            data = (tmp_path / "case.doc").read_bytes()
            faults.append((case, fault, argv, data, err[-300:]))
        codes[code] = codes.get(code, 0) + 1
    assert faults == []
    # the edits reach both verdicts as well as the input errors
    assert {0, 1, 2} <= set(codes), codes
