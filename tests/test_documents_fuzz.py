"""A seeded property fuzz of ``parse_documents`` on its own.

Each case takes a sample document and applies one to four random edits:
characters, format tokens and line breaks of every kind inserted, deleted
or swapped in, lines deleted, duplicated or swapped, and tokens replaced.
Whatever the text, ``parse_documents`` returns documents whose every field
sits on the line it records, or raises a ``DocumentError`` that names the
line at fault: a document line of the text, holding the field the error
names, if any. Only a text with no document line at all fails without a
line. Any other exception escapes and fails the case.
"""

import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from dualbench.documents import parse_documents
from dualbench.errors import DocumentError

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "sample_docs")
SAMPLES = sorted(name for name in os.listdir(DOCS) if name.endswith(".doc"))
PATH = "case.doc"
CODES = {"malformed-syntax", "schema-violation", "unknown-kind"}
# the line ends an editor counts; the other characters break a line for
# str.splitlines only, and are whitespace inside a line
LINE_END = re.compile(r"\r\n|\r|\n")
PIECES = (
    *"01abmpqwz{},:<=()-/# ",
    "---",
    "kind: ",
    "name: ",
    "\n",
    "\r\n",
    "\r",
    "\x0b",
    "\x0c",
    "\x1c",
    "\x85",
    " ",
    "�",
)
EDITS = ("delete", "insert", "drop-line", "repeat-line", "swap-lines", "token", "truncate")


def sample(name):
    with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
        return fh.read()


def apply(text, edits):
    """``text`` after each ``(edit, i, j, piece)``, positions taken modulo
    the current length."""
    for edit, i, j, piece in edits:
        lines = text.split("\n")
        tokens = text.split()
        at = i % (len(text) + 1)
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        elif edit == "insert":
            text = text[:at] + piece + text[at:]
        elif edit == "drop-line":
            del lines[i % len(lines)]
            text = "\n".join(lines)
        elif edit == "repeat-line":
            k = i % len(lines)
            lines.insert(j % (len(lines) + 1), lines[k])
            text = "\n".join(lines)
        elif edit == "swap-lines":
            a, b = i % len(lines), j % len(lines)
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
        elif edit == "token" and tokens:
            old = tokens[i % len(tokens)]
            new = tokens[j % len(tokens)] if j % 2 else piece
            text = text.replace(old, new, 1)
        elif edit == "truncate":
            text = text[:at]
    return text


def is_document_line(line):
    line = line.strip()
    return bool(line) and not line.startswith("#") and line != "---"


def edit():
    return st.tuples(
        st.sampled_from(EDITS),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.sampled_from(PIECES),
    )


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(name=st.sampled_from(SAMPLES), edits=st.lists(edit(), min_size=1, max_size=4))
def test_parse_documents_fails_only_with_located_document_errors(name, edits):
    text = apply(sample(name), edits)
    lines = LINE_END.split(text)
    try:
        docs = parse_documents(text, PATH)
    except DocumentError as exc:
        assert exc.code in CODES, exc.code
        if exc.line is None:
            assert str(exc) == "no documents found"
            assert not any(map(is_document_line, lines))
            return
        assert 1 <= exc.line <= len(lines), (exc.line, len(lines))
        assert exc.path == PATH and str(exc).endswith(f"({PATH}, line {exc.line})")
        line = lines[exc.line - 1]
        assert is_document_line(line), (str(exc), line)
        if exc.fieldname is not None:
            assert line.strip().startswith(f"{exc.fieldname}:"), (str(exc), line)
        return
    assert docs
    for doc in docs:
        assert doc.path == PATH
        for key, lineno in doc.lines:
            assert lines[lineno - 1].strip().startswith(f"{key}:"), (key, lineno)


def test_a_form_feed_does_not_move_the_line_numbers():
    # str.splitlines would end a line at the form feed too, and name line 5
    text = "# page one\x0c\nkind: lattice\nname: x\nelements 0 1\n"
    with pytest.raises(DocumentError) as err:
        parse_documents(text)
    assert (err.value.code, err.value.line) == ("malformed-syntax", 4)


def test_a_repeated_field_is_located_at_its_repeat():
    text = "kind: frame\nname: f\nworlds: a b\nworlds: a\n"
    with pytest.raises(DocumentError) as err:
        parse_documents(text)
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "schema-violation",
        4,
        "worlds",
    )
