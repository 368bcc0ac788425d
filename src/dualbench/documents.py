"""The workspace document format: a strict, line-based, self-describing
text format with named references between documents.

A file holds one or more documents separated by a line containing only
``---``. Each document is a block of ``key: value`` lines; ``#`` starts a
full-line comment and blank lines are ignored. The first key must be
``kind`` (one of lattice, algebra, frame, space) and ``name`` is required.
A line ends at ``\n``, ``\r\n`` or ``\r``, as an editor counts lines, and
a located error names its line by that count.

Example::

    kind: lattice
    name: chain3
    elements: 0 m 1
    leq: 0<=m m<=1
    bottom: 0
    top: 1

Value syntaxes: token lists are whitespace-separated; order pairs are
``a<=b``; point sets are ``{p,q}`` (``{}`` is empty); assignment entries are
``{subalgebra}:{points}``; generator vectors are ``(v1,...,vk)`` over the
frame's worlds; operation tables are row-major with rows separated by ``/``
(``op.implies``, not on bdl) or a single row (``op.t[l]``, lvl only). An
operator table that the algebra would not read, or any on a power
presentation, is refused.
"""

from __future__ import annotations

import contextlib
import re

from .algebra import algebra_from_tables
from .errors import DocumentError, LatticeError
from .kripke import intuitionistic_power, power_subalgebra
from .lattice import build_lattice, build_poset, heyting_table
from .reporting import _Frozen
from .topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    generate_topology,
)

KINDS = ("lattice", "algebra", "frame", "space")

_SCHEMAS = {
    "lattice": {"required": {"elements", "leq", "bottom", "top"}, "optional": set()},
    "frame": {"required": {"worlds"}, "optional": {"order"}},
    "algebra": {
        "required": {"signature", "truth_lattice"},
        "optional": {
            "elements",
            "leq",
            "bottom",
            "top",
            "presentation",
            "frame",
            "generators",
        },
    },
    "space": {
        "required": {"points"},
        "optional": {"topo", "topo1", "topo2", "order", "truth_lattice", "alpha"},
    },
}

# the field through which a document refers to one of each kind
_REFERENCE_FIELDS = {"lattice": "truth_lattice", "frame": "frame"}

_KEY_RE = re.compile(r"^(\S+):\s*(.*)$")
# the line ends an editor counts (universal newlines); ``str.splitlines``
# also ends a line at a form feed, a vertical tab or a Unicode separator,
# which would put every later line number past the line it names
_LINE_END_RE = re.compile(r"\r\n|\r|\n")


class WorkspaceDocument(_Frozen):
    """One parsed document; ``lines`` holds the line of each field and
    ``path`` the file it was read from, None for text from elsewhere."""

    _fields = ("kind", "name", "fields")
    _uncompared = ("lines", "path")

    def __init__(
        self,
        kind: str,
        name: str,
        fields: tuple[tuple[str, str], ...],
        lines: tuple[tuple[str, int], ...] = (),
        path: str | None = None,
    ):
        self.kind = kind
        self.name = name
        self.fields = fields
        self.lines = lines
        self.path = path

    def get(self, key, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def line_of(self, key):
        for k, n in self.lines:
            if k == key:
                return n
        return None


def _normalize(value):
    return " ".join(value.split())


@contextlib.contextmanager
def _in_file(path):
    """Name ``path`` as the file of a located document error raised inside
    that names no file yet."""
    try:
        yield
    except DocumentError as exc:
        if exc.line is not None and exc.path is None:
            exc.path = path
        raise


def parse_documents(text, path=None):
    """Every document in the text, validated against its kind's schema;
    ``path`` names the file the text was read from, if any."""
    blocks = []
    current = []
    for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
        line = raw.strip()
        if line == "---":
            blocks.append(current)
            current = []
            continue
        if not line or line.startswith("#"):
            continue
        current.append((lineno, line))
    blocks.append(current)
    docs = []
    with _in_file(path):
        for block in blocks:
            if block:
                docs.append(_parse_block(block, path))
    if not docs:
        raise DocumentError("malformed-syntax", "no documents found")
    return tuple(docs)


def _parse_block(block, path):
    pairs = []
    for lineno, line in block:
        m = _KEY_RE.match(line)
        if not m:
            raise DocumentError(
                "malformed-syntax", f"expected 'key: value', got {line!r}", line=lineno
            )
        pairs.append((m.group(1), _normalize(m.group(2)), lineno))
    keys = [k for k, _, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        # located at the second line of the first repeated key
        k = sorted(dupes)[0]
        lineno = [n for key, _, n in pairs if key == k][1]
        raise DocumentError(
            "schema-violation",
            f"field {k!r} appears more than once",
            line=lineno,
            fieldname=k,
        )
    if keys[0] != "kind":
        raise DocumentError(
            "schema-violation", "a document must start with its kind", line=block[0][0]
        )
    table = {k: (v, n) for k, v, n in pairs}
    kind = table["kind"][0]
    if kind not in KINDS:
        raise DocumentError(
            "unknown-kind", f"unknown document kind {kind!r}", line=table["kind"][1]
        )
    if "name" not in table or not table["name"][0]:
        raise DocumentError(
            "schema-violation", f"{kind} document has no name", line=block[0][0]
        )
    schema = _SCHEMAS[kind]
    rest = {k for k in table if k not in ("kind", "name")}
    for k in sorted(schema["required"] - rest):
        raise DocumentError(
            "schema-violation",
            f"{kind} document {table['name'][0]!r} is missing field {k!r}",
            line=block[0][0],
        )
    for k in sorted(rest - schema["required"] - schema["optional"]):
        if kind == "algebra" and (k == "op.implies" or k.startswith("op.t[")):
            continue
        raise DocumentError(
            "schema-violation",
            f"{kind} document {table['name'][0]!r} has unknown field {k!r}",
            line=table[k][1],
        )
    for k in ("elements", "worlds", "points"):
        if k in table:
            _check_distinct(kind, table["name"][0], k, *table[k])
    if kind == "algebra":
        _check_algebra_shape(table)
    if kind == "space":
        has1, has2, has = "topo1" in table, "topo2" in table, "topo" in table
        if has and (has1 or has2):
            raise DocumentError(
                "schema-violation",
                "a space carries either one topology or two, not both",
                line=table["topo"][1],
            )
        if has1 != has2:
            raise DocumentError(
                "schema-violation", "topo1 and topo2 come together", line=block[0][0]
            )
        if not has and not has1:
            raise DocumentError(
                "schema-violation", "a space needs topo or topo1/topo2", line=block[0][0]
            )
        topologies, refused = ("one", ("truth_lattice", "alpha")) if has else ("two", ("order",))
        for k in refused:
            if k in table:
                raise DocumentError(
                    "schema-violation",
                    f"a {topologies}-topology space carries no {k}",
                    line=table[k][1],
                )
        if "alpha" in table and "truth_lattice" not in table:
            raise DocumentError(
                "schema-violation",
                "an assignment needs a truth_lattice reference",
                line=table["alpha"][1],
            )
    fields = tuple(
        sorted((k, v) for k, (v, _) in table.items() if k not in ("kind", "name"))
    )
    lines = tuple((k, n) for k, (_, n) in table.items())
    return WorkspaceDocument(kind, table["name"][0], fields, lines, path)


def _check_distinct(kind, name, key, value, lineno):
    """A carrier field declares each of its tokens once."""
    seen = set()
    for tok in _tokens(value):
        if tok in seen:
            raise DocumentError(
                "schema-violation",
                f"{kind} {name!r}: {tok!r} is declared twice in {key!r}",
                line=lineno,
                fieldname=key,
            )
        seen.add(tok)


def _check_algebra_shape(table):
    name = table["name"][0]
    tabular = {"elements", "leq", "bottom", "top"} & set(table)
    powery = {"presentation", "frame", "generators"} & set(table)
    if tabular and powery:
        raise DocumentError(
            "schema-violation",
            f"algebra {name!r} mixes explicit tables with a power presentation",
            line=table["name"][1],
        )
    if powery:
        if table.get("presentation", ("", 0))[0] != "power":
            raise DocumentError(
                "schema-violation",
                f"algebra {name!r}: the only supported presentation is 'power'",
                line=table["name"][1],
            )
        if "frame" not in table:
            raise DocumentError(
                "schema-violation",
                f"algebra {name!r}: a power presentation needs a frame reference",
                line=table["name"][1],
            )
    elif not {"elements", "leq", "bottom", "top"} <= set(table):
        raise DocumentError(
            "schema-violation",
            f"algebra {name!r} needs either full tables (elements/leq/bottom/top) "
            "or a power presentation",
            line=table["name"][1],
        )


def _tokens(value):
    return value.split()


def _pairs(doc, key, declared_key):
    """The 'a<=b' pairs of a field, each end declared in another field."""
    declared = set(_tokens(doc.get(declared_key) or ""))
    out = []
    for tok in _tokens(doc.get(key) or ""):
        a, _, b = tok.partition("<=")
        if not a or not b:
            raise DocumentError(
                "malformed-syntax",
                f"expected 'a<=b' pairs in {key!r}, got {tok!r}",
                line=doc.line_of(key),
                fieldname=key,
            )
        for name in (a, b):
            _require_declared(doc, key, name, declared, declared_key)
        out.append((a, b))
    return out


def _require_declared(doc, key, name, declared, declared_key):
    if name not in declared:
        raise DocumentError(
            "dangling-reference",
            f"{doc.kind} {doc.name!r}: {name!r} in {key!r} is not declared in "
            f"{declared_key!r}",
            line=doc.line_of(key),
            fieldname=key,
        )


def _lattice_pairs(doc):
    """The leq pairs of a document that declares its own lattice, with its
    bounds checked against the declared elements too."""
    pairs = _pairs(doc, "leq", "elements")
    declared = set(_tokens(doc.get("elements") or ""))
    for key in ("bottom", "top"):
        if doc.get(key) is not None:
            _require_declared(doc, key, doc.get(key), declared, "elements")
    return pairs


def _bracketed(tok, doc, key, noun):
    """The comma-separated entries of a ``{...}`` set or a ``(...)`` vector."""
    left, right = "{}" if noun == "set" else "()"
    if not (tok.startswith(left) and tok.endswith(right)):
        raise DocumentError(
            "malformed-syntax",
            f"expected a {left}...{right} {noun} in {key!r}, got {tok!r}",
            line=doc.line_of(key),
            fieldname=key,
        )
    inner = tok[1:-1]
    return [] if not inner else inner.split(",")


def _element_index(lattice, value, doc, key):
    """The index of a lattice element named in a field, or a located error."""
    if value not in lattice.elements:
        raise DocumentError(
            "dangling-reference",
            f"{doc.kind} {doc.name!r}: {value!r} in {key!r} is not an element of "
            f"{lattice.name}",
            line=doc.line_of(key),
            fieldname=key,
        )
    return lattice.elements.index(value)


class DocumentSet:
    """A resolver over a collection of documents: builds the mathematical
    objects, caching them, and reports dangling references."""

    def __init__(self, docs):
        self.docs = {}
        for doc in docs:
            if doc.name in self.docs:
                raise DocumentError(
                    "schema-violation",
                    f"two documents named {doc.name!r}",
                    line=doc.line_of("name"),
                    fieldname="name",
                    path=doc.path,
                )
            self.docs[doc.name] = doc
        self._built = {}

    def _lookup(self, name, kind, referrer):
        """The document ``name`` of ``kind``; ``referrer`` is the document
        whose reference field names it, or None for the command line."""
        doc = self.docs.get(name)
        if doc is None or doc.kind != kind:
            who, key, line, path = "<cli>", None, None, None
            if referrer is not None:
                key = _REFERENCE_FIELDS[kind]
                who, line, path = referrer.name, referrer.line_of(key), referrer.path
            raise DocumentError(
                "dangling-reference",
                f"{who!r} references {kind} {name!r}, which is not loaded",
                line=line,
                fieldname=key,
                path=path,
            )
        return doc

    def _build(self, kind, name, referrer, build):
        key = (kind, name)
        if key not in self._built:
            doc = self._lookup(name, kind, referrer)
            # an error located in a document this one refers to already
            # names that document's file
            with _in_file(doc.path):
                self._built[key] = build(doc)
        return self._built[key]

    def lattice(self, name, referrer=None):
        return self._build("lattice", name, referrer, build_lattice_from)

    def frame(self, name, referrer=None):
        return self._build("frame", name, referrer, build_frame_from)

    def algebra(self, name, budget):
        return self._build(
            "algebra", name, None, lambda doc: build_algebra_from(doc, self, budget)
        )

    def space(self, name):
        return self._build("space", name, None, lambda doc: build_space_from(doc, self))


def build_lattice_from(doc):
    elements = _tokens(doc.get("elements", ""))
    pairs = _lattice_pairs(doc)
    return build_lattice(elements, pairs, doc.get("bottom"), doc.get("top"), name=doc.name)


def _order_of(doc, elements, pairs, name):
    """The poset of the ``order`` field of a frame or space document; a
    cycle in it is an error located at the field."""
    try:
        return build_poset(elements, pairs, name=name)
    except LatticeError as exc:
        raise DocumentError(
            exc.code, str(exc), line=doc.line_of("order"), fieldname="order"
        ) from None


def build_frame_from(doc):
    worlds = _tokens(doc.get("worlds", ""))
    pairs = _pairs(doc, "order", "worlds")
    return _order_of(doc, worlds, pairs, doc.name)


def _check_operator_fields(doc, signature, truth):
    """Reject every operator table the algebra would not read: any on a
    power presentation, ``op.implies`` on bdl, and ``op.t[l]`` unless the
    signature is lvl and l is a truth-lattice element."""
    power = doc.get("presentation") == "power"
    for k, _ in doc.fields:
        if power and k.startswith("op."):
            why = "a power presentation takes no operator tables"
        elif k == "op.implies" and signature == "bdl":
            why = "signature bdl has no implication"
        elif k.startswith("op.t[") and signature != "lvl":
            why = f"signature {signature} has no truth-constant operators"
        elif k.startswith("op.t[") and k[5:-1] not in truth.elements:
            why = "the operator is not indexed by a truth-lattice element"
        else:
            continue
        raise DocumentError(
            "schema-violation",
            f"algebra {doc.name!r}: {why}, so {k!r} is not allowed",
            line=doc.line_of(k),
            fieldname=k,
        )


def build_algebra_from(doc, registry, budget):
    truth = registry.lattice(doc.get("truth_lattice"), referrer=doc)
    signature = doc.get("signature")
    if signature not in ("bdl", "heyting", "lvl", "isp_i"):
        raise DocumentError(
            "schema-violation",
            f"algebra {doc.name!r} has unknown signature {signature!r}",
            line=doc.line_of("signature"),
        )
    _check_operator_fields(doc, signature, truth)
    if doc.get("presentation") == "power":
        frame = registry.frame(doc.get("frame"), referrer=doc)
        if signature != "isp_i":
            raise DocumentError(
                "schema-violation",
                f"algebra {doc.name!r}: power presentations carry the isp_i signature",
                line=doc.line_of("signature"),
            )
        gens_field = doc.get("generators")
        if gens_field is None:
            return intuitionistic_power(truth, frame, budget=budget, name=doc.name)
        gens = []
        for tok in _tokens(gens_field):
            vals = _bracketed(tok, doc, "generators", "vector")
            if len(vals) != len(frame):
                raise DocumentError(
                    "schema-violation",
                    f"generator {tok} has {len(vals)} entries for {len(frame)} worlds",
                    line=doc.line_of("generators"),
                )
            gens.append(
                tuple(_element_index(truth, v, doc, "generators") for v in vals)
            )
        return power_subalgebra(truth, frame, gens, name=doc.name, budget=budget)
    lattice = build_lattice_from(doc)
    implies = _binary_table(doc, "op.implies", lattice)
    t_ops = None
    if signature == "lvl":
        t_ops = []
        for l in range(len(truth)):
            key = f"op.t[{truth.elements[l]}]"
            if doc.get(key) is not None:
                t_ops.append(_unary_table(doc, key, lattice))
            else:
                # default: the characteristic operator, matched by name
                t_ops.append(
                    tuple(
                        lattice.top
                        if lattice.elements[x] == truth.elements[l]
                        else lattice.bottom
                        for x in range(len(lattice))
                    )
                )
        t_ops = tuple(t_ops)
    if implies is None and signature in ("heyting", "lvl"):
        implies = heyting_table(lattice)
    if implies is None and signature == "isp_i":
        raise DocumentError(
            "schema-violation",
            f"algebra {doc.name!r}: isp_i needs an explicit op.implies table "
            "(or a power presentation)",
            line=doc.line_of("signature"),
        )
    return algebra_from_tables(
        signature, lattice, truth, implies=implies, t_ops=t_ops, name=doc.name
    )


def _binary_table(doc, key, lattice):
    value = doc.get(key)
    if value is None:
        return None
    rows = [r.strip() for r in value.split("/")]
    n = len(lattice)
    if len(rows) != n:
        raise DocumentError(
            "schema-violation",
            f"{key!r} has {len(rows)} rows for {n} elements",
            line=doc.line_of(key),
        )
    table = []
    for row in rows:
        vals = row.split()
        if len(vals) != n:
            raise DocumentError(
                "schema-violation",
                f"{key!r} has a row of width {len(vals)} for {n} elements",
                line=doc.line_of(key),
            )
        table.append(tuple(_element_index(lattice, v, doc, key) for v in vals))
    return tuple(table)


def _unary_table(doc, key, lattice):
    vals = _tokens(doc.get(key))
    if len(vals) != len(lattice):
        raise DocumentError(
            "schema-violation",
            f"{key!r} has {len(vals)} entries for {len(lattice)} elements",
            line=doc.line_of(key),
        )
    return tuple(_element_index(lattice, v, doc, key) for v in vals)


def build_space_from(doc, registry):
    points = _tokens(doc.get("points", ""))
    index = {p: i for i, p in enumerate(points)}

    def point_set(tok, key):
        out = set()
        for p in _bracketed(tok, doc, key, "set"):
            if p not in index:
                raise DocumentError(
                    "dangling-reference",
                    f"space {doc.name!r}: unknown point {p!r} in {key!r}",
                    line=doc.line_of(key),
                )
            out.add(index[p])
        return frozenset(out)

    def basis(key):
        return [point_set(tok, key) for tok in _tokens(doc.get(key, ""))]

    order_pairs = _pairs(doc, "order", "points")
    if doc.get("topo") is not None:
        topo = generate_topology(len(points), basis("topo"))
        order = _order_of(doc, points, order_pairs, f"{doc.name}-order")
        return OrderedSpace(tuple(points), topo, order, name=doc.name)
    space = BitopSpace(
        tuple(points),
        generate_topology(len(points), basis("topo1")),
        generate_topology(len(points), basis("topo2")),
        name=doc.name,
    )
    if doc.get("alpha") is None:
        return space
    truth = registry.lattice(doc.get("truth_lattice"), referrer=doc)
    entries = []
    for tok in _tokens(doc.get("alpha")):
        if "}:{" not in tok:
            raise DocumentError(
                "malformed-syntax",
                f"expected '{{subalgebra}}:{{points}}' entries in alpha, got {tok!r}",
                line=doc.line_of("alpha"),
            )
        left, _, right = tok.partition("}:")
        sub = frozenset(
            _element_index(truth, e, doc, "alpha")
            for e in _bracketed(left + "}", doc, "alpha", "set")
        )
        if any(sub == s for s, _ in entries):
            raise DocumentError(
                "schema-violation",
                f"space {doc.name!r}: subalgebra {left}}} is assigned twice in 'alpha'",
                line=doc.line_of("alpha"),
                fieldname="alpha",
            )
        entries.append((sub, point_set(right, "alpha")))
    entries.sort(key=lambda e: (len(e[0]), sorted(e[0])))
    alpha = AlphaAssignment(
        truth,
        tuple(s for s, _ in entries),
        tuple(i for _, i in entries),
    )
    return PbsObject(space, alpha)
