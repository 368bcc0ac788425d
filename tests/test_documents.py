import pytest

import lattice_oracle
import vector_oracle
from dualbench.algebra import subalgebra_of
from dualbench.documents import DocumentSet, build_frame_from, build_lattice_from, parse_documents
from dualbench.errors import BudgetExceeded, DocumentError, LatticeError
from dualbench.corpus import corpus_frames, corpus_lattices
from dualbench.kripke import intuitionistic_power

CHAIN3 = """\
# a comment line
kind: lattice
name: chain3
elements: 0 m 1
leq: 0<=m m<=1
bottom: 0
top: 1
"""


def test_parse_valid_lattice(chain3):
    (doc,) = parse_documents(CHAIN3)
    assert doc.kind == "lattice" and doc.name == "chain3"
    lat = build_lattice_from(doc)
    assert lat.elements == chain3.elements
    assert lat.leq == chain3.leq


def test_a_located_error_names_the_file_its_text_came_from(chain3):
    # the file is kept with each document; text from elsewhere names a line
    # alone, and equality ignores where a document came from
    (doc,) = parse_documents(CHAIN3, "docs/chain3.doc")
    assert doc.path == "docs/chain3.doc" and doc == parse_documents(CHAIN3)[0]
    bad = CHAIN3.replace("leq: 0<=m m<=1", "leq 0<=m m<=1")
    expected = "expected 'key: value', got 'leq 0<=m m<=1'"
    for path, where in ((None, "(line 5)"), ("docs/chain3.doc", "(docs/chain3.doc, line 5)")):
        with pytest.raises(DocumentError) as err:
            parse_documents(bad, path)
        assert (str(err.value), err.value.path) == (f"{expected} {where}", path)
    with pytest.raises(DocumentError) as err:
        DocumentSet(parse_documents(CHAIN3, "a.doc") + parse_documents(CHAIN3, "b.doc"))
    assert str(err.value) == "two documents named 'chain3' (b.doc, line 3)"
    # an error with no line names no file either
    with pytest.raises(DocumentError) as err:
        parse_documents("# nothing\n", "empty.doc")
    assert str(err.value) == "no documents found"


def test_cycle_rejected_at_build():
    (doc,) = parse_documents(
        "kind: lattice\nname: bad\nelements: 0 1\nleq: 0<=1 1<=0\nbottom: 0\ntop: 1\n"
    )
    with pytest.raises(LatticeError) as err:
        build_lattice_from(doc)
    assert err.value.code == "not-a-poset"


def test_dangling_truth_reference():
    text = (
        "kind: algebra\nname: a\nsignature: lvl\ntruth_lattice: nowhere\n"
        "elements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError) as err:
        docset.algebra("a", budget=4096)
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "dangling-reference",
        4,
        "truth_lattice",
    )
    assert str(err.value) == "'a' references lattice 'nowhere', which is not loaded (line 4)"


def test_a_lookup_from_the_command_line_names_no_line():
    docset = DocumentSet(parse_documents(CHAIN3))
    with pytest.raises(DocumentError) as err:
        docset.frame("chain3")
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "dangling-reference",
        None,
        None,
    )
    assert str(err.value) == "'<cli>' references frame 'chain3', which is not loaded"


def test_a_second_document_of_one_name_is_located():
    # a name is taken whatever the kind; the error names the second one
    text = CHAIN3 + "---\nkind: frame\nname: chain3\nworlds: a\n"
    with pytest.raises(DocumentError) as err:
        DocumentSet(parse_documents(text))
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "schema-violation",
        10,
        "name",
    )
    assert str(err.value) == "two documents named 'chain3' (line 10)"


def test_unknown_kind_with_line():
    with pytest.raises(DocumentError) as err:
        parse_documents("kind: banana\nname: x\n")
    assert err.value.code == "unknown-kind"
    assert err.value.line == 1


def test_malformed_line_number():
    with pytest.raises(DocumentError) as err:
        parse_documents("kind: lattice\nname: x\nelements 0 1\n")
    assert err.value.code == "malformed-syntax"
    assert err.value.line == 3


def test_duplicate_field():
    with pytest.raises(DocumentError) as err:
        parse_documents("kind: frame\nname: x\nworlds: a\nworlds: b\n")
    assert err.value.code == "schema-violation"


def test_missing_field():
    with pytest.raises(DocumentError) as err:
        parse_documents("kind: lattice\nname: x\nelements: 0 1\n")
    assert err.value.code == "schema-violation"


def test_unknown_field():
    with pytest.raises(DocumentError) as err:
        parse_documents(CHAIN3 + "flavour: sour\n")
    assert err.value.code == "schema-violation"


def test_space_topology_shape_rules():
    with pytest.raises(DocumentError):
        parse_documents("kind: space\nname: s\npoints: p\ntopo: {p}\ntopo1: {p}\ntopo2: {p}\n")
    with pytest.raises(DocumentError):
        parse_documents("kind: space\nname: s\npoints: p\ntopo1: {p}\n")
    with pytest.raises(DocumentError):
        parse_documents("kind: space\nname: s\npoints: p\n")
    with pytest.raises(DocumentError):
        parse_documents("kind: space\nname: s\npoints: p\ntopo: {p}\nalpha: {0,1}:{p}\n")


def test_algebra_shape_rules():
    with pytest.raises(DocumentError):
        parse_documents(
            "kind: algebra\nname: a\nsignature: lvl\ntruth_lattice: t\n"
        )
    with pytest.raises(DocumentError):
        parse_documents(
            "kind: algebra\nname: a\nsignature: isp_i\ntruth_lattice: t\n"
            "presentation: power\nframe: f\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
        )


def test_multi_document_file_and_separator():
    docs = parse_documents(CHAIN3 + "---\nkind: frame\nname: w1\nworlds: w\n")
    assert [d.kind for d in docs] == ["lattice", "frame"]


def test_duplicate_names_rejected():
    with pytest.raises(DocumentError):
        DocumentSet(parse_documents(CHAIN3 + "---\n" + CHAIN3))


def test_round_trip_corpus_lattices():
    for lat in corpus_lattices(5):
        (doc,) = parse_documents(lattice_oracle.lattice_text(lat))
        rebuilt = build_lattice_from(doc)
        assert rebuilt.elements == lat.elements
        assert rebuilt.leq == lat.leq
        assert rebuilt.meet == lat.meet
        assert rebuilt.join == lat.join


def test_round_trip_corpus_frames():
    for frame in corpus_frames(3):
        names = frame.elements
        order = " ".join(f"{names[i]}<={names[j]}" for i, j in lattice_oracle.cover_pairs(frame))
        text = f"kind: frame\nname: {frame.name}\nworlds: {' '.join(names)}\norder: {order}\n"
        (doc,) = parse_documents(text)
        rebuilt = build_frame_from(doc)
        assert rebuilt.elements == frame.elements
        assert rebuilt.leq == frame.leq


def test_algebra_with_explicit_tables(chain3):
    text = (
        "kind: algebra\nname: weird\nsignature: lvl\ntruth_lattice: chain3\n"
        "elements: 0 m 1\nleq: 0<=m m<=1\nbottom: 0\ntop: 1\n"
        "op.t[1]: 0 m 1\n"
        "---\n" + CHAIN3
    )
    docset = DocumentSet(parse_documents(text))
    algebra = docset.algebra("weird", budget=4096)
    # the table overrides the characteristic default: now the identity
    assert algebra.t_ops[chain3.top] == (0, 1, 2)
    assert algebra.t_ops[0] == (2, 0, 0)


def test_algebra_bad_table_width():
    text = (
        "kind: algebra\nname: a\nsignature: lvl\ntruth_lattice: chain3\n"
        "elements: 0 m 1\nleq: 0<=m m<=1\nbottom: 0\ntop: 1\n"
        "op.t[1]: 0 m\n---\n" + CHAIN3
    )
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError):
        docset.algebra("a", budget=4096)


def test_power_generators_validation():
    base = (
        "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
        "presentation: power\nframe: w2\ngenerators: (0,1,1)\n"
        "---\nkind: frame\nname: w2\nworlds: w0 w1\norder: w0<=w1\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    docset = DocumentSet(parse_documents(base))
    with pytest.raises(DocumentError):
        docset.algebra("p", budget=4096)


def test_power_generators_match_the_materialized_power():
    # the document route closes its generators without building the power;
    # it must give what cutting the oracle's closure of them out of the
    # power gives
    for gens in ("(0,1)", "(1,0)"):
        text = (
            "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
            f"presentation: power\nframe: w2\ngenerators: {gens}\n"
            "---\nkind: frame\nname: w2\nworlds: w0 w1\norder: w0<=w1\n"
            "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\n"
            "bottom: 0\ntop: 1\n"
        )
        algebra = DocumentSet(parse_documents(text)).algebra("p", budget=4096)
        truth, frame = algebra.truth, algebra.presentation.frame
        power = intuitionistic_power(truth, frame, name="p")
        vectors = power.presentation.vectors
        closed = vector_oracle.close_vectors(
            truth, frame, [vectors[power.elements.index(gens)]]
        )
        expected = subalgebra_of(power, [vectors.index(v) for v in closed], name="p")
        assert algebra == expected


def test_generator_documents_are_bounded_by_their_closure():
    # the power over 13 unordered worlds has 2^13 > 4096 elements, but two
    # generators cut the worlds into four blocks and close to the 16 unions
    # of blocks; the budget bounds that closure
    def vector(bit):
        return "(" + ",".join(str(bit(i)) for i in range(13)) + ")"

    text = (
        "kind: algebra\nname: g\nsignature: isp_i\ntruth_lattice: chain2\n"
        "presentation: power\nframe: a13\n"
        f"generators: {vector(lambda i: int(i < 7))} {vector(lambda i: i % 2)}\n"
        "---\nkind: frame\nname: a13\n"
        f"worlds: {' '.join(f'w{i}' for i in range(13))}\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\n"
        "bottom: 0\ntop: 1\n"
    )
    algebra = DocumentSet(parse_documents(text)).algebra("g", budget=4096)
    assert len(algebra) == 16
    assert len(DocumentSet(parse_documents(text)).algebra("g", budget=16)) == 16
    with pytest.raises(BudgetExceeded) as err:
        DocumentSet(parse_documents(text)).algebra("g", budget=15)
    assert str(err.value) == "the closure of the generators over 'a13' has more than 15 elements"


def test_space_with_alpha_builds(chain2):
    text = (
        "kind: space\nname: s\npoints: z u\ntopo1: {z} {u}\ntopo2: {z} {u}\n"
        "truth_lattice: chain2\nalpha: {0,1}:{z,u}\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    docset = DocumentSet(parse_documents(text))
    obj = docset.space("s")
    from dualbench.topology import PbsObject, verify_pbs_object

    assert isinstance(obj, PbsObject)
    checks = verify_pbs_object(obj)
    assert all(r.passed for r in checks.values())


def test_unknown_point_in_alpha():
    text = (
        "kind: space\nname: s\npoints: z\ntopo1: {z}\ntopo2: {z}\n"
        "truth_lattice: chain2\nalpha: {0,1}:{nope}\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError) as err:
        docset.space("s")
    assert err.value.code == "dangling-reference"


POWER_W2 = (
    "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
    "presentation: power\nframe: w2\ngenerators: {gens}\n"
    "---\nkind: frame\nname: w2\nworlds: w0 w1\norder: w0<=w1\n"
    "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
)


def generator_error(gens):
    docset = DocumentSet(parse_documents(POWER_W2.format(gens=gens)))
    with pytest.raises(DocumentError) as err:
        docset.algebra("p", budget=4096)
    return err.value


def test_dangling_frame_reference_is_located():
    text = POWER_W2.format(gens="(0,1)").replace("frame: w2", "frame: w3")
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError) as err:
        docset.algebra("p", budget=4096)
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "dangling-reference",
        6,
        "frame",
    )
    assert str(err.value) == "'p' references frame 'w3', which is not loaded (line 6)"


def test_empty_generator_has_no_entries():
    err = generator_error("()")
    assert err.code == "schema-violation"
    assert str(err) == "generator () has 0 entries for 2 worlds (line 7)"


def test_unknown_generator_value_is_located():
    err = generator_error("(0,1) (0,2)")
    assert (err.code, err.line, err.fieldname) == ("dangling-reference", 7, "generators")
    assert str(err) == (
        "algebra 'p': '2' in 'generators' is not an element of chain2 (line 7)"
    )


def test_unknown_alpha_value_is_located():
    text = (
        "kind: space\nname: s\npoints: z u\ntopo1: {z} {u}\ntopo2: {z} {u}\n"
        "truth_lattice: chain2\nalpha: {0,7}:{z,u}\n"
        "---\nkind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError) as err:
        docset.space("s")
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "dangling-reference",
        7,
        "alpha",
    )
    assert str(err.value) == (
        "space 's': '7' in 'alpha' is not an element of chain2 (line 7)"
    )


CHAIN2_DOC = "kind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"


def algebra_text(fields, signature="lvl"):
    return (
        f"kind: algebra\nname: h2\nsignature: {signature}\ntruth_lattice: chain2\n"
        f"elements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n{fields}---\n{CHAIN2_DOC}"
    )


def table_error(fields):
    docset = DocumentSet(parse_documents(algebra_text(fields)))
    with pytest.raises(DocumentError) as err:
        docset.algebra("h2", budget=4096)
    return err.value


def test_unknown_table_entries_are_located():
    err = table_error("op.implies: 1 1 / zz 1\n")
    assert (err.code, err.line, err.fieldname) == ("dangling-reference", 9, "op.implies")
    assert str(err) == "algebra 'h2': 'zz' in 'op.implies' is not an element of h2 (line 9)"
    err = table_error("op.t[0]: 1 0\nop.t[1]: 0 qq\n")
    assert (err.code, err.line, err.fieldname) == ("dangling-reference", 10, "op.t[1]")
    assert str(err) == "algebra 'h2': 'qq' in 'op.t[1]' is not an element of h2 (line 10)"


POWER_DOC = (
    "kind: algebra\nname: p\nsignature: isp_i\ntruth_lattice: chain2\n"
    "presentation: power\nframe: w2\n{fields}---\n" + CHAIN2_DOC
    + "---\nkind: frame\nname: w2\nworlds: a b\norder: a<=b\n"
)
POWER_WHY = "a power presentation takes no operator tables"


@pytest.mark.parametrize(
    "signature, fields, key, why",
    [
        ("bdl", "op.implies: 1 1 / 0 1\n", "op.implies", "signature bdl has no implication"),
        ("bdl", "op.t[zz]: 1 1 1\n", "op.t[zz]", "signature bdl has no truth-constant operators"),
        ("heyting", "op.t[1]: 0 1\n", "op.t[1]", "signature heyting has no truth-constant operators"),
        (
            "isp_i",
            "op.implies: 1 1 / 0 1\nop.t[0]: 1 0\n",
            "op.t[0]",
            "signature isp_i has no truth-constant operators",
        ),
        ("lvl", "op.t[zz]: 0 1\n", "op.t[zz]", "the operator is not indexed by a truth-lattice element"),
        ("power", "op.implies: 1 1 / 0 1\n", "op.implies", POWER_WHY),
        ("power", "generators: (0,1)\nop.t[1]: 0 1\n", "op.t[1]", POWER_WHY),
    ],
)
def test_operator_fields_the_algebra_does_not_read_are_located(signature, fields, key, why):
    # an operator table that the algebra would not read is refused, not dropped
    if signature == "power":
        name, line, text = "p", 6, POWER_DOC.format(fields=fields)
    else:
        name, line, text = "h2", 8, algebra_text(fields, signature)
    line += fields.count("\n")
    docset = DocumentSet(parse_documents(text))
    with pytest.raises(DocumentError) as err:
        docset.algebra(name, budget=4096)
    assert (err.value.code, err.value.line, err.value.fieldname) == ("schema-violation", line, key)
    assert str(err.value) == f"algebra {name!r}: {why}, so {key!r} is not allowed (line {line})"


@pytest.mark.parametrize(
    "text, key, line, message",
    [
        (
            "kind: lattice\nname: l\nelements: 0 1\nleq: 0<=q\nbottom: 0\ntop: 1\n",
            "leq",
            4,
            "lattice 'l': 'q' in 'leq' is not declared in 'elements' (line 4)",
        ),
        (
            "kind: lattice\nname: l\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: z\n",
            "top",
            6,
            "lattice 'l': 'z' in 'top' is not declared in 'elements' (line 6)",
        ),
        (
            "kind: frame\nname: f\nworlds: u v\norder: u<=w\n",
            "order",
            4,
            "frame 'f': 'w' in 'order' is not declared in 'worlds' (line 4)",
        ),
        (
            "kind: space\nname: s\npoints: p\ntopo: {p}\norder: p<=r\n",
            "order",
            5,
            "space 's': 'r' in 'order' is not declared in 'points' (line 5)",
        ),
        (
            "kind: algebra\nname: a\nsignature: bdl\ntruth_lattice: chain2\n"
            f"elements: 0 1\nleq: x<=1\nbottom: 0\ntop: 1\n---\n{CHAIN2_DOC}",
            "leq",
            6,
            "algebra 'a': 'x' in 'leq' is not declared in 'elements' (line 6)",
        ),
    ],
)
def test_undeclared_order_elements_are_located(text, key, line, message):
    docs = parse_documents(text)
    doc, docset = docs[0], DocumentSet(docs)
    build = {
        "lattice": docset.lattice,
        "frame": docset.frame,
        "space": docset.space,
        "algebra": lambda name: docset.algebra(name, budget=4096),
    }[doc.kind]
    with pytest.raises(DocumentError) as err:
        build(doc.name)
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "dangling-reference",
        line,
        key,
    )
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, key, line, message",
    [
        (
            "kind: lattice\nname: l\nelements: 0 1 1\nleq: 0<=1\nbottom: 0\ntop: 1\n",
            "elements",
            3,
            "lattice 'l': '1' is declared twice in 'elements' (line 3)",
        ),
        (
            "kind: frame\nname: f\nworlds: u v u\n",
            "worlds",
            3,
            "frame 'f': 'u' is declared twice in 'worlds' (line 3)",
        ),
        (
            "kind: space\nname: s\npoints: p q q p\ntopo: {p}\n",
            "points",
            3,
            "space 's': 'q' is declared twice in 'points' (line 3)",
        ),
        (
            "kind: algebra\nname: a\nsignature: bdl\ntruth_lattice: chain2\n"
            "elements: 0 x x 1\nleq: 0<=1\nbottom: 0\ntop: 1\n",
            "elements",
            5,
            "algebra 'a': 'x' is declared twice in 'elements' (line 5)",
        ),
    ],
)
def test_repeated_carrier_tokens_are_located(text, key, line, message):
    with pytest.raises(DocumentError) as err:
        parse_documents(text)
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "schema-violation",
        line,
        key,
    )
    assert str(err.value) == message


def test_an_alpha_entry_named_twice_is_located():
    text = (
        "kind: space\nname: s\npoints: p q\ntopo1: {p} {q}\ntopo2: {p} {q}\n"
        "truth_lattice: chain2\nalpha: {0,1}:{p,q} {1,0}:{p}\n---\n"
        "kind: lattice\nname: chain2\nelements: 0 1\nleq: 0<=1\nbottom: 0\ntop: 1\n"
    )
    with pytest.raises(DocumentError) as err:
        DocumentSet(parse_documents(text)).space("s")
    assert (err.value.code, err.value.line, err.value.fieldname) == (
        "schema-violation",
        7,
        "alpha",
    )
    assert str(err.value) == "space 's': subalgebra {1,0} is assigned twice in 'alpha' (line 7)"


@pytest.mark.parametrize(
    "fields, key, line",
    [
        ("truth_lattice: chain2\n", "truth_lattice", 5),
        ("alpha: {0,1}:{p}\n", "alpha", 5),
        ("alpha: {0,1}:{p,q} {}:{}\ntruth_lattice: chain2\n", "truth_lattice", 6),
    ],
)
def test_a_one_topology_space_refuses_an_assignment(fields, key, line):
    # no ordered mode reads a truth lattice or an assignment off a space
    with pytest.raises(DocumentError) as err:
        parse_documents(f"kind: space\nname: s\npoints: p q\ntopo: {{p}} {{q}}\n{fields}")
    assert (err.value.code, err.value.line) == ("schema-violation", line)
    assert str(err.value) == f"a one-topology space carries no {key} (line {line})"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "kind: frame\nname: f\nworlds: a b\norder: a<=b b<=a\n",
            "cycle between 'a' and 'b' in f (line 4)",
        ),
        (
            "kind: space\nname: s\npoints: p q\ntopo: {p} {q}\norder: p<=q q<=p\n",
            "cycle between 'p' and 'q' in s-order (line 5)",
        ),
        # two cycles, a-d and b-c: the first pair by i is (a, d), the first
        # pair by j is (b, c)
        (
            "kind: frame\nname: f\nworlds: a b c d\norder: a<=d d<=a b<=c c<=b\n",
            "cycle between 'a' and 'd' in f (line 4)",
        ),
    ],
)
def test_a_cyclic_order_is_located(text, message):
    docs = parse_documents(text)
    docset = DocumentSet(docs)
    build = docset.frame if docs[0].kind == "frame" else docset.space
    with pytest.raises(DocumentError) as err:
        build(docs[0].name)
    assert (err.value.code, err.value.fieldname) == ("not-a-poset", "order")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, build, message",
    [
        (
            "kind: space\nname: s\npoints: p\ntopo: p\n",
            lambda docset: docset.space("s"),
            "expected a {...} set in 'topo', got 'p' (line 4)",
        ),
        (
            "kind: space\nname: s\npoints: p\ntopo1: {p}\ntopo2: {p}\n"
            f"truth_lattice: chain2\nalpha: 0,1}}:{{p}}\n---\n{CHAIN2_DOC}",
            lambda docset: docset.space("s"),
            "expected a {...} set in 'alpha', got '0,1}' (line 7)",
        ),
        (
            POWER_W2.format(gens="{0,1}"),
            lambda docset: docset.algebra("p", budget=4096),
            "expected a (...) vector in 'generators', got '{0,1}' (line 7)",
        ),
    ],
)
def test_a_token_without_its_brackets_is_located(text, build, message):
    with pytest.raises(DocumentError) as err:
        build(DocumentSet(parse_documents(text)))
    assert err.value.code == "malformed-syntax"
    assert str(err.value) == message
