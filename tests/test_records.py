"""The package's record classes as their callers use them: equality by
value over the compared fields, hashing by value for the records that are
never changed after construction, keyword-only names, the carrier checks of
the spaces, and ``replace``."""

import pytest

from dualbench.algebra import (
    Algebra,
    Homomorphism,
    PowerPresentation,
    identity_hom,
    make_bdl,
    make_lvl,
)
from dualbench.cli import RunReport
from dualbench.corpus import CorpusReport, SuiteResult
from dualbench.documents import WorkspaceDocument
from dualbench.duality import HSPA, PBS, PSPA, DualizedMap, Mode
from dualbench.errors import SpaceError
from dualbench.lattice import FiniteLattice, Poset, build_poset, chain_lattice, diamond_lattice
from dualbench.reporting import PASS, AxiomReport, CheckResult, DualityReport, failed
from dualbench.topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    Topology,
    discrete_topology,
    indiscrete_topology,
)


def _frozen_samples():
    """(record, an equal record built again, a record that differs in one
    compared field, (that field, its value there)) for every record that
    hashes by value."""
    chain3, other3 = chain_lattice(3), chain_lattice(3)
    frame = build_poset(("w0", "w1"), [("w0", "w1")], name="w2")
    lvl, lvl2 = make_lvl(chain3), make_lvl(other3)
    pbs, _ = PBS.dual(make_lvl(chain_lattice(2)))
    pbs2, _ = PBS.dual(make_lvl(chain_lattice(2)))
    ordered, _ = PSPA.dual(make_bdl(diamond_lattice(), chain_lattice(2)))
    ordered2, _ = PSPA.dual(make_bdl(diamond_lattice(), chain_lattice(2)))
    return [
        (failed("w"), CheckResult(False, "w"), failed("v"), ("witness", "v")),
        (frame, build_poset(("w0", "w1"), [("w0", "w1")], name="w2"), None, ("name", "x")),
        (chain3, other3, chain_lattice(3, name="c"), ("name", "c")),
        (
            PowerPresentation(frame, ((0, 0), (0, 1))),
            PowerPresentation(frame, ((0, 0), (0, 1))),
            PowerPresentation(frame, ((0, 0),)),
            ("vectors", ((0, 0),)),
        ),
        (lvl, lvl2, None, ("t_ops", None)),
        (identity_hom(lvl), identity_hom(lvl2), None, ("mapping", (0, 0, 0))),
        (discrete_topology(3), discrete_topology(3), indiscrete_topology(3), ("minopen", (7, 7, 7))),
        (pbs.space, pbs2.space, None, ("name", "x")),
        (pbs.alpha, pbs2.alpha, None, ("images", ())),
        (pbs, pbs2, None, ("alpha", None)),
        (ordered, ordered2, None, ("name", "x")),
        (
            WorkspaceDocument("lattice", "a", (("k", "v"),), (("k", 1),)),
            WorkspaceDocument("lattice", "a", (("k", "v"),), (("k", 9),)),
            WorkspaceDocument("lattice", "b", (("k", "v"),), (("k", 1),)),
            ("name", "b"),
        ),
        (PSPA, PSPA, HSPA, ("name", "x")),
    ]


def _mutable_samples():
    """(record, an equal record, a record that differs in one compared
    field) for every record that is filled in after construction."""
    report = DualityReport()
    report.record("law", failed("w"))
    axioms = AxiomReport()
    axioms.clauses["i"] = PASS
    run = RunReport("dualize")
    run.record("law", PASS)
    suite = SuiteResult("s")
    suite.fail("w")
    return [
        (DualityReport(), DualityReport(), report),
        (AxiomReport(), AxiomReport(), axioms),
        (RunReport("dualize"), RunReport("dualize"), run),
        (SuiteResult("s"), SuiteResult("s"), suite),
        (CorpusReport(7, 4, 0), CorpusReport(7, 4, 0), CorpusReport(7, 4, 1)),
        (
            DualizedMap("pspa", (0,), None, None),
            DualizedMap("pspa", (0,), None, None),
            DualizedMap("pspa", (0,), None, None, checks={"continuous": PASS}),
        ),
    ]


def test_every_record_class_is_sampled():
    classes = {type(r) for r, *_ in _frozen_samples() + _mutable_samples()}
    assert classes == {
        CheckResult, Poset, FiniteLattice, PowerPresentation, Algebra, Homomorphism,
        Topology, BitopSpace, OrderedSpace, AlphaAssignment, PbsObject,
        WorkspaceDocument, Mode, DualityReport, AxiomReport, RunReport, SuiteResult,
        CorpusReport, DualizedMap,
    }
    assert len(classes) == 19


def test_frozen_records_compare_and_hash_by_value():
    for record, twin, other, _ in _frozen_samples():
        assert record == twin and not record != twin, type(record).__name__
        assert hash(record) == hash(twin), type(record).__name__
        assert {record: 1}[twin] == 1
        if other is not None:
            assert record != other and not record == other, type(record).__name__
        assert record != object() and (record == object()) is False


def test_mutable_records_compare_by_value_and_do_not_hash():
    for record, twin, other in _mutable_samples():
        assert record == twin and not record != twin, type(record).__name__
        assert record != other and not record == other, type(record).__name__
        with pytest.raises(TypeError):
            hash(record)


def test_equal_builds_of_a_lattice_hash_alike():
    assert hash(chain_lattice(3)) == hash(chain_lattice(3))
    assert chain_lattice(3) != chain_lattice(3, name="other")


def test_equality_and_hashing_ignore_what_is_derived():
    lat = chain_lattice(3)
    for record in (build_poset(("a", "b"), [("a", "b")]), lat):
        twin = record.replace()
        record.derived[("anything", lat)] = object()
        assert twin.derived == {}
        assert record == twin and hash(record) == hash(twin)
        assert repr(record) == repr(twin)


def test_records_of_different_classes_are_not_equal():
    lat = chain_lattice(2)
    poset = Poset(lat.elements, lat.up_masks, name=lat.name)
    assert poset != lat and lat != poset
    assert (poset.__eq__(lat), lat.__eq__(poset)) == (NotImplemented, NotImplemented)


def test_uncompared_fields_stay_out_of_equality():
    assert SuiteResult("s", seconds=1.0) == SuiteResult("s", seconds=2.0)
    assert SuiteResult("s", failure_count=1) != SuiteResult("s")
    assert CorpusReport(7, 4, 0, enumerate_seconds=1.0) == CorpusReport(7, 4, 0)
    lines_a = WorkspaceDocument("lattice", "a", (), (("k", 1),))
    lines_b = WorkspaceDocument("lattice", "a", (), (("k", 2),))
    assert lines_a == lines_b and hash(lines_a) == hash(lines_b)
    assert lines_a.line_of("k") == 1 and lines_b.line_of("k") == 2


def test_name_is_keyword_only():
    lat = chain_lattice(2)
    topo = discrete_topology(2)
    with pytest.raises(TypeError):
        Poset(lat.elements, lat.up_masks, "p")
    with pytest.raises(TypeError):
        FiniteLattice(lat.elements, lat.up_masks, lat.meet, lat.join, 0, 1, "l")
    with pytest.raises(TypeError):
        BitopSpace(("a", "b"), topo, topo, "s")
    with pytest.raises(TypeError):
        OrderedSpace(lat.elements, topo, lat, "s")
    assert Poset(lat.elements, lat.up_masks).name == "poset"
    assert FiniteLattice(lat.elements, lat.up_masks, lat.meet, lat.join, 0, 1).name == "poset"
    assert BitopSpace(("a", "b"), topo, topo).name == "bitop-space"
    assert OrderedSpace(lat.elements, topo, lat).name == "ordered-space"


def test_spaces_check_their_carriers():
    lat = chain_lattice(2)
    with pytest.raises(SpaceError) as err:
        BitopSpace(("a", "b", "c"), discrete_topology(2), discrete_topology(2), name="s")
    assert err.value.code == "carrier-mismatch" and "'s'" in str(err.value)
    with pytest.raises(SpaceError) as err:
        BitopSpace(("a", "b"), discrete_topology(2), discrete_topology(3))
    assert err.value.code == "carrier-mismatch"
    with pytest.raises(SpaceError) as err:
        OrderedSpace(lat.elements, discrete_topology(3), lat, name="o")
    assert err.value.code == "carrier-mismatch" and "'o'" in str(err.value)
    with pytest.raises(SpaceError) as err:
        OrderedSpace(("x", "y"), discrete_topology(2), lat)
    assert err.value.code == "carrier-mismatch"


def test_replace_changes_one_field():
    for record, _, _, (field, value) in _frozen_samples():
        if record is PSPA:
            continue  # a Mode of another name is checked below
        changed = record.replace(**{field: value})
        assert type(changed) is type(record)
        assert getattr(changed, field) == value
        assert changed.replace(**{field: getattr(record, field)}) == record
    suite = SuiteResult("s", seconds=1.5)
    assert suite.replace(passed=False).seconds == 1.5
    assert suite.replace(passed=False) != suite
    with pytest.raises(TypeError):
        chain_lattice(2).replace(colour="red")


def test_replace_rechecks_the_carrier():
    lat = chain_lattice(2)
    space = OrderedSpace(lat.elements, discrete_topology(2), lat)
    with pytest.raises(SpaceError):
        space.replace(topo=discrete_topology(3))


def test_mode_defaults_and_hspa_from_pspa():
    assert PSPA.space_truth is None and PSPA.axioms is None
    assert PSPA.algebra_laws == ("homomorphism",) and PSPA.dual_checks == ()
    assert PSPA.space_details(None) == {} and PSPA.rebuilt_details(None, None) == {}
    changed = {
        "name", "dual", "reconstruct", "verify_object", "verify_morphism", "from_lattice",
        "algebra_miss", "algebra_laws", "space_laws", "dual_checks", "rebuilt_details",
    }
    for field in (
        "space_type", "points", "space_truth", "axioms", "map_algebra", "describe",
        "space_details",
    ):
        assert field not in changed
        assert getattr(HSPA, field) is getattr(PSPA, field), field
    for field in changed:
        assert getattr(HSPA, field) != getattr(PSPA, field), field
    assert HSPA.space_laws[: len(PSPA.space_laws)] == PSPA.space_laws
    assert PSPA.replace(name="x").name == "x" and PSPA.replace(name="pspa") == PSPA
    with pytest.raises(TypeError):
        Mode("x")  # every field is keyword-only
