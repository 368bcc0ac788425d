"""Smoke tests of the runnable experiments under scripts/."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_axioms_counts_the_failures_of_both_forms(capsys):
    code = load("survey_axioms").main(["--max-size", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two-index clause (iv) fails on 12 of 12 lattices" in out
    assert "the amended single-index form fails on 0" in out


def test_survey_axioms_exits_1_when_the_amended_form_fails(capsys, monkeypatch):
    survey = load("survey_axioms")
    real = survey.check_lvl_axioms

    def amended_fails(algebra, literal_iv=False):
        report = real(algebra, literal_iv=literal_iv)
        if not literal_iv and len(algebra) == 3:
            report.clauses["iv"] = real(algebra, literal_iv=True).clauses["iv"]
        return report

    monkeypatch.setattr(survey, "check_lvl_axioms", amended_fails)
    assert survey.main(["--max-size", "4"]) == 1
    assert "the amended single-index form fails on 1" in capsys.readouterr().out
