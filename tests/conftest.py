import pytest

from dualbench import duality
from dualbench.lattice import build_lattice, chain_lattice, diamond_lattice
from dualbench.kripke import build_frame


@pytest.fixture(scope="session")
def chain2():
    return chain_lattice(2)


@pytest.fixture(scope="session")
def chain3():
    return chain_lattice(3)


@pytest.fixture(scope="session")
def chain4():
    return chain_lattice(4)


@pytest.fixture(scope="session")
def b2():
    return diamond_lattice()


@pytest.fixture(scope="session")
def frame2():
    return build_frame(("w0", "w1"), [("w0", "w1")], name="w2")


@pytest.fixture(scope="session")
def antichain2():
    return build_frame(("p", "q"), [], name="anti2")


@pytest.fixture(scope="session")
def small_lattices(chain2, chain3, chain4, b2):
    six = build_lattice(
        ("0", "x", "y", "z", "w", "1"),
        [("0", "x"), ("0", "y"), ("x", "z"), ("y", "z"), ("y", "w"), ("z", "1"), ("w", "1")],
        "0",
        "1",
        name="six",
    )
    return (chain2, chain3, chain4, b2, six)


@pytest.fixture
def scope_caches(monkeypatch):
    """Every verification-scope cache that an ordered dual build runs under
    (None for a build outside any scope), recorded during the test."""
    seen = []
    build = duality._ordered_dual

    def spy(*args):
        seen.append(duality._SCOPE_CACHE.get())
        return build(*args)

    monkeypatch.setattr(duality, "_ordered_dual", spy)
    return seen


@pytest.fixture
def dual_map_caches(monkeypatch):
    """Every verification-scope cache that a dualized hom is built under
    (None for a build outside any scope), recorded during the test."""
    seen = []
    build = duality._dualize_hom

    def spy(*args):
        seen.append(duality._SCOPE_CACHE.get())
        return build(*args)

    monkeypatch.setattr(duality, "_dualize_hom", spy)
    return seen
