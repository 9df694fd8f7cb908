import pytest

from groupgen import structure
from groupgen.perm import GroupError


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _delta(G, factor, series=None):
    """Number of non-Frattini chief factors of G that are G-equivalent to
    the given abelian factor, one ``gequivalent_abelian`` test per factor
    of ``series`` (G's chief series when None): the count that
    crowns.module_invariants makes with its own shortcuts."""
    if not factor.is_abelian:
        raise GroupError("delta is defined here for abelian factors")
    if series is None:
        series = structure.chief_series(G)
    return sum(1 for f in series if f.is_abelian and not f.is_frattini
               and structure.gequivalent_abelian(f, factor))


@pytest.fixture
def delta():
    """The plain delta count, as an oracle for the module invariants."""
    return _delta
