"""Shared fixtures: the three canonical arrangements and their covector
sets, enumerated once per session."""

from fractions import Fraction

import pytest

from omtop.matroid import CovectorSet
from omtop.realization import Arrangement, enumerate_covectors, homogenize


def mk_arrangement(dim, rows) -> Arrangement:
    """rows: (label, normal tuple, offset) with int/Fraction entries."""
    labels = tuple(r[0] for r in rows)
    normals = tuple(tuple(Fraction(c) for c in r[1]) for r in rows)
    offsets = tuple(Fraction(r[2]) for r in rows)
    return Arrangement(dim=dim, labels=labels, normals=normals, offsets=offsets)


# the segment between x=0 and x=1 on the line
LINE_ROWS = [("h1", (1,), 0), ("h2", (1,), 1)]
# the closed triangle cut out by x=0, y=0, x+y=1
TRIANGLE_ROWS = [("x", (1, 0), 0), ("y", (0, 1), 0), ("s", (1, 1), 1)]
# two triangles joined at the origin: x=0, y=0, x+y=1, x+y=-1
FOURLINE_ROWS = [
    ("x", (1, 0), 0),
    ("y", (0, 1), 0),
    ("s", (1, 1), 1),
    ("t", (1, 1), -1),
]


@pytest.fixture(scope="session")
def line_arr() -> Arrangement:
    return mk_arrangement(1, LINE_ROWS)


@pytest.fixture(scope="session")
def tri_arr() -> Arrangement:
    return mk_arrangement(2, TRIANGLE_ROWS)


@pytest.fixture(scope="session")
def four_arr() -> Arrangement:
    return mk_arrangement(2, FOURLINE_ROWS)


@pytest.fixture(scope="session")
def line_om(line_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(line_arr))


@pytest.fixture(scope="session")
def tri_om(tri_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(tri_arr))


@pytest.fixture(scope="session")
def four_om(four_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(four_arr))


@pytest.fixture(scope="session")
def declining_sets(four_om) -> dict:
    """One set for each check of the cocircuit decision, keyed by the
    name `_cocircuit_decline` returns, with that check the first to
    decline.  Each satisfies L0, L1 and L2 and fails L3."""
    from omtop.matroid import atoms
    from omtop.signvec import GroundSet, SignVector

    def closed(labels, strings):
        return CovectorSet(
            GroundSet(labels), [SignVector.from_string(s) for s in strings]
        )

    v = min(atoms(four_om), key=str)
    return {
        # the atoms are +-(+-0) and +-(+++): one support inside the other
        "incomparable": closed(
            ["a", "b", "c"],
            ["000", "+-0", "-+0", "+++", "---", "+-+", "-+-", "+--", "-++"],
        ),
        # the four-line vertex pair +-(+-000) dropped: its neighbours on
        # the line at infinity g are a modular pair whose elimination at
        # s lands on the dropped vertex
        "modular": CovectorSet(four_om.ground, four_om.covectors - {v, -v}),
        # the atoms are +-(+0) alone, and ++ is not their composition
        "composition": closed(
            ["a", "b"], ["00", "+0", "-0", "++", "--", "+-", "-+"]
        ),
    }
