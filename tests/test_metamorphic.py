"""Metamorphic tests: a relabeled and reoriented covector set verifies
as the original does, and a uniform OM verifies with every element as g.

Every kernel reads sign-string order and label ranks (the sort key, the
sign columns, `bounded._separation_key`), and the oracles run in that
same order, so a bug that depends on label order can pass every oracle
test.  Permuting the coordinates of L moves g and every label to a new
place, and reversing the signs of a set of elements other than g
reorients their hyperplanes (BLSWZ, Oriented Matroids, 3.4); neither
changes the affine oriented matroid up to isomorphism, nor, with it,
any count `verify` reports.  Each relabeling maps a cell X of L++ to
its image, and every cell a reason or a note names must be the image of
the cell the original report names.

In a uniform oriented matroid of rank r on N elements every element can
be g, and each of the N affine OMs has a bounded complex that is a PL
ball of dimension r - 1 whose top cells, the bounded topes, number
beta = C(N - 2, r - 1), the beta invariant of the uniform matroid: the
count does not depend on g (Zaslavsky 1975).
"""

import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import omtop
from omtop.matroid import CovectorSet
from omtop.realization import enumerate_covectors, homogenize
from omtop.signvec import GroundSet, SignVector
from omtop.verify import verify_covectors

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _instances() -> list:
    """(id, (workload, input)) of (11,2,0), (6,4,0) and (5,4,0), and of
    the pinches and grids of the refute workload, all at seed 1; then of
    (7,5,1), whose inherited shelling fails at one cell, so that a
    note's cell is mapped too."""
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(_PERFBENCH))
    out = []
    for name in ("wide", "deep", "refute"):
        for inst in workloads.build(name, omtop, 1):
            if inst.arrangement is not None:
                out.append((inst.id, (name, inst.arrangement)))
            elif inst.dropped is None:
                out.append((inst.id, (name, inst.covectors)))
    out.append(("(7,5,1)", ("d5", omtop.generate_arrangement(7, 5, 1))))
    return out


_INSTANCES = _instances()
_SEEDS = (1, 2, 3)


def _covectors(source) -> CovectorSet:
    if isinstance(source, CovectorSet):
        return CovectorSet(source.ground, source.covectors)
    return enumerate_covectors(homogenize(source))


def relabeling(L: CovectorSet, seed: int):
    """(L', image): L with its coordinates permuted and the signs of a
    seeded set of elements other than g reversed, and the map taking
    each sign vector of L to its image in L'.  New coordinate k holds
    old coordinate perm[k]."""
    rng = random.Random(seed)
    n = len(L.ground)
    perm = rng.sample(range(n), n)
    gi = L.ground.g_index
    flip = {e for e in range(n) if e != gi and rng.random() < 0.5}
    assert perm != list(range(n)) and flip

    def image(x: SignVector) -> SignVector:
        return SignVector.from_signs(
            -x.sign(e) if e in flip else x.sign(e) for e in perm
        )

    ground = GroundSet([L.ground.labels[e] for e in perm], g=L.ground.g)
    return CovectorSet(ground, map(image, L)), image


def invariants(report: dict) -> dict:
    """What a relabeling must keep: the verdict, the f-vectors, the
    collapse status and replay, the links by kind and certainty, and the
    number of star-check failures and notes."""
    stages = report["stages"]
    out = {"verdict": report["verdict"]}
    if "bounded" in stages:
        out["bounded_f"] = stages["bounded"]["f_vector"]
        out["order_complex_f"] = stages["order_complex"]["f_vector"]
        collapse = stages["collapse"]
        out["collapse"] = (collapse["status"], collapse.get("replay_ok"))
        out["links"] = Counter(
            (v["kind"], v["certainty"]) for v in stages["links"]["vertices"]
        )
        star = stages["star_checks"]
        out["star"] = (
            star["skipped"],
            len(star.get("failures", ())),
            len(star.get("notes", ())),
        )
    return out


def named_cells(report: dict, n: int) -> tuple[list[str], list[str]]:
    """(texts, cells): each reason and star-check note with the sign
    vectors it names cut out, and those sign vectors, sorted."""
    cell = re.compile(rf"(?<![+\-0])[+\-0]{{{n}}}(?![+\-0])")
    lines = list(report["reasons"])
    lines += report["stages"].get("star_checks", {}).get("notes", [])
    texts = sorted(cell.sub("X", line) for line in lines)
    cells = sorted(c for line in lines for c in cell.findall(line))
    return texts, cells


@pytest.mark.parametrize(
    "iid,source", _INSTANCES, ids=[i for i, _ in _INSTANCES]
)
def test_relabeled_and_reoriented(iid, source):
    name, data = source
    L = _covectors(data)
    want = verify_covectors(L).to_json()
    n = len(L.ground)
    texts, cells = named_cells(want, n)
    if iid.startswith("pinch"):
        assert want["verdict"] == "refuted" and cells
    if name == "d5":
        assert want["stages"]["star_checks"]["notes"] and cells
    for seed in _SEEDS:
        L2, image = relabeling(L, seed)
        got = verify_covectors(L2).to_json()
        assert invariants(got) == invariants(want), seed
        got_texts, got_cells = named_cells(got, n)
        assert got_texts == texts, seed
        assert got_cells == sorted(
            str(image(SignVector.from_string(c))) for c in cells
        ), seed


def _choices_of_g() -> list:
    """(id, (d, L, g)) for every element g of the uniform (5,4,0),
    (6,4,0), (8,3,0) and (11,2,0): 34 affine OMs."""
    out = []
    for n, d in ((5, 4), (6, 4), (8, 3), (11, 2)):
        L = _covectors(omtop.generate_arrangement(n, d, 0))
        for g in L.ground.labels:
            out.append((f"({n},{d},0)-{g}", (d, L, g)))
    return out


_CHOICES_OF_G = _choices_of_g()


@pytest.mark.parametrize(
    "iid,choice", _CHOICES_OF_G, ids=[i for i, _ in _CHOICES_OF_G]
)
def test_every_element_as_g(iid, choice):
    d, L, g = choice
    got = verify_covectors(
        CovectorSet(GroundSet(L.ground.labels, g=g), L.covectors)
    ).to_json()
    stages = got["stages"]
    assert got["verdict"] == "ball-certified"
    assert stages["restriction"] == {"applied": False}
    assert stages["bounded"]["dim"] == d
    N, r = len(L.ground), d + 1
    assert stages["bounded"]["f_vector"][-1] == math.comb(N - 2, r - 1)
