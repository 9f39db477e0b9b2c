"""Tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import omtop  # noqa: E402
import omtop.verify  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

API = types.SimpleNamespace(
    generate_arrangement=omtop.generate_arrangement,
    parse_covector_file=omtop.parse_covector_file,
    enumerate_covectors=omtop.enumerate_covectors,
    homogenize=omtop.homogenize,
    format_covector_file=omtop.format_covector_file,
)


def _small_instances():
    """One small instance of each kind the workloads use."""
    rng = random.Random(5)
    return [
        wl._uniform(API, 5, 2, 7, rng),  # wide
        wl._uniform(API, 4, 3, 7, rng),  # deep
        wl._covector_instance(API, wl._pinch(2, rng), "pinch2", wl.REFUTED),
        wl._covector_instance(API, wl._grid((2, 1), rng), "grid2x1",
                              wl.BALL, star_skipped=True),
        wl._covector_instance(API, omtop.generate_arrangement(4, 2, seed=7),
                              "(4,2,7)-1", wl.NOT_OM, rng=rng),
    ]


def _report_bytes(inst) -> bytes:
    rep = wl.run_verify(omtop.verify, inst, inst.fresh_input())
    return json.dumps(rep.to_json(), sort_keys=True).encode()


@pytest.mark.parametrize("inst", _small_instances(), ids=lambda i: i.id)
def test_traced_report_is_byte_identical(inst):
    plain = _report_bytes(inst)
    rec = spans.Recorder()
    installed = rec.install(omtop.verify)
    try:
        traced = rec.call("verify", inst.id, _report_bytes, inst)
    finally:
        rec.uninstall()
    assert traced == plain
    assert wl.check(inst, json.loads(plain)) == []
    assert "matroid.verify_covector_axioms" in installed
    assert {s.name for s in rec.spans} >= {
        "verify", "matroid.verify_covector_axioms"}
    assert all(s.instance == inst.id for s in rec.spans)


def test_uninstall_restores_the_namespace():
    before = dict(vars(omtop.verify))
    rec = spans.Recorder()
    rec.install(omtop.verify)
    assert omtop.verify.homology is not before["homology"]
    rec.uninstall()
    assert dict(vars(omtop.verify)) == before


def test_missing_layer_function_reads_as_absent():
    """A namespace without some layer function installs what is there
    and records spans only for that."""
    mod = types.ModuleType("fake_verify")
    mod.is_uniform = omtop.is_uniform
    mod.helper = lambda: None  # not a layer function
    rec = spans.Recorder()
    assert rec.install(mod) == ["matroid.is_uniform"]
    rec.uninstall()


def test_self_time_subtracts_children():
    s = [spans.Span("a", 0.0, 10.0, -1, "i"),
         spans.Span("b", 1.0, 4.0, 0, "i"),
         spans.Span("c", 2.0, 3.0, 1, "i"),
         spans.Span("d", 5.0, 6.0, 0, "i")]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]


def test_moved_arrangement_has_the_same_covectors():
    A = omtop.generate_arrangement(5, 3, seed=2)
    B = wl._moved(A, random.Random(3))
    assert B != A
    L = omtop.enumerate_covectors(omtop.homogenize(A))
    M = omtop.enumerate_covectors(omtop.homogenize(B))
    assert M.covectors == L.covectors


def test_wrong_verdict_is_reported():
    inst = wl._uniform(API, 4, 2, 1)
    rep = wl.run_verify(omtop.verify, inst, inst.fresh_input()).to_json()
    rep["verdict"] = "refuted"
    assert wl.check(inst, rep) == ["verdict refuted, expected ball-certified"]
