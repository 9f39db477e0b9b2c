"""End-to-end tests of the command-line interface.

Each test drives `omtop.cli.main` with an argv list and asserts on the
exit code and captured output, exactly as a shell user would see them.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import omtop
from omtop.cli import main
from omtop.generate import generate_arrangement
from omtop.matroid import format_covector_file, parse_covector_file
from omtop.realization import format_arrangement

from conftest import mk_arrangement

# a sign string's negation
NEG = str.maketrans("+-", "-+")


@pytest.fixture(scope="module")
def files(tmp_path_factory, line_arr, tri_arr, four_arr, line_om, tri_om):
    """Input files shared by the CLI tests, written once per module."""
    d = tmp_path_factory.mktemp("cli")

    def put(name, text):
        p = d / name
        p.write_text(text)
        return str(p)

    cov = format_covector_file(tri_om)
    cov_nog = "\n".join(
        line for line in cov.splitlines() if line != "g g"
    ) + "\n"
    return SimpleNamespace(
        dir=d,
        line=put("line.arr", format_arrangement(line_arr)),
        tri=put("tri.arr", format_arrangement(tri_arr)),
        four=put("four.arr", format_arrangement(four_arr)),
        line_cov=put("line.cov", format_covector_file(line_om)),
        tri_cov=put("tri.cov", cov),
        tri_cov_nog=put("tri_nog.cov", cov_nog),
    )


class TestVerify:
    def test_triangle_certified_exit0(self, files, capsys):
        assert main(["verify", files.tri]) == 0
        out = capsys.readouterr().out
        assert "verdict: ball-certified" in out
        assert "collapse: collapsed" in out
        assert "star checks:" in out

    def test_fourline_refuted_exit1(self, files, capsys):
        assert main(["verify", files.four]) == 1
        out = capsys.readouterr().out
        assert "verdict: refuted" in out
        # the report names the vertex whose link is not a sphere or ball
        assert "00-++" in out

    def test_readme_four_line_example(self, tmp_path, capsys):
        """The README's `four.arr` example prints what the README says."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (text,) = re.findall(r"printf '([^']*)' > four\.arr", readme)
        p = tmp_path / "four.arr"
        p.write_text(text.replace("\\n", "\n"))
        assert main(["verify", str(p)]) == 1
        out = capsys.readouterr().out
        for line in (
            "links: 10 ball-like, 1 other, 2 sphere-like",
            "link classification refutes the manifold property at 00-++",
        ):
            assert line in out
            assert line in readme

    def test_json_deterministic_without_timestamp(self, files, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", files.tri, "--json", str(p1), "--no-timestamp"]) == 0
        assert main(["verify", files.tri, "--json", str(p2), "--no-timestamp"]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["verdict"] == "ball-certified"
        assert "timestamp" not in payload

    def test_json_timestamp_present_by_default(self, files, tmp_path, capsys):
        p = tmp_path / "r.json"
        assert main(["verify", files.tri, "--json", str(p)]) == 0
        capsys.readouterr()
        payload = json.loads(p.read_text())
        assert "T" in payload["timestamp"]

    def test_budget_starved_needs_allow_evidence(self, files, capsys):
        assert main(["verify", files.tri, "--budget", "1"]) == 1
        out = capsys.readouterr().out
        assert "verdict: evidence-only" in out
        assert main(["verify", files.tri, "--budget", "1", "--allow-evidence"]) == 0

    def test_covector_input_requires_g(self, files, capsys):
        assert main(["verify", files.tri_cov_nog]) == 2
        err = capsys.readouterr().err
        assert "does not designate g" in err

    def test_covector_input_with_g_flag(self, files, capsys):
        assert main(["verify", files.tri_cov_nog, "--g", "g"]) == 0
        out = capsys.readouterr().out
        assert "covectors" in out.splitlines()[0]
        assert "verdict: ball-certified" in out

    @pytest.mark.parametrize(
        "text",
        [
            "dim 2\nx 1 0 0\ny 0 1 0\n",
            "dim 2\nx 1 0 0\ny 0 1 0\nz 1 1 0\n",
            "dim 1\nx 1 0\n",
            "dim 3\nx 1 0 0 0\ny 0 1 0 0\nz 0 0 1 0\n",
        ],
        ids=["two-lines", "three-concurrent", "point-on-line", "three-planes"],
    )
    def test_single_point_supported_by_g(self, tmp_path, capsys, text):
        """L++ is one vertex whose support is g alone: there is nothing to
        restrict to, and the point is certified as it stands."""
        p = tmp_path / "point.arr"
        p.write_text(text)
        report = tmp_path / "r.json"
        assert main(["verify", str(p), "--json", str(report),
                     "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ball-certified" in out
        assert "links: 1 sphere-like" in out
        payload = json.loads(report.read_text())
        stages = payload["stages"]
        assert stages["bounded"]["f_vector"] == [1]
        assert stages["restriction"]["applied"] is False
        assert "|E| = 1" in stages["restriction"]["reason"]
        assert stages["collapse"]["certificate"]["steps"] == []
        assert stages["collapse"]["replay_ok"] is True


class TestAxioms:
    def test_realized_set_passes(self, files, capsys):
        assert main(["axioms", files.tri_cov]) == 0
        out = capsys.readouterr().out
        for key in ("L0: ok", "L1: ok", "L2: ok", "L3: ok"):
            assert key in out
        assert "axioms: ok (" in out

    def test_arrangement_input_accepted(self, files, capsys):
        assert main(["axioms", files.four]) == 0
        assert "axioms: ok (" in capsys.readouterr().out

    def test_mutated_set_fails_with_witness(self, files, tmp_path, capsys):
        # drop one covector with g = - ; its negation survives, so the
        # negation axiom fails and the witness is printed
        lines = Path(files.tri_cov).read_text().splitlines()
        victim = next(
            ln for ln in lines if set(ln) <= set("+-0") and ln.endswith("-")
        )
        mutated = tmp_path / "broken.cov"
        mutated.write_text(
            "\n".join(ln for ln in lines if ln != victim) + "\n"
        )
        assert main(["axioms", str(mutated)]) == 1
        out = capsys.readouterr().out
        assert f"L1: FAIL  witness: {victim.translate(NEG)} (1 of 1)\n" in out
        assert "axioms: FAIL (" in out

    @pytest.mark.parametrize(
        "vectors,lines",
        [
            # the axes without the open quadrants
            (["00", "0+", "0-", "+0", "-0"],
             ["L2: FAIL  witness: +0 o 0+ (1 of 8)", "L3: ok"]),
            # the open quadrants without the axes
            (["00", "++", "--", "+-", "-+"],
             ["L2: ok", "L3: FAIL  witness: ++, +-, e=b (1 of 4)"]),
        ],
        ids=["composition", "elimination"],
    )
    def test_witness_in_sign_vector_notation(
        self, vectors, lines, tmp_path, capsys
    ):
        p = tmp_path / "w.cov"
        p.write_text("a b\n" + "\n".join(vectors) + "\n")
        assert main(["axioms", str(p)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "L0: ok", "L1: ok", *lines, "axioms: FAIL (5 covectors)"
        ]

    def test_json_report(self, files, tmp_path, capsys):
        p = tmp_path / "ax.json"
        assert main(["axioms", files.tri, "--json", str(p)]) == 0
        capsys.readouterr()
        payload = json.loads(p.read_text())
        assert payload["ok"] is True
        assert payload["l3_ok"] is True


class TestRealize:
    def test_roundtrips_through_parser(self, files, tmp_path, capsys, tri_om):
        p = tmp_path / "tri.cov"
        assert main(["realize", files.tri, "-o", str(p)]) == 0
        capsys.readouterr()
        L = parse_covector_file(p.read_text())
        assert L.ground.g == "g"
        assert L.covectors == tri_om.covectors

    def test_stdout_and_json(self, files, tmp_path, capsys, line_om):
        p = tmp_path / "line.json"
        assert main(["realize", files.line, "--json", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "h1 h2 g"
        assert "g g" in out.splitlines()
        payload = json.loads(p.read_text())
        assert payload["labels"] == ["h1", "h2", "g"]
        assert payload["g"] == "g"
        assert set(payload["covectors"]) == {str(x) for x in line_om}


class TestBounded:
    def test_arrangement_input(self, files, capsys):
        assert main(["bounded", files.tri]) == 0
        out = capsys.readouterr().out
        assert "f-vector: (3, 3, 1)" in out
        assert "dim: 2   euler: 1   pure: yes" in out

    def test_covector_input_needs_g(self, files, capsys):
        assert main(["bounded", files.tri_cov_nog]) == 2
        assert "does not designate g" in capsys.readouterr().err
        assert main(["bounded", files.tri_cov_nog, "--g", "g"]) == 0
        assert "f-vector: (3, 3, 1)" in capsys.readouterr().out

    def test_json(self, files, tmp_path, capsys):
        p = tmp_path / "bc.json"
        assert main(["bounded", files.four, "--json", str(p)]) == 0
        capsys.readouterr()
        payload = json.loads(p.read_text())
        assert payload["f_vector"] == [5, 6, 2]
        assert payload["pure"] is True


    @pytest.mark.parametrize(
        "text",
        [
            # a covector of height 0 below another, no zero vector
            "a g\ng g\n0+\n++\n",
            # every bounded covector of height 0
            "a g\ng g\n++\n",
        ],
    )
    def test_non_oriented_matroid_refused(self, tmp_path, capsys, text):
        p = tmp_path / "half.cov"
        p.write_text(text)
        assert main(["bounded", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: covector axioms L0, L1 fail; not an oriented matroid\n"
        )

    def test_covector_file_output(self, files, capsys):
        assert main(["bounded", files.line_cov]) == 0
        assert capsys.readouterr().out == (
            "f-vector: (2, 1)\n"
            "dim: 1   euler: 1   pure: yes\n"
            "support: h1 h2 g\n"
            "  +-+  (dim 1)\n"
            "  +0+  (dim 0)\n"
            "  0-+  (dim 0)\n"
        )


class TestSvg:
    def test_writes_file(self, files, tmp_path, capsys):
        p = tmp_path / "four.svg"
        assert main(["svg", files.four, "-o", str(p)]) == 0
        capsys.readouterr()
        text = p.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polygon") == 2

    def test_bad_bounds_exit2(self, files, capsys):
        assert main(["svg", files.four, "--bounds", "1,2,3"]) == 2
        assert "--bounds" in capsys.readouterr().err

    def test_dim1_input_exit2(self, files, capsys):
        assert main(["svg", files.line]) == 2
        assert "dim" in capsys.readouterr().err

    def test_covector_input_exit2(self, files, capsys):
        assert main(["svg", files.tri_cov]) == 2
        assert "dim" in capsys.readouterr().err


class TestGenerate:
    def test_generate_then_verify(self, tmp_path, capsys):
        p = tmp_path / "gen.arr"
        assert main(["generate", "4", "2", "--seed", "1", "-o", str(p)]) == 0
        assert p.read_text() == format_arrangement(
            generate_arrangement(4, 2, seed=1)
        )
        assert main(["verify", str(p)]) == 0
        assert "verdict: ball-certified" in capsys.readouterr().out

    def test_too_few_hyperplanes_exit2(self, capsys):
        assert main(["generate", "2", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    def test_missing_file_exit2(self, capsys):
        assert main(["axioms", "/no/such/file"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_g_label_exit2(self, files, capsys):
        assert main(["bounded", files.tri_cov, "--g", "zz"]) == 2
        assert "not an element label" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["axioms", "bounded", "verify"])
    def test_g_on_an_arrangement_exit2(self, files, capsys, command):
        # an arrangement's g is the element homogenizing adds
        assert main([command, files.tri, "--g", "x"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: --g applies to covector files")

    def test_decimal_coefficient_exit2(self, tmp_path, capsys):
        p = tmp_path / "dec.arr"
        p.write_text("dim 2\na 0.5 1 0\n")
        assert main(["axioms", str(p)]) == 2
        assert "decimal" in capsys.readouterr().err

    def test_enumeration_cap_exit3(self, tmp_path, capsys):
        # 12 concurrent lines: 13 forms, past the old 12-form cap, and
        # few covectors, so they realize
        rows = [(f"h{i}", (1, i), i) for i in range(1, 13)]
        p = tmp_path / "concurrent.arr"
        p.write_text(format_arrangement(mk_arrangement(2, rows)))
        assert main(["realize", str(p)]) == 0
        capsys.readouterr()
        # 80 lines x + i y = i^2, tangent to a parabola and so in general
        # position: 25,923 covectors, past the 20,000-covector cap
        rows = [(f"h{i}", (1, i), i * i) for i in range(1, 81)]
        p = tmp_path / "big.arr"
        p.write_text(format_arrangement(mk_arrangement(2, rows)))
        assert main(["realize", str(p)]) == 3
        assert "cap" in capsys.readouterr().err
        assert main(["verify", str(p)]) == 3
        # the picture's faces come from the same covector enumeration
        assert main(["svg", str(p)]) == 3


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(omtop.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run(
            [sys.executable, "-m", "omtop", "generate", "4", "2", "--seed", "1"],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == format_arrangement(
            generate_arrangement(4, 2, seed=1)
        )


class TestParser:
    def test_help_lists_all_subcommands(self):
        from omtop.cli import build_parser

        text = build_parser().format_help()
        for name in ("axioms", "realize", "bounded", "verify", "svg", "generate"):
            assert name in text
