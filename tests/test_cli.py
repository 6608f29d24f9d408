import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distcsp
from distcsp import solver
from distcsp.cli import run_cli
from distcsp.endomorphism import PeriodicMapSpec, format_map_spec
from distcsp.errors import CapExceededError, InternalInvariantError
from distcsp.formats import instance_to_dict, template_to_dict, to_json
from distcsp.model import Constraint, Instance, RelationDef, Template
from helpers import (
    DIST12,
    DIST13,
    DIST136_3,
    EQUALITY,
    binary_relation,
    complete_edges,
    graph_instance,
)


@pytest.fixture
def files(tmp_path):
    docs = {
        "t13.json": template_to_dict(DIST13),
        "t12.json": template_to_dict(DIST12),
        "t136.json": template_to_dict(DIST136_3),
        "tri12.json": instance_to_dict(graph_instance("dist12", 3, complete_edges(3))),
        "k4_12.json": instance_to_dict(graph_instance("dist12", 4, complete_edges(4))),
        "k4_tail12.json": instance_to_dict(graph_instance(
            "dist12", 18, complete_edges(4) + [(v, v + 1) for v in range(3, 17)]
        )),
        "k3_13.json": instance_to_dict(graph_instance("dist13", 3, complete_edges(3))),
        "pair13.json": instance_to_dict(graph_instance("dist13", 2, ((0, 1),))),
        "good.json": {"values": [0, 3]},
        "bad.json": {"values": [0, 2]},
    }
    out = {}
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(to_json(doc))
        out[name] = str(path)
    for name, text in {
        "endo1.txt": "p=3; values=0,1,0; drift=+1\n",
        "const.txt": "p=1; values=0; drift=0\n",
    }.items():
        path = tmp_path / name
        path.write_text(text)
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestAnalyze:
    def test_distance_profile(self, files, capsys):
        code, report, _ = run(capsys, ["analyze", files["t13.json"]])
        assert code == 0
        assert report == {
            "analysis": {
                "distances": [1, 3],
                "max_distance": 3,
                "connected": True,
                "path_lengths": {"1": 1, "2": 2},
                "stretch_bound": 6,
            }
        }

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, ["analyze", str(files["dir"] / "nope.json")])
        assert code == 3
        assert "cannot read" in err

    def test_bad_json(self, files, capsys):
        path = files["dir"] / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 3
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b"[" * 100_000,
            b'{"name": "t", "relations": [{"name": "R", "arity": '
            + b"9" * 5_000
            + b', "tuples": [[1]]}]}',
        ],
        ids=["not-utf8", "deep-nesting", "huge-arity"],
    )
    def test_malformed_document_is_an_input_error(self, files, capsys, content):
        # none of these may surface as an internal error (exit 4)
        path = files["dir"] / "malformed.json"
        path.write_bytes(content)
        code, report, err = run(capsys, ["analyze", str(path)])
        assert code == 3
        assert report is None
        assert err.startswith("error:") and err.count("\n") == 1


class TestSolve:
    def test_sat(self, files, capsys):
        code, report, err = run(capsys, ["solve", files["t12.json"], files["tri12.json"]])
        assert code == 0
        assert report == {"verdict": "sat", "witness": [0, -2, -1]}
        assert err == ""

    def test_unsat(self, files, capsys):
        code, report, _ = run(capsys, ["solve", files["t13.json"], files["k3_13.json"]])
        assert code == 1
        assert report == {"verdict": "unsat"}

    def test_consistency_unknown(self, files, capsys):
        # the search over K4's propagated rows proves it unsat; with a path
        # of 14 more vertices hung on it, that search's estimate, 4^17, is
        # over the cap
        argv = ["solve", files["t12.json"], files["k4_12.json"], "--mode", "consistency"]
        assert run(capsys, argv)[:2] == (1, {"verdict": "unsat"})
        argv[2] = files["k4_tail12.json"]
        code, report, _ = run(capsys, argv)
        assert code == 2
        assert report == {
            "verdict": "unknown",
            "reason": "search space estimate 17179869184 exceeds the cap 100000000",
        }

    def test_auto_settles_the_unknown(self, files, capsys):
        code, report, _ = run(capsys, ["solve", files["t12.json"], files["k4_12.json"]])
        assert code == 1
        assert report == {"verdict": "unsat"}

    def test_stats(self, files, capsys):
        # auto mode searches the triangle over dist12's finite core, which
        # sweeps nothing; consistency mode sweeps the triangle's top vertex,
        # which changes no cell
        argv = ["solve", files["t12.json"], files["tri12.json"], "--stats"]
        code, report, _ = run(capsys, argv)
        assert code == 0
        stats = report["stats"]
        assert stats["components"] == 1
        assert stats["core_searches"] == 1
        assert stats["sweeps"] == 0 and stats["proper_replacements"] == 0
        code, report, _ = run(capsys, [*argv, "--mode", "consistency"])
        assert code == 0
        stats = report["stats"]
        assert stats["components"] == 1 and stats["core_searches"] == 0
        assert stats["sweeps"] == 1 and stats["proper_replacements"] == 0

    def test_trace_goes_to_stderr(self, files, capsys):
        code, report, err = run(
            capsys, ["solve", files["t13.json"], files["k3_13.json"], "--trace"]
        )
        assert code == 1
        assert report == {"verdict": "unsat"}
        assert "pair=" in err

    def test_unknown_mode(self, files, capsys):
        code, _, err = run(
            capsys,
            ["solve", files["t12.json"], files["tri12.json"], "--mode", "psychic"],
        )
        assert code == 3
        assert "invalid choice" in err

    def test_instance_validated_against_template(self, files, capsys):
        code, _, err = run(capsys, ["solve", files["t13.json"], files["tri12.json"]])
        assert code == 3
        assert "unknown relation 'dist12'" in err

    def test_brute_decides_a_long_path(self, files, capsys):
        # the exhaustive search keeps its own stack, one entry per variable
        eq = files["dir"] / "eq.json"
        eq.write_text(to_json(template_to_dict(EQUALITY)))
        path = files["dir"] / "path1500.json"
        n = 1500
        path.write_text(
            to_json(instance_to_dict(graph_instance("eq", n, [(i, i + 1) for i in range(n - 1)])))
        )
        code, report, err = run(capsys, ["solve", str(eq), str(path), "--mode", "brute"])
        assert code == 0
        assert report == {"verdict": "sat", "witness": [0] * n}
        assert err == ""


    def test_derived_relation_name_cannot_clash(self, files, capsys):
        # preprocess rewrites r(0,0,1) under a name other than the user's r~001
        t = Template("t", (RelationDef("r", 3, ((0, 1), (1, 1))), binary_relation("r~001", (1,))))
        inst = Instance(2, (Constraint("r", (0, 0, 1)), Constraint("r~001", (0, 1))))
        paths = []
        for name, doc in (("clash_t.json", template_to_dict(t)), ("clash.json", instance_to_dict(inst))):
            path = files["dir"] / name
            path.write_text(to_json(doc))
            paths.append(str(path))
        code, report, err = run(capsys, ["solve", *paths])
        assert code == 0
        assert report == {"verdict": "sat", "witness": [0, 1]}
        assert err == ""

    def test_span_cap_maps_to_unknown(self, files, capsys):
        # pair sets over offsets +-10^9 would need masks of 2*10^9 bits
        t = Template("wide", (binary_relation("w", (-(10**9), 1, 10**9)),))
        wide = files["dir"] / "wide.json"
        wide.write_text(to_json(template_to_dict(t)))
        inst = graph_instance("w", 6, [(i, i + 1) for i in range(5)])
        path = files["dir"] / "path6.json"
        path.write_text(to_json(instance_to_dict(inst)))
        for mode in ("consistency", "auto"):
            code, report, _ = run(capsys, ["solve", str(wide), str(path), "--mode", mode])
            assert code == 2
            assert report["verdict"] == "unknown" and "cap" in report["reason"]


class TestVerify:
    def test_accepts(self, files, capsys):
        code, report, _ = run(
            capsys,
            ["verify", files["t13.json"], files["pair13.json"], files["good.json"]],
        )
        assert code == 0
        assert report == {"verdict": "sat", "witness": [0, 3]}

    def test_rejects(self, files, capsys):
        code, report, _ = run(
            capsys,
            ["verify", files["t13.json"], files["pair13.json"], files["bad.json"]],
        )
        assert code == 1
        assert report == {"verdict": "unsat", "failing_constraint": 0}


class TestPoly:
    def test_finds_the_modulus(self, files, capsys):
        code, report, _ = run(capsys, ["poly", files["t13.json"], "--trials", "100"])
        assert code == 0
        assert report["found"] is True
        assert report["modulus"] == 2
        assert report["randomized_trials"] == 100
        assert report["verified_window"] > 0

    def test_reports_absence(self, files, capsys):
        code, report, _ = run(capsys, ["poly", files["t12.json"]])
        assert code == 2
        assert report == {"found": False, "max_modulus_checked": 4}

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "-5"], ["--max-d", "0"], ["--trials", "1.5"]],
    )
    def test_out_of_range_flags_rejected(self, files, capsys, flags):
        code, report, err = run(capsys, ["poly", files["t12.json"], *flags])
        assert code == 3
        assert report is None
        assert err.startswith("error:")

    def test_window_flag_unrecognized(self, files, capsys):
        # every closure check runs at its derived window; there is no override
        code, report, err = run(capsys, ["poly", files["t13.json"], "--window", "31"])
        assert code == 3
        assert report is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unrecognized arguments: --window" in err

    def test_huge_offsets_refused(self, files, capsys):
        # the closure check over offsets +-10^9 is over its size cap
        t = Template("wide", (binary_relation("w", (-(10**9), 1, 10**9)),))
        wide = files["dir"] / "wide.json"
        wide.write_text(to_json(template_to_dict(t)))
        code, report, err = run(capsys, ["poly", str(wide)])
        assert code == 2
        assert report is None
        assert err.startswith("refused:") and err.count("\n") == 1

    def test_verification_window_is_enough(self, files, capsys):
        code, report, _ = run(capsys, ["poly", files["t13.json"]])
        assert code == 0
        assert report["modulus"] == 2
        assert report["verified_window"] == 31


class TestEndo:
    def test_check_classifies(self, files, capsys):
        code, report, _ = run(
            capsys, ["endo", "check", files["t13.json"], "--spec", files["endo1.txt"]]
        )
        assert code == 0
        assert report == {
            "endomorphism": True,
            "classification": {
                "kind": "periodic",
                "direction": 1,
                "minimal_stable": 3,
                "stable_numbers": [3, 6, 9],
                "checked_upto": 9,
            },
        }

    @pytest.mark.parametrize(
        "template, spec, bound",
        [(DIST12, "p=3; values=0,-2,-1; drift=0", 6), (EQUALITY, "p=1; values=0; drift=0", None)],
        ids=["dist12_core", "equality_constant"],
    )
    def test_check_bounds_a_finite_range(self, files, capsys, template, spec, bound):
        # the equality template realizes no distance, so it has no stretch bound
        path = files["dir"] / "drift0.json"
        path.write_text(to_json(template_to_dict(template)))
        spec_path = files["dir"] / "drift0.txt"
        spec_path.write_text(spec + "\n")
        code, report, _ = run(capsys, ["endo", "check", str(path), "--spec", str(spec_path)])
        assert code == 0
        assert report == {
            "endomorphism": True,
            "classification": {
                "kind": "finite_range",
                "direction": None,
                "minimal_stable": None,
                "stable_numbers": [],
                "checked_upto": 0,
                "generated_range_bound": bound,
            },
        }

    def test_check_refuses_huge_distances(self, files, capsys):
        # the reflection is an endomorphism, but its stable numbers up to
        # 10^9 are over the cap
        t = Template("wide", (binary_relation("w", (-(10**9), -1, 1, 10**9)),))
        wide = files["dir"] / "wide.json"
        wide.write_text(to_json(template_to_dict(t)))
        spec = files["dir"] / "reflect.txt"
        spec.write_text("p=1; values=0; drift=-1\n")
        code, report, err = run(capsys, ["endo", "check", str(wide), "--spec", str(spec)])
        assert code == 2
        assert report is None
        assert err.startswith("refused:") and "cap" in err

    def test_check_rejects_non_endomorphism(self, files, capsys):
        code, report, _ = run(
            capsys, ["endo", "check", files["t13.json"], "--spec", files["const.txt"]]
        )
        assert code == 1
        assert report["endomorphism"] is False
        assert report["relation"] == "dist13"

    def test_search_finds(self, files, capsys):
        code, report, _ = run(capsys, ["endo", "search", files["t13.json"]])
        assert code == 0
        assert report == {
            "found": True,
            "spec": format_map_spec(PeriodicMapSpec(2, (-6, -5), 0)),
        }

    def test_search_refutes_within_bounds(self, files, capsys):
        code, report, _ = run(
            capsys,
            [
                "endo", "search", files["t136.json"],
                "--max-period", "4", "--value-window", "8", "--drift", "0",
            ],
        )
        assert code == 2
        assert report == {"found": False}

    def test_reduce_to_stdout(self, files, capsys):
        code, report, _ = run(capsys, ["endo", "reduce", files["t13.json"], "--q", "3"])
        assert code == 0
        assert report == {
            "name": "dist13",
            "relations": [{"name": "dist13", "arity": 2, "tuples": [[-1], [1]]}],
        }

    def test_reduce_to_file(self, files, capsys):
        out = files["dir"] / "reduced.json"
        code, _, _ = run(
            capsys,
            ["endo", "reduce", files["t136.json"], "--q", "3", "--out", str(out)],
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["relations"][0]["tuples"] == [[-2], [-1], [1], [2]]
        assert doc["relations"][1]["tuples"] == [[-1], [1]]

    def test_reduce_rejects_zero(self, files, capsys):
        code, _, err = run(capsys, ["endo", "reduce", files["t13.json"], "--q", "0"])
        assert code == 3
        assert err.startswith("error:")


class TestExitMapping:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, [])[0] == 3

    def test_cap_exceeded_maps_to_unknown(self, files, capsys, monkeypatch):
        def refuse(*a, **k):
            raise CapExceededError("search space too large")

        monkeypatch.setattr(solver, "solve", refuse)
        code, _, err = run(capsys, ["solve", files["t12.json"], files["tri12.json"]])
        assert code == 2
        assert err.startswith("refused:")

    def test_internal_error_maps_to_four(self, files, capsys, monkeypatch):
        def explode(*a, **k):
            raise InternalInvariantError("boom")

        monkeypatch.setattr(solver, "solve", explode)
        code, _, err = run(capsys, ["solve", files["t12.json"], files["tri12.json"]])
        assert code == 4
        assert err.startswith("internal error:")

    def test_unexpected_exception_maps_to_four(self, files, capsys, monkeypatch):
        def divide(*a, **k):
            return 1 // 0

        monkeypatch.setattr(solver, "solve", divide)
        code, report, err = run(capsys, ["solve", files["t12.json"], files["tri12.json"]])
        assert code == 4
        assert report is None
        assert err.startswith("internal error: ZeroDivisionError:")
        assert err.count("\n") == 1


class TestDeterminism:
    def test_reports_repeat_byte_for_byte(self, files, capsys):
        argv = ["solve", files["t12.json"], files["tri12.json"], "--stats"]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_module_entry_point(self, files):
        # -W error: runpy warns when importing the package has already
        # imported distcsp.cli, which the package's lazy exports must not do
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "distcsp.cli", "analyze", files["t13.json"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["analysis"]["max_distance"] == 3


def run_in_fresh_process(commands):
    """Exit codes of ``run_cli`` on each argv, in one new interpreter, and
    whether numpy was loaded by the end."""
    script = (
        "import json, sys\n"
        "from distcsp.cli import run_cli\n"
        "codes = [run_cli(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    src = str(Path(distcsp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_solve_analyze_and_endo_check_leave_numpy_unloaded(self, files):
        path = files["dir"] / "path13.json"
        path.write_text(
            to_json(instance_to_dict(graph_instance("dist13", 6, [(i, i + 1) for i in range(5)])))
        )
        codes, numpy_loaded = run_in_fresh_process(
            [
                ["solve", files["t13.json"], str(path)],
                ["analyze", files["t13.json"]],
                ["endo", "check", files["t13.json"], "--spec", files["endo1.txt"]],
            ]
        )
        assert codes == [0, 0, 0]
        assert not numpy_loaded

    def test_poly_leaves_numpy_unloaded(self, files):
        codes, numpy_loaded = run_in_fresh_process([["poly", files["t13.json"]]])
        assert codes == [0]
        assert not numpy_loaded

    def test_stuck_auto_solve_leaves_numpy_unloaded(self, files):
        # auto mode proves that dist12 has no median before it searches K4
        # over dist12's core
        argv = ["solve", files["t12.json"], files["k4_12.json"], "--mode", "auto"]
        codes, numpy_loaded = run_in_fresh_process([argv])
        assert codes == [1]  # K4 is not 3-colourable
        assert not numpy_loaded
