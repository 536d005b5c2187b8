import argparse
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ksgeom
from ksgeom.cli import build_parser, main
from ksgeom.demos import DEFAULT_POLE_ANGLE, demo_first_proof
from ksgeom.errors import ERROR_CLASSES, EXIT_CODES, EXIT_EXPECTATION, EXIT_REJECTED
from ksgeom.serialize import save_trace
from ksgeom.sphere import canonicalize

from conftest import random_northern


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_with_dead_reader(stream, *argv):
    """Run the CLI in a subprocess whose stream ("stdout", "stderr" or None)
    is a pipe with its read end closed first; the other streams are captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if stream is not None:
        streams[stream] = write_end
    try:
        return subprocess.run(
            [sys.executable, "-m", "ksgeom.cli", *argv],
            **streams,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(ksgeom.__file__).parents[1])},
            timeout=60,
        )
    finally:
        os.close(write_end)


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def write_certificate(capsys, path):
    code, _, _ = run(capsys, "reach", "--from", "0,sin(0.8),cos(0.8)",
                     "--to", "0.4,0.5,0.2", "-o", str(path))
    assert code == 0
    return path


def write_single_triad(path):
    from ksgeom.sphere import canonicalize
    from ksgeom.system import TriadSystem, save_system

    s = TriadSystem(
        rays=(canonicalize((0, 0, 1)), canonicalize((1, 0, 0)), canonicalize((0, 1, 0))),
        triads=((0, 1, 2),),
    )
    path.write_text(save_system(s))
    return path


def keep_first_point(doc):
    doc["points"], doc["residuals"] = doc["points"][:1], []


class TestExitCodeTable:
    def test_exhaustive_and_distinct(self):
        codes = [cls.exit_code for cls in ERROR_CLASSES]
        assert len(set(codes)) == len(codes)
        reserved = {EXIT_CODES["ok"], EXIT_CODES["internal"], EXIT_CODES["usage"],
                    EXIT_REJECTED, EXIT_EXPECTATION}
        assert not reserved & set(codes)

    def test_every_error_has_a_code(self):
        for cls in ERROR_CLASSES:
            assert EXIT_CODES[cls.__name__] == cls.exit_code > 2

    def test_code_9_retired(self):
        # 9 was Unreachable, raised when the shell search gave up
        assert 9 not in EXIT_CODES.values()
        assert all(cls.exit_code != 9 for cls in ERROR_CLASSES)


class TestReachCommand:
    def test_writes_verifiable_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run(
            capsys,
            "reach",
            "--from", "0,0.7071067811865475,0.7071067811865475",
            "--to", "0.6,0.4,0.2",
            "-o", str(out),
        )
        assert code == 0
        code, _, _ = run(capsys, "verify", str(out))
        assert code == 0

    def test_precondition_exit_code(self, capsys):
        code, _, err = run(capsys, "reach", "--from", "0.6,0.4,0.2", "--to", "0,0.707,0.707")
        assert code == EXIT_CODES["PreconditionViolation"]
        assert "PreconditionViolation" in err

    def test_pole_source_exit_code(self, capsys):
        code, _, err = run(capsys, "reach", "--from", "0,0,1", "--to", "0.6,0.4,0.2")
        assert code == EXIT_CODES["AtPole"]

    def test_round_trip_hundred_pairs(self, tmp_path, capsys):
        rng = random.Random(12345)
        out = tmp_path / "c.json"
        for _ in range(100):
            while True:
                q = random_northern(rng)
                p = random_northern(rng)
                if p.z < q.z - 1e-3 and not q.is_pole():
                    break
            code, _, _ = run(
                capsys,
                "reach",
                "--from=" + ",".join(repr(c) for c in q.vec),
                "--to=" + ",".join(repr(c) for c in p.vec),
                "-o", str(out),
            )
            assert code == 0
            assert run(capsys, "verify", str(out))[0] == 0

    def test_sin_cos_expressions(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "reach",
            "--from", "0,sin(0.8),cos(0.8)",
            "--to", "0.3,sin(1.2),cos(1.2)",
            "-o", str(out),
        )
        assert code == 0

    def test_power_operator_rejected(self, capsys):
        code, _, err = run(capsys, "reach", "--from", "9**9**9,0,1", "--to", "0.6,0.4,0.2")
        assert code == EXIT_CODES["ParseError"] == 19
        assert "'**'" in err

    @pytest.mark.parametrize("argv", [
        ["reach", "--from", "1e400,0,1", "--to", "0.6,0.4,0.2"],
        ["reach", "--from", "1e400-1e400,0,1", "--to", "0.6,0.4,0.2"],
        ["reach", "--from", "1e300,1e300,1", "--to", "0.6,0.4,0.2"],  # norm overflows
    ])
    def test_non_finite_vector_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CODES["ParseError"] == 19
        assert "not finite" in err

    def test_json_mode_payload(self, capsys):
        code, out, _ = run(
            capsys, "reach", "--json",
            "--from", "0,sin(0.8),cos(0.8)",
            "--to", "0,sin(1.2),cos(1.2)",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["accepted"] is True


class TestVerifyCommand:
    def test_tampered_rejected(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        run(capsys, "reach", "--from", "0,sin(0.8),cos(0.8)", "--to", "0.4,0.5,0.2",
            "-o", str(out))
        doc = json.loads(out.read_text())
        doc["points"][1][2] = -doc["points"][1][2]
        out.write_text(json.dumps(doc))
        code, o, _ = run(capsys, "verify", str(out))
        assert code == EXIT_REJECTED
        assert "[1]" in o

    def test_point_southern_after_normalization_rejected(self, tmp_path, capsys):
        z = 1.0000001e-9

        def tilt_first_point(doc):
            doc["points"] = [[math.sqrt(1 - z * z) * (1 + 5e-7), 0.0, z], [0.0, 0.6, 0.8]]
            doc["residuals"] = [0.0]

        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), tilt_first_point)
        code, out, _ = run(capsys, "verify", f)
        assert code == EXIT_REJECTED == 22
        assert "[0] point z=" in out

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(capsys, "verify", str(bad))[0] == EXIT_CODES["ParseError"]

    def test_one_point_certificate_has_no_links(self, tmp_path, capsys):
        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), keep_first_point)
        code, out, _ = run(capsys, "verify", f)
        assert code == 0 and out.strip() == "accepted: 1 points, no links"

    def test_one_point_certificate_json(self, tmp_path, capsys):
        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), keep_first_point)
        code, out, _ = run(capsys, "verify", f, "--json")
        report = json.loads(out)
        assert code == 0 and report["accepted"] and report["link_residuals"] == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, tmp_path, capsys, bad):
        def poison(doc):
            doc["points"][1][0] = bad

        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), poison)
        code, out, _ = run(capsys, "verify", f)
        assert code == EXIT_REJECTED and "[1] point norm" in out
        code, out, _ = run(capsys, "verify", f, "--json")
        assert code == EXIT_REJECTED and json.loads(out)["first_bad_link"] == 1

    def test_non_integer_shell_n(self, tmp_path, capsys):
        def fractional_shell_n(doc):
            doc["shell_n"] = 14.5

        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), fractional_shell_n)
        assert run(capsys, "verify", f)[0] == EXIT_CODES["ParseError"]

    @pytest.mark.parametrize("key", ["point", "eps"])
    def test_non_number_rejected(self, tmp_path, capsys, key):
        def stringify(doc):
            if key == "eps":
                doc["eps"] = str(doc["eps"])
            else:
                doc["points"][0][0] = True

        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), stringify)
        assert run(capsys, "verify", f)[0] == EXIT_CODES["ParseError"] == 19

    @pytest.mark.parametrize("eps", [-1.0, 0.0, 0.5])
    def test_eps_out_of_range_rejected(self, tmp_path, capsys, eps):
        def set_eps(doc):
            doc["eps"] = eps

        f = edit_json(write_certificate(capsys, tmp_path / "cert.json"), set_eps)
        code, out, err = run(capsys, "verify", f)
        assert code == EXIT_CODES["ParseError"] == 19
        assert out == "" and "tolerance eps must lie in (0, 1e-3)" in err

    @pytest.mark.parametrize("eps, want", [(1e-4, 0), (1e-9, EXIT_REJECTED)])
    def test_judged_at_the_documents_eps(self, tmp_path, capsys, eps, want):
        # the one link's residual is 6.0e-08: within 1e-4, beyond 1e-9
        f = tmp_path / "cert.json"
        f.write_text('{"eps":%r,"points":[[0.0,0.6,0.8],[0.6,0.48,0.6400001]]}' % eps)
        code, out, _ = run(capsys, "verify", str(f))
        assert code == want
        if want:
            assert "[0] link residual 5.999999613814921e-08 exceeds tolerance" in out
        else:
            assert out.strip() == "accepted: 2 points, max link residual 6.000e-08"


class TestVectorValuesStartingWithMinus:
    """A vector option's value may start with '-', as its own word or after '='."""

    @pytest.mark.parametrize("spelling", ["word", "equals"])
    @pytest.mark.parametrize("value, vec", [
        ("-0.2,0.3,0.93", (-0.2, 0.3, 0.93)),
        ("-sin(0.3),0,cos(0.3)", (-math.sin(0.3), 0.0, math.cos(0.3))),
    ], ids=["number", "expression"])
    def test_demo_first_pole(self, tmp_path, capsys, spelling, value, vec):
        argv = ["--pole", value] if spelling == "word" else [f"--pole={value}"]
        code, _, err = run(capsys, "demo", "first", *argv, "-o", str(tmp_path))
        assert code == 0, err
        pole = canonicalize(vec)
        assert (tmp_path / "trace.json").read_text() == save_trace(demo_first_proof(pole))

    @pytest.mark.parametrize("spelling", ["word", "equals"])
    def test_reach_from_and_to(self, tmp_path, capsys, spelling):
        src, dst = "-sin(0.8),0,cos(0.8)", "-0.4,0.5,0.2"
        argv = (["--from", src, "--to", dst] if spelling == "word"
                else [f"--from={src}", f"--to={dst}"])
        out = tmp_path / "cert.json"
        code, _, err = run(capsys, "reach", *argv, "-o", str(out))
        assert code == 0, err
        points = json.loads(out.read_text())["points"]
        assert points[0] == list(canonicalize((-math.sin(0.8), 0, math.cos(0.8))).vec)
        assert points[-1] == list(canonicalize((-0.4, 0.5, 0.2)).vec)

    @pytest.mark.parametrize("prefix", ["--p", "--pol"])
    def test_demo_first_pole_prefix(self, tmp_path, capsys, prefix):
        code, _, err = run(capsys, "demo", "first", prefix, "-0.2,0.3,0.93", "-o", str(tmp_path))
        assert code == 0, err
        pole = canonicalize((-0.2, 0.3, 0.93))
        assert (tmp_path / "trace.json").read_text() == save_trace(demo_first_proof(pole))

    def test_reach_from_and_to_prefixes(self, tmp_path, capsys):
        full, short = tmp_path / "full.json", tmp_path / "short.json"
        src, dst = "-sin(0.8),0,cos(0.8)", "-0.4,0.5,0.2"
        assert run(capsys, "reach", "--from", src, "--to", dst, "-o", str(full))[0] == 0
        code, _, err = run(capsys, "reach", "--fr", src, "--t", dst, "-o", str(short))
        assert code == 0, err
        assert short.read_text() == full.read_text()

    def test_a_prefix_of_another_commands_option_is_still_a_usage_error(self, capsys):
        # --t names --to of ks reach; ks demo has no such option
        with pytest.raises(SystemExit) as exc:
            main(["demo", "first", "--t", "-0.2,0.3,0.93"])
        assert exc.value.code == EXIT_CODES["usage"]

    def test_a_missing_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "first", "--pole", "--json"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "--pole" in capsys.readouterr().err


class TestDemoAndColor:
    def test_second_demo_pipeline(self, tmp_path, capsys):
        code, out, _ = run(capsys, "demo", "second", "-o", str(tmp_path), "--json")
        assert code == 0
        summary = json.loads(out)
        # copy N's facts and branches, with its re-pole argued once and held
        # once by an identity instance, and copies X and Y as instance leaves
        assert (summary["facts"], summary["branches"], summary["leaves"]) == (72, 11, 6)
        system_file = tmp_path / "system.json"
        assert system_file.exists() and (tmp_path / "trace.json").exists()

        code, out, _ = run(capsys, "color", str(system_file), "--mode", "count", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["exhaustive"] is True

        assert run(capsys, "color", str(system_file), "--mode", "prove-none")[0] == 0
        assert (
            run(capsys, "color", str(system_file), "--mode", "witness")[0]
            == EXIT_EXPECTATION
        )

    @pytest.mark.parametrize("value", ["garbage", "0,0.3,0.95"])
    def test_second_demo_refuses_a_pole(self, capsys, value):
        # demo second has no target: a --pole value is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["demo", "second", "--pole", value, "--json"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "--pole applies to demo first only" in capsys.readouterr().err

    def test_demo_help_shows_the_first_demos_default_pole(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--help"])
        assert exc.value.code == 0
        assert f"(default: 0,sin({DEFAULT_POLE_ANGLE}),cos({DEFAULT_POLE_ANGLE}))" in " ".join(
            capsys.readouterr().out.split())

    def test_first_demo_bad_pole(self, capsys):
        code, _, _ = run(capsys, "demo", "first", "--pole", "0,sin(1.0),cos(1.0)")
        assert code == EXIT_CODES["BadPole"]

    def test_first_demo_every_branch_contradicted(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "demo", "first", "--pole", "0,sin(0.3),cos(0.3)",
            "-o", str(tmp_path), "--json",
        )
        assert code == 0
        trace_doc = json.loads((tmp_path / "trace.json").read_text())
        leaves = [b for b in trace_doc["branches"] if b["children"] is None]
        # seed copies X and Y and the re-pole's second child are instance
        # leaves, which stand for their bodies' leaves
        held = {i["branch"] for i in trace_doc["instances"]}
        assert len(held) == 3 and all(b["contradiction"] or b["idx"] in held for b in leaves)
        assert (json.loads(out)["leaves"], len(trace_doc["facts"])) == (len(leaves), 80)

    def test_first_demo_default_pole(self, tmp_path, capsys):
        code, _, _ = run(capsys, "demo", "first", "-o", str(tmp_path))
        assert code == 0
        pole = canonicalize((0.0, math.sin(DEFAULT_POLE_ANGLE), math.cos(DEFAULT_POLE_ANGLE)))
        assert (tmp_path / "trace.json").read_text() == save_trace(demo_first_proof(pole))

    def test_color_single_triad_file(self, tmp_path, capsys):
        f = write_single_triad(tmp_path / "triad.json")
        code, out, _ = run(capsys, "color", str(f), "--mode", "count", "--json")
        assert code == 0 and json.loads(out)["count"] == 3
        code, out, _ = run(capsys, "color", str(f), "--mode", "witness", "--json")
        assert code == 0 and json.loads(out)["witness"] is not None
        assert run(capsys, "color", str(f), "--mode", "prove-none")[0] == EXIT_EXPECTATION

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_color_non_finite_ray(self, tmp_path, capsys, bad):
        def poison(doc):
            doc["rays"][2][0] = bad

        f = edit_json(write_single_triad(tmp_path / "triad.json"), poison)
        code, _, err = run(capsys, "color", f, "--mode", "prove-none")
        assert code == EXIT_CODES["InvalidSystem"] == 18
        assert "ray 2" in err

    def test_color_non_integer_index(self, tmp_path, capsys):
        def fractional_index(doc):
            doc["triads"][0][0] = 0.7

        f = edit_json(write_single_triad(tmp_path / "triad.json"), fractional_index)
        assert run(capsys, "color", f)[0] == EXIT_CODES["ParseError"] == 19

    @pytest.mark.parametrize("key", ["ray", "eps"])
    def test_color_non_number(self, tmp_path, capsys, key):
        def stringify(doc):
            if key == "eps":
                doc["eps"] = "1e-9"
            else:
                doc["rays"][1][0] = "1"

        f = edit_json(write_single_triad(tmp_path / "triad.json"), stringify)
        code, _, err = run(capsys, "color", f)
        assert code == EXIT_CODES["ParseError"] == 19
        assert "must be a number" in err

    def test_color_malformed_file(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("not json at all")
        assert run(capsys, "color", str(f))[0] == EXIT_CODES["ParseError"]


class TestUsageErrors:
    @pytest.mark.parametrize("command", [
        ["reach", "--from", "0,sin(0.8),cos(0.8)", "--to", "0.4,0.5,0.2"],
        ["demo", "second"],
        ["color", "system.json"],
        ["verify", "cert.json"],
    ], ids=lambda command: command[0])
    def test_no_eps_flag(self, capsys, command):
        # every predicate compares at the fixed ksgeom.EPS; there is no knob
        with pytest.raises(SystemExit) as exc:
            main([*command, "--eps", "1e-6"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0.5", "0", "-1e-9", "nan", "abc"])
    def test_eps_out_of_range(self, tmp_path, capsys, eps):
        # no value of --eps is accepted, in range or not
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(tmp_path / "cert.json"), f"--eps={eps}"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["color", "verify"])
    @pytest.mark.parametrize("json_mode", [False, True])
    def test_non_utf8_input(self, tmp_path, capsys, command, json_mode):
        f = tmp_path / "bin.json"
        f.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, str(f), *(["--json"] if json_mode else []))
        assert code == EXIT_CODES["ParseError"] == 19
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        if json_mode:
            assert json.loads(err)["error"]["type"] == "ParseError"
        else:
            assert err.startswith("error [ParseError]: not UTF-8 text")

    @pytest.mark.parametrize("command", ["color", "verify"])
    @pytest.mark.parametrize("json_mode", [False, True])
    @pytest.mark.parametrize("kind", ["deep-nesting", "5000-digit-integer"])
    def test_undecodable_json_input(self, tmp_path, capsys, command, json_mode, kind):
        long_coordinate = "[0, 0, " + "1" * 5000 + "]"
        text = {
            "deep-nesting": "[" * 200_000,
            "5000-digit-integer": (
                '{"eps": 1e-09, "rays": [' + long_coordinate + '], "triads": [], "pairs": []}'
                if command == "color"
                else '{"eps": 1e-09, "points": [' + long_coordinate + "]}"
            ),
        }[kind]
        f = tmp_path / "hostile.json"
        f.write_text(text)
        code, out, err = run(capsys, command, str(f), *(["--json"] if json_mode else []))
        assert code == EXIT_CODES["ParseError"] == 19
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        if json_mode:
            assert json.loads(err)["error"]["type"] == "ParseError"
        else:
            assert err.startswith("error [ParseError]: ")

    @pytest.mark.parametrize("command, text", [
        ("color", '{"eps":1e-9,"rays":[[0,0,1]],"triads":[],"pairs":[],"eps":2e-9}'),
        ("verify", '{"eps":1e-9,"points":[[0.0,0.6,0.8],[0.0,0.0,1.0]],"eps":2e-9}'),
    ], ids=["color", "verify"])
    def test_duplicate_key_input(self, tmp_path, capsys, command, text):
        # json's default decoder keeps the last of a repeated key's values
        f = tmp_path / "duplicate.json"
        f.write_text(text)
        code, out, err = run(capsys, command, str(f))
        assert code == EXIT_CODES["ParseError"] == 19
        assert out == "" and err == "error [ParseError]: duplicate key: 'eps'\n"

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_closed_stdout(self, json_mode):
        # the reader of stdout is gone before the command prints
        argv = ["reach", "--from", "0,sin(0.8),cos(0.8)", "--to", "0,sin(1.2),cos(1.2)"]
        proc = run_with_dead_reader("stdout", *argv, *(["--json"] if json_mode else []))
        assert proc.returncode == EXIT_CODES["usage"] == 2
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        if json_mode:
            assert json.loads(proc.stderr)["error"]["type"] == "UsageError"
        else:
            assert proc.stderr.startswith("error [UsageError]: ")

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_closed_stderr(self, json_mode, tmp_path):
        # a warning to a dead stderr does not kill the command, and an error
        # keeps its exit code
        flag = ["--json"] if json_mode else []
        argv = ["reach", "--from", "0,sin(0.8),cos(0.8)", "--to", "0.4,0.5,0.2", *flag]
        proc = run_with_dead_reader("stderr", *argv)
        assert proc.returncode == 0
        assert proc.stdout == run_with_dead_reader(None, *argv).stdout
        if json_mode:
            assert json.loads(proc.stdout)["summary"]["accepted"] is True
        else:
            assert proc.stdout.startswith('{') and "max link residual" in proc.stdout
        proc = run_with_dead_reader("stderr", "verify", str(tmp_path / "missing.json"), *flag)
        assert proc.returncode == EXIT_CODES["usage"] == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["color", "verify"])
    def test_missing_input_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, command, str(missing))
        assert code == EXIT_CODES["usage"]
        assert out == "" and err.count("\n") == 1
        assert "No such file" in err and str(missing) in err

    def test_missing_input_file_json(self, tmp_path, capsys):
        code, _, err = run(capsys, "color", str(tmp_path / "missing.json"), "--json")
        assert code == EXIT_CODES["usage"]
        assert json.loads(err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("command", [
        ["reach", "--from", "0,sin(0.8),cos(0.8)", "--to", "0,sin(1.2),cos(1.2)", "-o"],
        ["demo", "second", "-o"],
    ])
    @pytest.mark.parametrize("json_mode", [False, True])
    def test_unwritable_output(self, tmp_path, capsys, command, json_mode):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        target = str(blocker / "out")
        code, out, err = run(capsys, *command, target, *(["--json"] if json_mode else []))
        assert code == EXIT_CODES["usage"]
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert target in err
        if json_mode:
            assert json.loads(err)["error"]["type"] == "UsageError"
        else:
            assert err.startswith("error [UsageError]: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


class TestBoundedWork:
    """A reach whose chain would pass the spiral cap is refused with NoSuchN
    (exit 8) in milliseconds, and nothing is written; a demo first target
    whose direct chains would pass it closes through the midpoint p''."""

    def test_reach_tiny_height_gap(self, tmp_path, capsys, monkeypatch):
        # heights 0.6 and 0.59999 half a turn apart need some 190,000 steps
        def no_points(*v):
            raise AssertionError("a chain point was built")

        # reach builds every chain point through the one triple form
        monkeypatch.setattr(importlib.import_module("ksgeom.reach"), "_canonical", no_points)
        out = tmp_path / "cert.json"
        start = time.perf_counter()
        code, _, err = run(capsys, "reach", "--from", "0.8,0,0.6",
                           "--to=-sqrt(1-0.59999*0.59999),0,0.59999", "-o", str(out))
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_CODES["NoSuchN"] == 8
        assert "NoSuchN" in err and not out.exists()

    def test_demo_first_near_the_pole(self, tmp_path, capsys):
        # theta = 1e-4: directly, the longest chain would hold about 1.25/theta
        # = 12,500 points; through p'' the trace holds 159 rays
        out = tmp_path / "demo"
        start = time.perf_counter()
        code, _, err = run(capsys, "demo", "first", "--pole", "0,sin(1e-4),cos(1e-4)",
                           "-o", str(out))
        assert time.perf_counter() - start < 0.5
        assert code == 0, err
        assert len(json.loads((out / "trace.json").read_text())["rays"]) == 159


class TestCommandSurface:
    def test_subcommands(self):
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {"reach", "demo", "color", "verify"}

    @pytest.mark.parametrize("command", [
        ["shell", "--point", "0,sin(0.8),cos(0.8)", "--n", "16", "--svg"],
        ["render", "circle", "--svg"],
    ], ids=lambda command: command[0])
    def test_figure_commands_are_unknown(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, str(tmp_path / "fig.svg")])
        assert exc.value.code == EXIT_CODES["usage"] == 2
        assert "invalid choice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_identical_outputs_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "demo", "second", "-o", str(a))
        run(capsys, "demo", "second", "-o", str(b))
        assert (a / "system.json").read_text() == (b / "system.json").read_text()
        assert (a / "trace.json").read_text() == (b / "trace.json").read_text()
