"""Command-line surface: report contents, formats, exit codes."""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from emsync import cli
from emsync.cli import main
from emsync.machine import parse_machine, random_machine, render_machine
from perfbench import gen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_lines(out):
    return [tuple(line.split("\t")) for line in out.splitlines()]


class TestReports:
    def test_validate_kv(self, capsys, machine_dir):
        code, out, err = run(
            capsys, "validate", str(machine_dir / "M_EX.em"), "--format", "kv"
        )
        assert code == 0 and err == ""
        assert kv_lines(out) == [
            ("machine", "M_EX"),
            ("states", "2"),
            ("symbols", "2"),
            ("edges", "4"),
            ("classification", "exact"),
        ]

    def test_classify_kv(self, capsys, machine_dir):
        code, out, _ = run(
            capsys, "classify", str(machine_dir / "M_NE.em"), "--format", "kv"
        )
        assert code == 0
        assert out == "classification\tnon-exact\n"

    def test_sync_rate_kv(self, capsys, machine_dir):
        code, out, _ = run(
            capsys, "sync-rate", str(machine_dir / "M_EX.em"), "--format", "kv"
        )
        assert code == 0
        assert out == "src\t0.353553391\n"

    def test_sync_rate_degenerate(self, capsys, machine_dir):
        code, out, _ = run(
            capsys, "sync-rate", str(machine_dir / "M_GM.em"), "--format", "kv"
        )
        assert code == 0
        assert out == "src\t0\n"

    def test_pred_rate_kv(self, capsys, machine_dir):
        code, out, _ = run(
            capsys, "pred-rate", str(machine_dir / "M_NE.em"), "--format", "kv"
        )
        assert code == 0
        assert kv_lines(out) == [
            ("prc", "0.829826533"),
            ("e_m.0", "0.186538596"),
            ("escape", "0"),
        ]

    def test_pred_rate_exact_machine(self, capsys, machine_dir):
        code, out, _ = run(
            capsys, "pred-rate", str(machine_dir / "M_EX.em"), "--format", "kv"
        )
        assert code == 0
        assert kv_lines(out) == [("prc", "0"), ("escape", "0.353553391")]

    def test_bounds_with_oracle(self, capsys, machine_dir):
        code, out, _ = run(
            capsys,
            "bounds",
            str(machine_dir / "M_EX.em"),
            "--length",
            "2",
            "--oracle",
            "--format",
            "kv",
        )
        assert code == 0
        assert kv_lines(out) == [
            ("length", "2"),
            ("nsyn.lower", "0.125"),
            ("nsyn.exact", "0.125"),
            ("nsyn.upper", "0.125"),
        ]

    def test_bounds_without_oracle(self, capsys, machine_dir):
        code, out, _ = run(
            capsys,
            "bounds",
            str(machine_dir / "M_GM.em"),
            "--length",
            "1",
            "--format",
            "kv",
        )
        assert code == 0
        assert kv_lines(out) == [
            ("length", "1"),
            ("nsyn.lower", "0"),
            ("nsyn.upper", "0"),
        ]

    def test_bounds_length_zero(self, capsys, machine_dir):
        code, out, _ = run(
            capsys,
            "bounds",
            str(machine_dir / "M_EX.em"),
            "--length",
            "0",
            "--format",
            "kv",
        )
        assert code == 0
        assert ("nsyn.upper", "1") in kv_lines(out)

    def test_simulate_fixed_length_keys(self, capsys, machine_dir):
        code, out, _ = run(
            capsys,
            "simulate",
            str(machine_dir / "M_NE.em"),
            "--length",
            "6",
            "--runs",
            "50",
            "--seed",
            "1",
            "--format",
            "kv",
        )
        assert code == 0
        keys = [key for key, _ in kv_lines(out)]
        assert keys == [
            "length",
            "runs",
            "seed",
            "q_l.mean.6",
            "q_l.median.6",
            "q_l.p10.6",
            "q_l.p90.6",
        ]

    def test_simulate_sweep_fits_slope(self, capsys, machine_dir):
        code, out, _ = run(
            capsys,
            "simulate",
            str(machine_dir / "M_NE.em"),
            "--sweep",
            "20:100:20",
            "--runs",
            "400",
            "--seed",
            "7",
            "--format",
            "kv",
        )
        assert code == 0
        report = dict(kv_lines(out))
        assert report["length"] == "100"
        for point in (20, 40, 60, 80, 100):
            assert f"q_l.median.{point}" in report
        # M_NE uncertainty decays like exp(-E_M L); the fitted slope should
        # sit near -0.1865 even with a modest sample
        assert abs(float(report["slope"]) + 0.186538596) < 0.05

    def test_human_format_aligns_keys(self, capsys, machine_dir):
        code, out, _ = run(capsys, "validate", str(machine_dir / "M_EX.em"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "machine         M_EX"
        assert lines[-1] == "classification  exact"


# sha256 of the stdout, stderr and exit code of each command on each of
# machines/*.em, and of its report at full precision (stdout prints 9
# significant digits, which hide a change in the last bits of a mean);
# pinned so that a change to the simulation read-out (the order of a sum,
# a median) or to the enumeration shows
PINNED_COMMANDS = {
    "sweep": ("simulate", "--sweep", "0:300:1", "--runs", "4", "--seed", "1"),
    "length": ("simulate", "--length", "60", "--runs", "200", "--seed", "2"),
    "oracle": ("bounds", "--length", "6", "--oracle"),
}
OUTPUT_SHA256 = {
    "M_1 length": "eb4412e3e04c6361b115c8ba4b116fce362ffe3ffbf5580444b10bab171c0553",
    "M_EX length": "eb4412e3e04c6361b115c8ba4b116fce362ffe3ffbf5580444b10bab171c0553",
    "M_GM length": "eb4412e3e04c6361b115c8ba4b116fce362ffe3ffbf5580444b10bab171c0553",
    "M_NE length": "1f848535fe23067b08b3d8dc6355d13f7dd1f1812b784860c017ab5f42ad01dd",
    "M_1 oracle": "fe685259d1650d261b798ff3ae66e6eed91a21d8b56126944e83a3d012e34da4",
    "M_EX oracle": "cf7950dd4b2b7aef6551ec872dace118626450a556b7ad285fe8c8a3fa4e980b",
    "M_GM oracle": "fe685259d1650d261b798ff3ae66e6eed91a21d8b56126944e83a3d012e34da4",
    "M_NE oracle": "fffd987e27324fa748628b7e85f3b4963f8c2c862648702844180ea28b1b6046",
    "M_1 sweep": "68dc52d119adb76115716f3fd5f82c788c6d6f6f82e08c92ae71be3981611d9a",
    "M_EX sweep": "5b964e24207dbae89f21d8ed2a510cc70a3c51292904f9067d5e9ecacd18a86b",
    "M_GM sweep": "c6d7cab8a6cad85ebdfb7b7d36c8462ed3c4bad5768e750d39902abc724a767c",
    "M_NE sweep": "740c9fb2fef17934c44fe6d4cef46e84c5f4749d3e1ab9ac18abf2dd5f5bdfaa",
}


def output_digest(capsys, monkeypatch, path, command):
    reports = []
    render = cli.render_report

    def recorded(report, fmt):
        reports.append(report)
        return render(report, fmt)

    monkeypatch.setattr(cli, "render_report", recorded)
    command, *options = PINNED_COMMANDS[command]
    code, out, err = run(capsys, command, str(path), *options)
    return hashlib.sha256(repr((out, err, code, reports)).encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
    def test_pinned_hashes(self, capsys, monkeypatch, machine_dir, command):
        digests = {
            f"{path.stem} {command}": output_digest(capsys, monkeypatch, path, command)
            for path in sorted(machine_dir.glob("*.em"))
        }
        assert digests == {
            key: value for key, value in OUTPUT_SHA256.items() if key.endswith(f" {command}")
        }


class TestGen:
    def test_stdout_machine_parses(self, capsys):
        code, out, err = run(capsys, "gen", "--states", "3", "--symbols", "2", "--seed", "4")
        assert code == 0 and err == ""
        m = parse_machine(out)
        assert m.n == 3 and m.k == 2

    def test_one_state_machine(self, capsys):
        code, out, _ = run(capsys, "gen", "--states", "1", "--symbols", "1")
        assert code == 0
        m = parse_machine(out)
        assert m.n == 1 and m.k == 1
        assert m.delta[0, 0] == 0 and m.probs[0, 0] == 1.0

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "gen", "--states", "4", "--symbols", "3", "--seed", "9")
        _, second, _ = run(capsys, "gen", "--states", "4", "--symbols", "3", "--seed", "9")
        assert first == second

    def test_out_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "generated.em"
        code, out, _ = run(
            capsys,
            "gen",
            "--states",
            "3",
            "--symbols",
            "2",
            "--seed",
            "2",
            "--out",
            str(target),
            "--format",
            "kv",
        )
        assert code == 0
        report = dict(kv_lines(out))
        assert report["states"] == "3" and report["out"] == str(target)
        code, out, _ = run(capsys, "validate", str(target), "--format", "kv")
        assert code == 0
        assert ("states", "3") in kv_lines(out)

    def test_impossible_request_exhausts_tries(self, capsys):
        # two states over one symbol are either disconnected or equivalent
        code, out, err = run(
            capsys, "gen", "--states", "2", "--symbols", "1", "--max-tries", "200"
        )
        assert code == 3
        assert err.startswith("error:")


class TestExitCodes:
    def test_sync_rate_on_non_exact_machine(self, capsys, machine_dir):
        code, out, err = run(capsys, "sync-rate", str(machine_dir / "M_NE.em"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "never merges" in err and "(0, 1)" in err

    def test_malformed_machine_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.em"
        bad.write_text("machine x\nsymbols a\nstates 0\nend\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2
        assert err.startswith("error:") and "line 2" in err

    def test_row_sum_error_prints_a_plain_float(self, capsys, tmp_path):
        bad = tmp_path / "half.em"
        bad.write_text(
            "machine half\nstates a b\nsymbols x\nedge a x b 0.5\nedge b x a 1\nend\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2 and out == ""
        assert err == "error: emission probabilities of state 'a' sum to 0.5, not 1\n"

    def test_missing_machine_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "absent.em"))
        assert code == 2
        assert "cannot read" in err

    def test_machine_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bom16.em"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cannot read" in err
        assert len(err.splitlines()) == 1

    def test_machine_file_with_utf8_bom(self, capsys, machine_dir, tmp_path):
        # a UTF-8 byte-order mark, as some editors save it, is not a directive
        plain = machine_dir / "M_EX.em"
        marked = tmp_path / "M_EX.em"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "validate", str(plain), "--format", "kv")
        assert expected[0] == 0
        assert run(capsys, "validate", str(marked), "--format", "kv") == expected

    def test_gen_out_directory_missing(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.em"
        code, out, err = run(capsys, "gen", "--states", "3", "--symbols", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cannot write" in err
        assert len(err.splitlines()) == 1
        assert not target.parent.exists()

    def test_oracle_budget_exceeded(self, capsys, machine_dir):
        code, _, err = run(
            capsys,
            "bounds",
            str(machine_dir / "M_EX.em"),
            "--length",
            "30",
            "--oracle",
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("name", ["M_NE.em", "M_EX.em", "M_GM.em"])
    def test_oracle_budget_exceeded_at_unprintable_count(self, capsys, machine_dir, name):
        # the needed budget has over 4,800 digits; it is refused before the
        # 16,000 steps of the sandwich bounds run
        argv = ("bounds", str(machine_dir / name), "--length", "16000", "--oracle", "--format", "kv")
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: enumeration needs a budget of 16000 * ")
        assert len(err.splitlines()) == 1

    def test_oracle_negative_budget(self, capsys, machine_dir):
        argv = ("bounds", str(machine_dir / "M_EX.em"), "--length", "0", "--oracle", "--budget", "-5")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err
        assert len(err.splitlines()) == 1

    def test_simulate_requires_length_or_sweep(self, capsys, machine_dir):
        code, _, err = run(capsys, "simulate", str(machine_dir / "M_NE.em"))
        assert code == 2
        assert "--length or --sweep" in err

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--states", "3", "--symbols", "2"], ["simulate", "M_EX.em", "--length", "3"]],
        ids=["gen", "simulate"],
    )
    def test_negative_seed(self, capsys, monkeypatch, machine_dir, argv):
        monkeypatch.chdir(machine_dir)
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("tries", ["0", "-5"])
    def test_gen_max_tries_below_one(self, capsys, tries):
        code, out, err = run(
            capsys, "gen", "--states", "3", "--symbols", "2", "--max-tries", tries
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "max_tries" in err
        assert len(err.splitlines()) == 1

    def test_simulate_length_with_sweep_refused(self, capsys, machine_dir):
        argv = ("simulate", str(machine_dir / "M_NE.em"), "--length", "400", "--sweep", "100:300:100")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--length" in err and "--sweep" in err

    @pytest.mark.parametrize(
        "argv", [["validate", "M_EX.em"], ["gen", "--states", "3", "--symbols", "2"]]
    )
    def test_closed_output_pipe(self, machine_dir, argv):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "emsync.cli", *argv],
                cwd=machine_dir,
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""

    @pytest.mark.parametrize("sweep", ["10", "5:1:1", "1:10:0", "a:b:c", "-2:4:1"])
    def test_bad_sweep_values(self, capsys, machine_dir, sweep):
        code, _, err = run(
            capsys, "simulate", str(machine_dir / "M_NE.em"), f"--sweep={sweep}"
        )
        assert code == 2
        assert "sweep" in err


    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_eps_must_be_positive_and_finite(self, capsys, machine_dir, eps):
        code, out, err = run(capsys, "sync-rate", str(machine_dir / "M_EX.em"), f"--eps={eps}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "eps" in err

    def test_eps_below_resolution_stops_on_its_bracket(self, capsys, tmp_path):
        # the bracket stops narrowing near 1e-16, so the run must end on it
        path = tmp_path / "cerny-17.em"
        path.write_text(gen.cerny_spec(17).text(), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "sync-rate", str(path), "--eps", "1e-300")
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "bracket" in err
        assert len(err.splitlines()) == 1

    def test_out_of_memory(self, capsys, machine_dir, monkeypatch):
        def exhaust(m):
            raise MemoryError

        monkeypatch.setattr(cli, "rate_report", exhaust)
        code, out, err = run(capsys, "pred-rate", str(machine_dir / "M_EX.em"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory") and len(err.splitlines()) == 1

        # a simulation on a machine of 2 ordered pairs: the line names no
        # cause the program did not check, such as the pair space
        def exhaust_simulation(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "simulate_beliefs", exhaust_simulation)
        argv = ("simulate", str(machine_dir / "M_NE.em"), "--length", "10", "--runs", "10")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: out of memory\n")


class TestDeterminism:
    def test_simulate_byte_identical(self, capsys, machine_dir):
        argv = (
            "simulate",
            str(machine_dir / "M_NE.em"),
            "--length",
            "30",
            "--runs",
            "200",
            "--seed",
            "13",
            "--format",
            "kv",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_nine_significant_digits(self, capsys, machine_dir):
        _, out, _ = run(
            capsys, "sync-rate", str(machine_dir / "M_EX.em"), "--format", "kv"
        )
        value = out.split("\t")[1].strip()
        assert len(value.replace("0.", "")) == 9
        assert float(value) == pytest.approx(np.sqrt(0.125), abs=1e-9)


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_between_calls(self, capsys, tmp_path):
        path = tmp_path / "random.em"
        path.write_text(render_machine(random_machine(4, 2, seed=0)), encoding="utf-8")
        default = run(capsys, "sync-rate", str(path), "--format", "kv")
        coarse = run(capsys, "sync-rate", str(path), "--eps", "1e-3", "--format", "kv")
        assert coarse[0] == default[0] == 0
        assert coarse[1] != default[1]
        assert run(capsys, "sync-rate", str(path), "--format", "kv") == default

    def test_sweep_then_length_is_a_fresh_call(self, capsys, machine_dir):
        length = ("simulate", str(machine_dir / "M_NE.em"), "--length", "30", "--runs", "50")
        cli.build_parser.cache_clear()
        fresh = run(capsys, *length, "--format", "kv")
        sweep = run(capsys, "simulate", str(machine_dir / "M_NE.em"), "--sweep", "10:30:10")
        assert sweep[0] == 0
        assert run(capsys, *length, "--format", "kv") == fresh
        assert fresh[0] == 0 and fresh[2] == ""
