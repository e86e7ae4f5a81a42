import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qlucas
from qlucas import cli
from qlucas.cli import main
from qlucas.congruence import apery_polynomial

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report.schema.json").read_text()
)
SRC = str(Path(qlucas.__file__).resolve().parent.parent)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope


class TestComputationCommands:
    def test_cyclotomic_text(self, capsys):
        code, out, _ = run(capsys, ["cyclotomic", "12"])
        assert code == 0
        assert "q^4 - q^2 + 1" in out

    def test_cyclotomic_json(self, capsys):
        code, envelope = run_json(capsys, ["cyclotomic", "12"])
        assert code == 0
        assert envelope["command"] == "cyclotomic"
        assert envelope["report"]["coefficients"] == ["1", "0", "-1", "0", "1"]
        assert envelope["report"]["degree"] == 4

    def test_qbinom(self, capsys):
        code, envelope = run_json(capsys, ["qbinom", "4", "2"])
        assert code == 0
        assert envelope["report"]["polynomial"] == "q^4 + q^3 + 2*q^2 + q + 1"

    def test_qbinom_k_outside_zero_to_n(self, capsys):
        code, envelope = run_json(capsys, ["qbinom", "3", "5"])
        assert code == 0
        assert envelope["report"]["coefficients"] == []

    def test_qbinom_mod(self, capsys):
        code, envelope = run_json(capsys, ["qbinom", "4", "2", "--mod", "2"])
        assert code == 0
        assert envelope["report"]["coefficients"] == ["2"]

    def test_qratio_builtin_spec(self, capsys):
        code, envelope = run_json(
            capsys, ["qratio", "--spec", "central", "--point", "2"]
        )
        assert code == 0
        assert envelope["report"]["integral"] is True
        assert envelope["report"]["coefficients"] == ["1", "1", "2", "1", "1"]

    def test_qratio_mod_hits_zero(self, capsys):
        code, envelope = run_json(
            capsys, ["qratio", "--spec", "central", "--point", "2", "--mod", "3"]
        )
        assert code == 0
        assert envelope["report"]["coefficients"] == []
        assert envelope["report"]["degree"] is None

    def test_qratio_at_one(self, capsys):
        code, envelope = run_json(
            capsys, ["qratio", "--spec", "central", "--point", "3", "--at-one"]
        )
        assert code == 0
        assert envelope["report"]["value_at_one"] == 20

    def test_qratio_nonintegral_exits_one(self, capsys):
        code, envelope = run_json(
            capsys, ["qratio", "--spec", "inverse-central", "--point", "1"]
        )
        assert code == 1
        assert envelope["report"]["integral"] is False

    def test_qratio_mod_nonintegral_exits_one(self, capsys, tmp_path):
        # Same verdict as the plain path, at b = 1 as well, where the value
        # at q = 1 of a non-polynomial ratio may still be an integer (3 here).
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"dim": 1, "e": [[2]], "f": [[1], [1], [1]]}')
        for spec, point in (("inverse-central", "1"), (str(spec_file), "2")):
            for b in ("1", "2", "5"):
                code, envelope = run_json(
                    capsys, ["qratio", "--spec", spec, "--point", point, "--mod", b]
                )
                assert code == 1, (spec, b)
                assert envelope["report"]["integral"] is False

    def test_build_series(self, capsys):
        code, envelope = run_json(
            capsys, ["build-series", "--spec", "central", "--cap", "3"]
        )
        assert code == 0
        rows = envelope["report"]["coefficients"]
        assert len(rows) == 4
        assert rows[2] == {"exponents": [2], "coeff": ["1", "1", "2", "1", "1"]}

    def test_specialize_matches_direct_sum(self, capsys):
        code, envelope = run_json(
            capsys,
            ["specialize", "--spec", "apery", "--t", "1,0", "--m", "1,1", "--order", "3"],
        )
        assert code == 0
        rows = {tuple(r["exponents"]): r["coeff"] for r in envelope["report"]["coefficients"]}
        assert rows[(3,)] == list(apery_polynomial("a", 1, 3).to_strings())


class TestVerificationCommands:
    def test_check_landau_apery(self, capsys):
        code, envelope = run_json(capsys, ["check-landau", "--spec", "apery"])
        assert code == 0
        assert envelope["report"]["integrality"] is True
        assert envelope["report"]["criterion_D"] is True

    def test_check_landau_spec_file(self, capsys, tmp_path):
        path = tmp_path / "inverse.json"
        path.write_text(json.dumps({"dim": 1, "e": [[1], [1]], "f": [[2]]}))
        code, envelope = run_json(capsys, ["check-landau", "--spec", str(path)])
        assert code == 1
        assert envelope["report"]["integrality"] is False
        assert envelope["report"]["violating_cells"]

    def test_verify_congruence(self, capsys):
        code, envelope = run_json(
            capsys,
            ["verify-congruence", "--spec", "central", "--b-max", "4", "--n-box", "3"],
        )
        assert code == 0
        assert envelope["report"]["ok"] is True
        assert envelope["report"]["checked"] == 40

    def test_verify_plucas(self, capsys):
        code, envelope = run_json(
            capsys,
            ["verify-plucas", "--spec", "central", "--p-max", "3", "--n-box", "4"],
        )
        assert code == 0
        assert envelope["report"]["checked"] == 25

    def test_verify_inter2(self, capsys):
        code, envelope = run_json(
            capsys, ["verify-inter2", "--spec", "central", "--b", "3", "--n-box", "2"]
        )
        assert code == 0
        assert envelope["report"]["checked"] == 3

    def test_verify_apery(self, capsys):
        code, envelope = run_json(
            capsys,
            ["verify-apery", "--family", "a", "--t", "1", "--b-max", "4", "--n-max", "8"],
        )
        assert code == 0
        assert envelope["report"]["ok"] is True

    def test_extract_cofactor(self, capsys):
        code, envelope = run_json(
            capsys,
            ["extract-cofactor", "--spec", "central", "--order", "12", "--b", "2"],
        )
        assert code == 0
        assert len(envelope["report"]["residues"]) == 2
        assert envelope["report"]["check"]["ok"] is True

    def test_verify_ld_passes(self, capsys):
        code, envelope = run_json(
            capsys, ["verify-ld", "--series", "g1", "--p", "2", "--order", "12"]
        )
        assert code == 0
        assert envelope["report"]["ok"] is True

    def test_verify_ld_factorial_fails(self, capsys):
        code, envelope = run_json(
            capsys, ["verify-ld", "--series", "factorial", "--p", "2", "--order", "12"]
        )
        assert code == 1
        assert envelope["report"]["failures"]

    def test_find_relations(self, capsys):
        code, envelope = run_json(
            capsys,
            ["find-relations", "--series", "g1", "--dx", "1", "--dy", "2", "--order", "30"],
        )
        assert code == 0
        report = envelope["report"]
        assert report["count"] == 1
        assert report["candidates"][0]["pretty"] == "4*x*y1^2 - y1^2 + 1"
        assert report["candidates"][0]["stability"] == "verified"


class TestExitCodes:
    def test_unknown_spec_name(self, capsys):
        code, _, err = run(capsys, ["qratio", "--spec", "nosuch", "--point", "1"])
        assert code == 2
        assert "error" in err

    def test_bad_point_syntax(self, capsys):
        code, _, _ = run(capsys, ["qratio", "--spec", "central", "--point", "xx"])
        assert code == 2

    def test_missing_subcommand_args(self, capsys):
        code, _, _ = run(capsys, ["verify-congruence", "--spec", "central"])
        assert code == 2

    def test_nonprime_modulus(self, capsys):
        code, _, err = run(capsys, ["verify-ld", "--series", "g1", "--p", "6", "--order", "10"])
        assert code == 2
        assert "prime" in err

    def test_plucas_below_two(self, capsys):
        code, out, err = run(capsys, ["verify-plucas", "--spec", "central", "--p-max", "1", "--n-box", "2"])
        assert (code, out) == (2, "")
        assert err == "error: p_max must be >= 2\n"

    def test_hypothesis_violation(self, capsys):
        code, _, _ = run(capsys, ["build-series", "--spec", "inverse-central", "--cap", "4"])
        assert code == 2

    def test_landau_budget_exceeded(self, capsys):
        code, out, err = run(capsys, ["check-landau", "--spec", "apery", "--budget", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    @pytest.mark.parametrize("budget", ["-1", "0", "abc"])
    def test_landau_budget_below_one(self, capsys, budget):
        code, out, err = run(capsys, ["check-landau", "--spec", "apery", "--budget", budget])
        assert (code, out) == (2, "")
        assert f"argument --budget: expected a positive integer, got '{budget}'" in err

    @pytest.mark.parametrize("command", [
        ["verify-congruence", "--spec", "central", "--b-max", "3", "--n-box", "2"],
        ["verify-plucas", "--spec", "central", "--p-max", "3", "--n-box", "2"],
    ])
    def test_jobs_below_one(self, capsys, monkeypatch, command):
        for jobs in ("0", "-2"):
            code, out, err = run(capsys, command + ["--jobs", jobs])
            assert (code, out) == (2, "")
            assert "jobs" in err
        monkeypatch.setenv("QLUCAS_JOBS", "0")
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert "jobs" in err
        monkeypatch.setenv("QLUCAS_JOBS", "abc")
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err == "error: QLUCAS_JOBS must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("command", [
        ["specialize", "--spec", "central"],
        ["extract-cofactor", "--spec", "central", "--b", "2"],
        ["verify-ld", "--series", "g1", "--p", "2"],
        ["find-relations", "--series", "g1", "--dx", "1", "--dy", "1"],
    ], ids=lambda command: command[0])
    def test_negative_order(self, capsys, command):
        code, out, err = run(capsys, command + ["--order", "-1"])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: qlucas {command[0]} ")
        assert err.endswith("argument --order: expected a nonnegative integer, got '-1'\n")

    def test_qbinom_negative_n(self, capsys):
        code, out, err = run(capsys, ["qbinom", "-1", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: qlucas qbinom ")
        assert err.endswith("argument n: expected a nonnegative integer, got '-1'\n")

    @pytest.mark.parametrize("command", [
        ["find-relations", "--series", "g1", "--dx", "1", "--dy", "2", "--order", "3", "--margin"],
        ["verify-apery", "--family", "a", "--t", "1", "--b-max", "4", "--n-max"],
    ], ids=lambda command: command[-1])
    def test_negative_count_flag(self, capsys, command):
        code, out, err = run(capsys, command + ["-1"])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: qlucas {command[0]} ")
        assert err.endswith(f"argument {command[-1]}: expected a nonnegative integer, got '-1'\n")

    @pytest.mark.parametrize("command, option, content", [
        (["qratio", "--point", "1"], "--spec", {"dim": 1, "e": [2], "f": [1]}),
        (["check-landau"], "--spec", {"dim": 1, "e": 5, "f": [[1]]}),
        (["verify-ld", "--p", "2", "--order", "2"], "--series", [1, 2, 3]),
        (["verify-ld", "--p", "2", "--order", "2"], "--series",
         {"num_vars": 1, "cap": [2], "coefficients": [[0, ["1"]]]}),
        # JSON true and false load as Python bools, which are ints; each input
        # below once ran to exit 0.
        (["check-landau"], "--spec", {"dim": True, "e": [[True]], "f": [[1]]}),
        (["verify-ld", "--p", "2", "--order", "2"], "--series",
         {"num_vars": 1, "cap": [2], "coefficients": [
             {"exponents": [0], "coeff": ["1"]}, {"exponents": [True], "coeff": ["2"]}]}),
        (["find-relations", "--dx", "1", "--dy", "1", "--order", "12"], "--series",
         [1, True] + list(range(2, 40))),
    ], ids=["spec-flat-vectors", "spec-scalar-e", "series-top-level-list", "series-list-entry",
            "spec-bool", "series-bool-exponent", "sequence-bool"])
    def test_malformed_json_input(self, capsys, tmp_path, command, option, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, command + [option, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_order_too_small(self, capsys):
        code, _, _ = run(
            capsys,
            ["find-relations", "--series", "g1", "--dx", "1", "--dy", "1", "--order", "3"],
        )
        assert code == 2


class TestOutputModes:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["cyclotomic", "12", "--format", "json", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        envelope = json.loads(target.read_text())
        jsonschema.validate(envelope, SCHEMA)
        assert envelope["report"]["degree"] == 4

    def test_output_unwritable(self, capsys, tmp_path):
        # A missing directory and a directory itself: a configuration error,
        # not a negative verdict, and nothing on stdout.
        for target in (tmp_path / "missing" / "report.json", tmp_path):
            code, out, err = run(
                capsys, ["cyclotomic", "5", "--format", "json", "--output", str(target)]
            )
            assert (code, out) == (2, ""), target
            assert err.startswith("error: ") and str(target) in err
        assert list(tmp_path.iterdir()) == []

    def test_text_mode_elides_long_values(self, capsys):
        code, out, _ = run(capsys, ["qbinom", "40", "20"])
        assert code == 0
        assert "characters elided" in out

    def test_json_mode_is_complete(self, capsys):
        code, envelope = run_json(capsys, ["qbinom", "40", "20"])
        assert code == 0
        assert len(envelope["report"]["coefficients"]) == 401

    def test_determinism_modulo_timestamp(self, capsys):
        argv = ["verify-congruence", "--spec", "apery", "--b-max", "3", "--n-box", "2,2"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        del first["timestamp"], second["timestamp"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_jobs_env_default(self, capsys, monkeypatch):
        argv = ["verify-congruence", "--spec", "central", "--b-max", "3", "--n-box", "3"]
        _, serial = run_json(capsys, argv)
        monkeypatch.setenv("QLUCAS_JOBS", "2")
        _, parallel = run_json(capsys, argv)
        assert serial["report"] == parallel["report"]
        assert parallel["params"]["jobs"] == 2


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m qlucas.cli`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    env.pop("QLUCAS_JOBS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "qlucas.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _without_timestamp(out):
    envelope = json.loads(out)
    del envelope["timestamp"]
    return envelope


class TestOneProcess:
    # The second qratio drops --mod and the second find-relations gives
    # --series once, so a default or an append list leaking from one call
    # into the next would change the later report.
    SEQUENCE = [
        ["qratio", "--spec", "central", "--point", "4", "--mod", "3", "--format", "json"],
        ["qratio", "--spec", "central", "--point", "4", "--format", "json"],
        ["find-relations", "--series", "g1", "--series", "g1", "--dx", "1", "--dy", "1",
         "--order", "20", "--format", "json"],
        ["find-relations", "--series", "g1", "--dx", "1", "--dy", "2", "--order", "30",
         "--format", "json"],
        ["check-landau", "--spec", "apery", "--format", "json"],
        ["nosuch-command"],
        ["verify-congruence", "--spec", "central"],
        ["--help"],
    ]

    def test_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("QLUCAS_JOBS", raising=False)
        codes = []
        for argv in self.SEQUENCE:
            code, out, err = run(capsys, argv)
            fresh_code, fresh_out, fresh_err = _fresh_process(argv)
            assert code == fresh_code, argv
            if "--format" in argv:
                assert _without_timestamp(out) == _without_timestamp(fresh_out), argv
            else:
                assert (out, err) == (fresh_out, fresh_err), argv
            if code == 2:
                assert (out, err.startswith("usage: qlucas")) == ("", True), argv
            codes.append(code)
        assert codes == [0, 0, 0, 0, 0, 2, 2, 0]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "qlucas":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        for argv in self.SEQUENCE + [["cyclotomic", "7"], ["qbinom", "5", "2"]]:
            main(argv)
        capsys.readouterr()
        assert len(built) == 1
        assert cli._build_parser.cache_info().currsize == 1

    def test_import_builds_no_parser(self):
        probe = "import qlucas.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")
