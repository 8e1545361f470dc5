"""Command line interface: angle parsing, exit codes, output formats."""

import json
import math

import numpy as np
import pytest

from foursplit import cli
from foursplit.cli import PRECONDITION_ERROR, USAGE_ERROR, main, parse_angle
from foursplit.gates import CHI


class TestParseAngle:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0", 0.0),
            ("1.25", 1.25),
            ("-0.5", -0.5),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("-pi/4", -math.pi / 4),
            ("3pi/4", 3 * math.pi / 4),
            ("0.5pi", math.pi / 2),
            ("chi", CHI),
            ("+chi", CHI),
            ("-chi", -CHI),
            ("2pi", 2 * math.pi),
        ],
    )
    def test_accepted_forms(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=1e-15)

    def test_chi_is_arctangent_of_two(self):
        assert parse_angle("chi") == pytest.approx(math.atan(2.0))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "pi/0"])
    def test_non_finite_angles_rejected(self, token):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_angle(token)

    @pytest.mark.parametrize("token", ["pie", "pi/", "two", "", "pi/pi"])
    def test_rejected_forms(self, token):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="angle"):
            parse_angle(token)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_census_passes_with_manifest(self, capsys):
        code, out = run_cli(capsys, "verify", "census")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["command"] == "verify"
        assert manifest["subject"] == "census"
        assert manifest["passed"] is True
        assert set(manifest) >= {
            "command",
            "subject",
            "parameters",
            "version",
            "passed",
            "elapsed_seconds",
            "report",
        }
        assert manifest["report"]["distinct_matrices"] == 40

    def test_dictionary_reports_failure_honestly(self, capsys):
        code, out = run_cli(capsys, "verify", "dictionary")
        assert code == 1
        manifest = json.loads(out)
        assert manifest["passed"] is False
        failing = [e for e in manifest["report"]["entries"] if not e["pass"]]
        assert [e["gate"] for e in failing] == ["fourier_conjugated_CZ(+1)"]

    def test_identities_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "identities")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_unknown_subject_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == USAGE_ERROR

    def test_csv_mode_emits_rows(self, capsys):
        code, out = run_cli(capsys, "verify", "census", "--csv")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert any(line.startswith("distinct_matrices,") for line in lines)
        # not JSON
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_verify_all_contract(self, capsys):
        code, out = run_cli(capsys, "verify", "all")
        assert code == 1
        report = json.loads(out)["report"]
        assert len(report) == 10
        assert list(report) == [s for s in cli.VERIFY_SUBJECTS if s != "all"]
        assert [s for s, sub in report.items() if not sub["passed"]] == ["dictionary"]
        failing = [e for e in report["dictionary"]["report"]["entries"] if not e["pass"]]
        assert [(e["gate"], e["architecture"]) for e in failing] == [
            ("fourier_conjugated_CZ(+1)", "vcMSG")
        ]
        assert failing[0]["deviation"] == pytest.approx(1.0, abs=1e-9)
        t2 = report["theorem2"]["report"]
        assert (t2["candidates"], t2["condition_pass"], t2["balanced"]) == (20736, 384, 384)
        census = report["census"]["report"]
        assert (census["physical_classes"], census["distinct_matrices"]) == (96, 40)
        assert census["multiplicity_histogram"] == {"2": 24, "3": 16}

    @pytest.mark.parametrize(
        "argv",
        [
            ("noise", "--db", "nan"),
            ("noise", "--db", "-1"),
            ("noise", "--db", "inf"),
            ("appendixD", "--grid", "0"),
            ("appendixD", "--grid", "21"),
            ("euler", "--tol", "-1e-3"),
            ("euler", "--tol", "nan"),
        ],
    )
    def test_out_of_range_parameters_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            main(["verify", *argv])
        assert err.value.code == USAGE_ERROR

    def test_appendixD_default_grid_report(self, capsys):
        code, out = run_cli(capsys, "verify", "appendixD")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["nontrivial_points"] == 9**4 + 10000 - 9
        assert report["min_max_offdiagonal"] == pytest.approx(0.0902451297750577, rel=1e-12)
        assert report["no_completion_exists"]

    def test_library_value_error_is_precondition_error(self, capsys):
        code, out = run_cli(capsys, "verify", "noise", "--db", "4000")
        assert code == PRECONDITION_ERROR
        assert "float range" in json.loads(out)["error"]

    def test_seed_recorded_in_parameters(self, capsys):
        code, out = run_cli(capsys, "verify", "insertion", "--seed", "42")
        assert code == 0
        assert json.loads(out)["parameters"]["seed"] == 42


class TestGateCommand:
    def test_swap_row_is_matched(self, capsys):
        code, out = run_cli(capsys, "gate", "QRL", "0", "pi/2", "pi/2", "0")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["dictionary_match"] == "SWAP"
        mat = np.asarray(manifest["symplectic"])
        assert mat.shape == (4, 4)

    def test_native_msg_angles_match_dressed_gate(self, capsys):
        # a leading "--" keeps argparse from reading "-chi" as a flag
        code, out = run_cli(capsys, "gate", "MSG", "--", "-chi", "0", "0", "chi")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["architecture"] == "vcMSG"
        assert manifest["dictionary_match"] == "fourier_dressed_CZ(-1)"

    def test_displacement_map_is_linear_rule(self, capsys):
        code, out = run_cli(capsys, "gate", "QRL", "pi/2", "0", "pi/2", "0")
        assert code == 0
        manifest = json.loads(out)
        dmap = np.asarray(manifest["displacement_map"])
        assert dmap.shape == (4, 4)
        assert np.isfinite(dmap).all()

    def test_restriction_violation_is_precondition_error(self, capsys):
        code, out = run_cli(capsys, "gate", "MSG", "0.1", "0.2", "0.3", "0.4")
        assert code == PRECONDITION_ERROR
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command", ["gate", "simulate"])
    def test_disagreeing_v_gate_forms_are_precondition_error(self, capsys, command):
        code, out = run_cli(capsys, command, "QRL", "0", "5.960464477539063e-08", "0", "0")
        assert code == PRECONDITION_ERROR
        assert "V-gate forms disagree" in json.loads(out)["error"]

    def test_mbsl_has_no_virtual_gate(self, capsys):
        code, out = run_cli(capsys, "gate", "MBSL", "0.5", "0.5", "0.5", "0.5")
        assert code == PRECONDITION_ERROR
        assert "kind" in json.loads(out)["error"]

    def test_angle_tokens_parsed(self, capsys):
        code, out = run_cli(capsys, "gate", "QRL", "--", "pi/2", "chi", "pi/2", "-chi")
        assert code == 0
        angles = json.loads(out)["angles"]
        assert angles[1] == pytest.approx(CHI)


class TestSimulateCommand:
    def test_identity_teleportation_manifest(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "QRL",
            "pi/2",
            "0",
            "pi/2",
            "0",
            "--db",
            "60",
            "--outcomes",
            "0,0,0,0",
            "--mean",
            "1,0,-1,0.5",
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["command"] == "simulate"
        assert np.abs(np.asarray(manifest["output_mean"]) - [1, 0, -1, 0.5]).max() < 1e-4

    def test_seeded_run_is_deterministic(self, capsys):
        args = ("simulate", "QRL", "pi/2", "0", "pi/2", "0", "--seed", "9")
        code_a, out_a = run_cli(capsys, *args)
        code_b, out_b = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert json.loads(out_a)["raw_outcomes"] == json.loads(out_b)["raw_outcomes"]

    def test_mbsl_refused(self, capsys):
        code, out = run_cli(capsys, "simulate", "MBSL", "0.5", "0.5", "0.5", "0.5")
        assert code == PRECONDITION_ERROR

    def test_unrepresentable_squeezing_prints_no_state(self, capsys):
        code, out = run_cli(capsys, "simulate", "QRL", "pi/2", "0", "pi/2", "0", "--db", "400")
        assert code == PRECONDITION_ERROR
        assert set(json.loads(out)) == {"error"}

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--outcomes", "0,0,0"),
            ("--outcomes", "0,0,0,0,0"),
            ("--outcomes", "0,nan,0,0"),
            ("--mean", "1,2"),
            ("--mean", "1,2,inf,4"),
            ("--mean", "1,2,x,4"),
            ("--db", "nan"),
        ],
    )
    def test_bad_vectors_and_levels_are_usage_errors(self, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "QRL", "pi/2", "0", "pi/2", "0", flag, value])
        assert err.value.code == USAGE_ERROR

    def test_nan_gate_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gate", "QRL", "nan", "0", "pi/2", "0"])
        assert err.value.code == USAGE_ERROR

    def test_bad_angle_token_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "QRL", "bogus", "0", "0", "0"])
        assert err.value.code == USAGE_ERROR


class TestSubjectsEndToEnd:
    """Each verification subject runs standalone and reports its verdict."""

    @pytest.mark.parametrize(
        "subject", [s for s in cli.VERIFY_SUBJECTS if s not in ("all", "dictionary")]
    )
    def test_subject_passes(self, capsys, subject):
        code, out = run_cli(capsys, "verify", subject)
        manifest = json.loads(out)
        assert code == 0, manifest
        assert manifest["passed"] is True

    def test_gate_name_normalization(self):
        assert cli._normalize_gate_name("BSL") == "vcBSL"
        assert cli._normalize_gate_name("cBSL") == "cBSL"
        assert cli._normalize_gate_name("QRL") == "QRL"
