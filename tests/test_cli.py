"""Command line interface: angle parsing, exit codes, output formats."""

import contextlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

    @pytest.mark.parametrize("token", ["1e308", "-1e7", "1000000.5", "400000pi", "-1e300"])
    def test_angles_without_usable_phase_rejected(self, token):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="no usable phase"):
            parse_angle(token)

    def test_largest_angle_accepted(self):
        assert parse_angle("1e6") == 1e6
        assert parse_angle("-1e6") == -1e6

    @pytest.mark.parametrize("token", ["pie", "pi/", "two", "", "pi/pi"])
    def test_rejected_forms(self, token):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="angle"):
            parse_angle(token)


def strict_json(text):
    """Parse ``text`` as JSON that holds no NaN or infinity."""

    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the output")

    return json.loads(text, parse_constant=refuse)


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

    @pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["json", "csv"])
    def test_non_finite_report_prints_only_an_error(self, capsys, monkeypatch, csv):
        monkeypatch.setitem(cli.SUBJECT_RUNNERS, "euler", lambda args: (True, {"worst": math.nan}))
        code, out = run_cli(capsys, "verify", "euler", *csv)
        assert code == PRECONDITION_ERROR
        assert "not finite" in strict_json(out)["error"]

    def test_manifest_records_subject_times_and_versions(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--grid", "2")
        manifest = json.loads(out)
        subjects = [s for s in cli.VERIFY_SUBJECTS if s != "all"]
        assert list(manifest["subject_seconds"]) == subjects
        assert all(t >= 0 for t in manifest["subject_seconds"].values())
        assert sum(manifest["subject_seconds"].values()) <= manifest["elapsed_seconds"] + 1e-3
        assert manifest["versions"] == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
        }
        code, out = run_cli(capsys, "verify", "census")
        assert list(json.loads(out)["subject_seconds"]) == ["census"]

    def test_new_manifest_fields_stay_out_of_csv(self, capsys):
        code, out = run_cli(capsys, "verify", "insertion", "--csv")
        assert code == 0
        assert "subject_seconds" not in out and "versions" not in out
        assert out.splitlines()[0].startswith("identity_holds,")

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

    @pytest.mark.parametrize(
        "flag,value",
        [("--outcomes", "1e308,1e308,1e308,1e308"), ("--mean", "1e308,0,0,0")],
        ids=["outcomes", "mean"],
    )
    def test_overflow_prints_only_an_error(self, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "simulate", "QRL", "0", "1", "0", "1", flag, value)
        assert code == PRECONDITION_ERROR
        manifest = strict_json(out)
        assert set(manifest) == {"error"}
        assert manifest["error"].startswith("result is not finite")

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
        assert cli._normalize_gate_name("MBSL") == "vcMBSL"
        assert cli._normalize_gate_name("XYZ") == "XYZ"


# -- the exit-code contract, over argv ------------------------------------------

FINITE_EXTREMES = [
    "1e308", "-1e308", "1.7976931348623157e308", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "-0.0", "0", "1e6", "-1e6", "1e16", "1e300",
]
JUNK = st.sampled_from(["nan", "inf", "-inf", "x", ""])
PI_FORMS = st.builds(
    lambda sign, coef, denom: f"{sign}{coef}pi{denom}",
    st.sampled_from(["", "-", "+"]),
    st.sampled_from(["", "0", "1", "3", "0.5", "2.", "318310"]),
    st.one_of(st.just(""), st.integers(0, 64).map(lambda n: f"/{n}"), st.just("/1.5")),
)
EXTREME = st.one_of(st.sampled_from(FINITE_EXTREMES), st.floats(allow_nan=False, allow_infinity=False).map(repr))


def mostly(usual, *unusual):
    """``usual`` in about four draws of five, otherwise one of ``unusual``."""
    return st.integers(0, 4).flatmap(lambda k: usual if k < 4 else st.one_of(*unusual))


ANGLE = mostly(st.one_of(st.floats(-4.0, 4.0).map(repr), st.just("chi"), st.just("-chi")), PI_FORMS, EXTREME, JUNK)
LEVEL = mostly(st.floats(0.0, 40.0).map(repr), PI_FORMS, EXTREME, JUNK)
COUNT = st.sampled_from([4] * 8 + [3, 5])
VECTOR = COUNT.flatmap(
    lambda n: st.lists(mostly(st.floats(-10.0, 10.0).map(repr), EXTREME, EXTREME, JUNK), min_size=n, max_size=n)
).map(",".join)
SEED = st.one_of(
    st.integers(0, 2**32).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-1", str(2**128), "1.5", "x"]),
)
GATE_NAMES = ["QRL", "cBSL", "cDBSL", "cMSG", "cMBSL", "vcBSL", "vcDBSL", "vcMSG"]
OTHER_NAMES = ["BSL", "DBSL", "MSG", "MBSL", "vcMBSL", "XYZ"]
#: Subjects that take milliseconds once their caches are built.
CHEAP_SUBJECTS = ["theorem2", "census", "dictionary", "identities", "euler", "appendixD",
                  "insertion", "noise"]
#: Subjects that take tens to hundreds of milliseconds, drawn less often.
COSTLY_SUBJECTS = ["theorem1", "all"]
#: Tokens of a number that is not finite, as ``str`` or ``json`` writes it.
NON_FINITE = {"nan", "inf", "-inf", "infinity", "-infinity"}


@st.composite
def command_lines(draw):
    """argv for ``gate``, ``simulate`` or ``verify`` (a cheap subject in
    about four draws of five, with or without ``--csv``): mostly well-formed,
    with finite extremes, pi forms, odd seeds and wrong counts."""
    command = draw(st.sampled_from(["gate", "simulate", "verify"]))
    if command == "verify":
        options = {
            "--seed": SEED,
            "--db": LEVEL,
            "--tol": mostly(st.floats(0.0, 1.0).map(repr), EXTREME, JUNK),
            # a valid grid beyond 3 costs seconds; larger ones are refused
            "--grid": mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["-1", "0", "21", "1e3", "x"])),
        }
        chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=4))
        subject = draw(mostly(st.sampled_from(CHEAP_SUBJECTS), st.sampled_from(COSTLY_SUBJECTS)))
        csv = ["--csv"] if draw(st.booleans()) else []
        return ["verify", subject] + csv + [f"{flag}={draw(options[flag])}" for flag in chosen]
    argv = [command]
    if command == "simulate":
        options = {
            "--db": LEVEL,
            "--seed": SEED,
            "--outcomes": VECTOR,
            "--mean": VECTOR,
            "--orientation": mostly(st.sampled_from(["pq", "qp"]), st.just("xy")),
        }
        chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5))
        argv += [f"{flag}={draw(options[flag])}" for flag in chosen]
    name = draw(st.one_of(st.sampled_from(GATE_NAMES), st.sampled_from(GATE_NAMES), st.sampled_from(OTHER_NAMES)))
    angles = draw(COUNT.flatmap(lambda n: st.lists(ANGLE, min_size=n, max_size=n)))
    return argv + ["--", name] + angles


@given(command_lines())
@example(["simulate", "--outcomes=1e308,1e308,1e308,1e308", "--", "QRL", "0", "1", "0", "1"])
@example(["simulate", "--mean=1e308,0,0,0", "--", "QRL", "0", "1", "0", "1"])
@example(["gate", "--", "QRL", "1e308", "0", "0", "0"])
@example(["verify", "all", "--csv", "--grid=2"])
@settings(max_examples=150, deadline=None)
def test_every_command_line_exits_cleanly_with_strict_json(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, USAGE_ERROR, PRECONDITION_ERROR), argv
    if code == USAGE_ERROR:
        assert stdout.getvalue() == "", argv
    elif "--csv" in argv and code in (0, 1):
        rows = stdout.getvalue().splitlines()
        assert rows and all(rows), argv
        tokens = {t.lower() for row in rows for t in re.split(r"[\s,=:\[\]{}\"]+", row)}
        assert not tokens & NON_FINITE, argv
    else:
        strict_json(stdout.getvalue())
