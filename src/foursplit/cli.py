"""Command-line interface: verification subjects, gate queries, gadget runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 violated
precondition (restriction or singular angles).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from typing import Callable, Sequence

import numpy as np

from . import __version__, gates, hadamard, networks, sim, zoo

VERIFY_SUBJECTS = (
    "theorem1",
    "theorem2",
    "census",
    "equivalences",
    "dictionary",
    "identities",
    "euler",
    "appendixD",
    "insertion",
    "noise",
    "all",
)

USAGE_ERROR, PRECONDITION_ERROR = 2, 3

_PI_TOKEN = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?pi(?:/(\d+(?:\.\d*)?))?$")


def parse_angle(token: str) -> float:
    """Radians, `chi` (arctan 2), or pi fractions like `pi/2` and `-3pi/4`."""
    text = token.strip().lower()
    if text in ("chi", "+chi", "-chi"):
        return gates.CHI if not text.startswith("-") else -gates.CHI
    match = _PI_TOKEN.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coef = float(match.group(2)) if match.group(2) else 1.0
        denom = float(match.group(3)) if match.group(3) else 1.0
        value = sign * coef * math.pi / denom if denom else math.inf
    else:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {token!r} is not finite")
    return value


def _normalize_gate_name(name: str) -> str:
    """Bare incomplete architecture names run as their virtual completions."""
    if name in ("BSL", "DBSL", "MSG", "MBSL"):
        return "vc" + name
    return name


# -- verify subjects ----------------------------------------------------------


def _subject_theorem1(args: argparse.Namespace) -> tuple[bool, dict]:
    enumerated = hadamard.enumerate_hadamard4()
    even = sum(1 for h in enumerated if hadamard.class_parity(h) == 0)
    odd = len(enumerated) - even
    generated = hadamard.generate_class()
    rng = np.random.default_rng(args.seed)
    members = sorted(enumerated)
    seeds_ok = True
    for idx in rng.choice(len(members), size=10, replace=False):
        if hadamard.generate_class(seed=members[idx]) != enumerated:
            seeds_ok = False
    report = {
        "class_size": len(enumerated),
        "even": even,
        "odd": odd,
        "generation_matches": generated == enumerated,
        "seed_independent": seeds_ok,
    }
    passed = (
        len(enumerated) == 768
        and even == odd == 384
        and report["generation_matches"]
        and seeds_ok
    )
    return passed, report


def _subject_theorem2(args: argparse.Namespace) -> tuple[bool, dict]:
    rep = networks.verify_theorem2()
    passed = (
        rep.equivalence_holds
        and rep.candidate_count == 20736
        and rep.balanced_count == 384
    )
    return passed, rep.to_json_dict()


def _subject_census(args: argparse.Namespace) -> tuple[bool, dict]:
    rep = networks.physical_census()
    report = rep.to_json_dict()
    report.pop("representatives", None)
    passed = (
        rep.physical_class_count == 96
        and rep.distinct_matrix_count == 40
        and rep.multiplicity_histogram == {2: 24, 3: 16}
    )
    return passed, report


def _subject_equivalences(args: argparse.Namespace) -> tuple[bool, dict]:
    reference = zoo.architecture_matrix("QRL")
    rows = []
    for name in ("cBSL", "cDBSL", "cMSG", "cMBSL"):
        preferred, solutions = zoo.qrl_decomposition(name)
        exact = preferred.apply(reference) == zoo.architecture_matrix(name)
        rows.append(
            {
                "architecture": name,
                "row_perm": list(preferred.row_perm),
                "row_negations": list(preferred.row_negations),
                "col_negations": list(preferred.col_negations),
                "exact": exact,
                "solutions": len(solutions),
            }
        )
    same = zoo.architecture_matrix("cMSG") == zoo.architecture_matrix("cBSL")
    kinds = {
        name: zoo.classify_incompleteness(zoo.architecture_matrix(name))
        for name in zoo.architecture_names()
    }
    declared = {name: zoo.architecture(name).declared_kind for name in zoo.architecture_names()}
    passed = all(r["exact"] for r in rows) and same and kinds == declared
    return passed, {"decompositions": rows, "cMSG_equals_cBSL": same, "kinds": kinds}


def _subject_dictionary(args: argparse.Namespace) -> tuple[bool, dict]:
    rep = gates.verify_dictionary(tol=args.tol if args.tol is not None else 1e-10)
    return rep.all_pass, rep.to_json_dict()


def _subject_identities(args: argparse.Namespace) -> tuple[bool, dict]:
    rep = gates.verify_circuit_identities(
        tol=args.tol if args.tol is not None else 1e-12
    )
    return rep.all_pass, rep.to_json_dict()


def _subject_euler(args: argparse.Namespace) -> tuple[bool, dict]:
    tol = args.tol if args.tol is not None else 1e-12
    grid = np.linspace(-1.3, 2.9, 7)
    report = {**gates.euler_round_trip(grid, grid), "tol": tol}
    passed = report["reconstruction_worst"] <= tol and report["balanced_pair_deviation"] <= tol
    return passed, report


def _subject_appendixD(args: argparse.Namespace) -> tuple[bool, dict]:
    residual = zoo.residual_analysis("MBSL", "cMBSL")
    rep = zoo.no_virtual_completion_scan(
        residual.residual,
        grid_points=args.grid if args.grid is not None else 9,
        random_points=10000,
        tol=args.tol if args.tol is not None else 1e-6,
        seed=args.seed,
    )
    report = {
        "residual_zero_entries": residual.zero_entries,
        "nontrivial_points": rep.nontrivial_points,
        "min_max_offdiagonal": rep.min_max_offdiagonal,
        "uniform_max_offdiagonal": rep.uniform_max_offdiagonal,
        "tol": rep.tol,
        "no_completion_exists": rep.no_completion_exists,
    }
    return rep.no_completion_exists and residual.zero_entries == 0, report


def _subject_insertion(args: argparse.Namespace) -> tuple[bool, dict]:
    rep = zoo.bell_pair_insertion_identity()
    report = {
        "identity_holds": rep.identity_holds,
        "negative_control_differs": rep.negative_control_differs,
        "swap_lemma_holds": rep.swap_lemma_holds,
    }
    return all(report.values()), report


def _subject_noise(args: argparse.Namespace) -> tuple[bool, dict]:
    db = args.db if args.db is not None else 10.0
    tol = args.tol if args.tol is not None else 1e-9
    rows = []
    worst = 0.0
    for row, arch, angles in gates.dictionary_rows():
        if arch == "QRL":
            continue
        dev = sim.noise_compare("QRL", row["angles"], arch, angles, db)
        worst = max(worst, dev)
        rows.append(
            {
                "gate": row["gate"],
                "pair": ["QRL", arch],
                "db": db,
                "deviation": dev,
                "pass": dev <= tol,
            }
        )
    completions = []
    for incomplete, completed, angles in sim.COMPLETION_CASES:
        rep = sim.virtual_completion_experiment(incomplete, completed, angles, db, seed=args.seed)
        completions.append(
            {
                **rep.to_json_dict(),
                "pass": rep.mean_deviation <= tol and rep.cov_deviation <= tol,
            }
        )
    try:
        sim.virtual_completion_experiment(*sim.REFUSED_COMPLETION, db)
        mbsl_refused = False
    except ValueError:
        mbsl_refused = True
    passed = (
        worst <= tol and all(c["pass"] for c in completions) and mbsl_refused
    )
    report = {
        "db": db,
        "tol": tol,
        "max_deviation": worst,
        "mapped_pairs": rows,
        "completions": completions,
        "mbsl_refused": mbsl_refused,
    }
    return passed, report


SUBJECT_RUNNERS: dict[str, Callable[[argparse.Namespace], tuple[bool, dict]]] = {
    "theorem1": _subject_theorem1,
    "theorem2": _subject_theorem2,
    "census": _subject_census,
    "equivalences": _subject_equivalences,
    "dictionary": _subject_dictionary,
    "identities": _subject_identities,
    "euler": _subject_euler,
    "appendixD": _subject_appendixD,
    "insertion": _subject_insertion,
    "noise": _subject_noise,
}


def _precondition_error(exc: Exception) -> int:
    print(json.dumps({"error": str(exc)}, ensure_ascii=False))
    return PRECONDITION_ERROR


def _run_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        if args.subject == "all":
            passed, report = True, {}
            for name, runner in SUBJECT_RUNNERS.items():
                sub_pass, sub_report = runner(args)
                passed = passed and sub_pass
                report[name] = {"passed": sub_pass, "report": sub_report}
        else:
            passed, report = SUBJECT_RUNNERS[args.subject](args)
    except ValueError as exc:
        return _precondition_error(exc)
    manifest = {
        "command": "verify",
        "subject": args.subject,
        "parameters": {
            "seed": args.seed,
            "db": args.db,
            "grid": args.grid,
            "tol": args.tol,
        },
        "version": __version__,
        "passed": passed,
        "elapsed_seconds": round(time.perf_counter() - start, 3),
        "report": report,
    }
    _emit(manifest, args)
    return 0 if passed else 1


def _emit(manifest: dict, args: argparse.Namespace) -> None:
    if getattr(args, "csv", False):
        _emit_csv(manifest["report"])
    else:
        print(json.dumps(manifest, ensure_ascii=False, indent=2))


def _emit_csv(report: dict) -> None:
    """Flat key,value rows; list-of-dict sections become one row per entry."""
    writer = sys.stdout
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                cells = [key] + [f"{k}={entry[k]}" for k in entry]
                writer.write(",".join(str(c) for c in cells) + "\n")
        else:
            writer.write(f"{key},{json.dumps(value, ensure_ascii=False)}\n")


# -- gate and simulate commands -----------------------------------------------


def _run_gate(args: argparse.Namespace) -> int:
    name = _normalize_gate_name(args.architecture)
    try:
        gate = gates.two_mode_gate(name, args.angles)
    except (ValueError, KeyError) as exc:
        return _precondition_error(exc)
    outcome_map = np.column_stack(
        [gate.displacement([1.0 if i == j else 0.0 for i in range(4)]) for j in range(4)]
    )
    arch = gates.resolve_gate_architecture(name)[0]
    manifest = {
        "command": "gate",
        "architecture": name,
        "angles": list(gate.angles),
        "version": __version__,
        "symplectic": np.round(gate.op.matrix, 12).tolist(),
        "displacement_map": np.round(outcome_map, 12).tolist(),
        "parity_on_output": arch.parity_on_output,
        "dictionary_match": gates.dictionary_match(gate.op),
    }
    print(json.dumps(manifest, ensure_ascii=False, indent=2))
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    name = _normalize_gate_name(args.architecture)
    input_state = None
    if args.mean is not None:
        input_state = sim.GaussianState(2, np.asarray(args.mean), 0.5 * np.eye(4))
    outcomes = args.outcomes
    try:
        result = sim.simulate_gadget(
            name,
            args.angles,
            args.db if args.db is not None else 10.0,
            input_state=input_state,
            outcomes=outcomes,
            seed=args.seed,
            orientation=args.orientation,
        )
    except (ValueError, KeyError) as exc:
        return _precondition_error(exc)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "seed": args.seed,
        **result.to_json_dict(),
    }
    print(json.dumps(manifest, ensure_ascii=False, indent=2))
    return 0


def _four_floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",")]
    if len(values) != 4 or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"need exactly four finite numbers, got {text!r}")
    return values


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite number >= 0, got {text!r}")
    return value


def _grid_points(text: str) -> int:
    value = int(text)
    if not 1 <= value <= zoo.MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"need an integer in 1..{zoo.MAX_GRID_POINTS}, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foursplit",
        description="Balanced four-splitter verification and gadget simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification subject")
    verify.add_argument("subject", choices=VERIFY_SUBJECTS)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--db", type=_nonnegative_float, default=None, help="ancilla squeezing in dB")
    verify.add_argument("--grid", type=_grid_points, default=None,
                        help=f"grid points per angle, at most {zoo.MAX_GRID_POINTS}")
    verify.add_argument("--tol", type=_nonnegative_float, default=None)
    verify.add_argument("--csv", action="store_true", help="flat CSV rows instead of JSON")
    verify.set_defaults(func=_run_verify)

    gate = sub.add_parser("gate", help="teleported gate for an architecture and angles")
    gate.add_argument("architecture")
    gate.add_argument("angles", nargs=4, type=parse_angle, metavar="THETA")
    gate.set_defaults(func=_run_gate)

    simulate = sub.add_parser("simulate", help="run the six-mode gadget")
    simulate.add_argument("architecture")
    simulate.add_argument("angles", nargs=4, type=parse_angle, metavar="THETA")
    simulate.add_argument("--db", type=_nonnegative_float, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--outcomes", type=_four_floats, default=None,
                          help="fix the four homodyne outcomes, comma separated")
    simulate.add_argument("--mean", type=_four_floats, default=None,
                          help="input mean (q1,q2,p1,p2), comma separated")
    simulate.add_argument("--orientation", choices=sorted(sim.ORIENTATIONS),
                          default=sim.DEFAULT_ORIENTATION)
    simulate.set_defaults(func=_run_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
