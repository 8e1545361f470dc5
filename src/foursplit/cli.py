"""Command-line interface: verification subjects, gate queries, gadget runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 violated
precondition (restriction or singular angles) or a result that is not finite.
Every manifest is strict JSON: it never holds NaN or an infinity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__, gates, hadamard, networks, sim, zoo
from .gates import MAX_ANGLE

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
    if abs(value) > MAX_ANGLE:
        raise argparse.ArgumentTypeError(
            f"angle {token!r} exceeds {MAX_ANGLE:g} rad in magnitude and carries no usable phase"
        )
    return value


def _normalize_gate_name(name: str) -> str:
    """Bare incomplete architecture names run as their virtual completions."""
    arch = zoo.ARCHITECTURES.get(name)
    if arch is not None and arch.completed_by is not None:
        return "vc" + name
    return name


# -- verify subjects ----------------------------------------------------------


def _subject_theorem1(args: argparse.Namespace) -> tuple[bool, dict]:
    keys = hadamard.enumerate_sign_orthogonal(4)
    members = hadamard.from_keys(keys)
    even = int((hadamard.class_parities(members) == 0).sum())
    odd = len(keys) - even
    drawn = np.random.default_rng(args.seed).choice(len(keys), size=10, replace=False)
    seeds = np.concatenate([hadamard.to_array(hadamard.seed_matrix())[None], members[drawn]])
    matches = [np.array_equal(generated, keys) for generated in hadamard.generated_keys(seeds)]
    report = {
        "class_size": len(keys),
        "even": even,
        "odd": odd,
        "generation_matches": matches[0],
        "seed_independent": all(matches[1:]),
    }
    passed = len(keys) == 768 and even == odd == 384 and all(matches)
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
    for name in zoo.architecture_names():
        if name == "QRL" or zoo.architecture(name).gate_slots is None:
            continue
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
    mapped = [(row, arch, angles) for row, arch, angles in gates.dictionary_rows() if arch != "QRL"]
    deviations = sim.noise_deviations(
        [("QRL", row["angles"], arch, angles) for row, arch, angles in mapped], db
    )
    worst = max([0.0, *deviations])
    rows = [
        {"gate": row["gate"], "pair": ["QRL", arch], "db": db, "deviation": dev, "pass": dev <= tol}
        for (row, arch, _), dev in zip(mapped, deviations)
    ]
    completions = [
        {**rep.to_json_dict(), "pass": rep.mean_deviation <= tol and rep.cov_deviation <= tol}
        for rep in sim.completion_experiments(sim.COMPLETION_CASES, db, seed=args.seed)
    ]
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
    print(json.dumps({"error": str(exc)}, ensure_ascii=False, allow_nan=False))
    return PRECONDITION_ERROR


@contextlib.contextmanager
def _finite_floats() -> Iterator[None]:
    """Turn a floating-point overflow, invalid operation or division by
    zero into a ValueError, before it can become an inf or a NaN."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"result is not finite: {exc}") from None


def _print_manifest(manifest: dict, args: argparse.Namespace | None = None, code: int = 0) -> int:
    """Print a manifest, as JSON or as CSV rows under ``--csv``, and return
    ``code``; a manifest with a number that is not finite prints only an
    error manifest and returns the precondition exit code."""
    try:
        text = json.dumps(manifest, ensure_ascii=False, indent=2, allow_nan=False)
    except ValueError as exc:
        return _precondition_error(ValueError(f"result is not finite: {exc}"))
    if getattr(args, "csv", False):
        _emit_csv(manifest["report"])
    else:
        print(text)
    return code


def _run_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    results, subject_seconds = {}, {}
    try:
        for name in SUBJECT_RUNNERS if args.subject == "all" else (args.subject,):
            t0 = time.perf_counter()
            results[name] = SUBJECT_RUNNERS[name](args)
            subject_seconds[name] = round(time.perf_counter() - t0, 6)
    except ValueError as exc:
        return _precondition_error(exc)
    if args.subject == "all":
        passed = all(sub_pass for sub_pass, _ in results.values())
        report = {name: {"passed": p, "report": r} for name, (p, r) in results.items()}
    else:
        passed, report = results[args.subject]
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
        "versions": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__},
        "passed": passed,
        "elapsed_seconds": round(time.perf_counter() - start, 3),
        "subject_seconds": subject_seconds,
        "report": report,
    }
    return _print_manifest(manifest, args, 0 if passed else 1)


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
        with _finite_floats():
            gate = gates.two_mode_gate(name, args.angles)
            manifest = {
                "command": "gate",
                "architecture": name,
                "angles": list(gate.angles),
                "version": __version__,
                "symplectic": np.round(gate.op.matrix, 12).tolist(),
                "displacement_map": np.round(gate.D, 12).tolist(),
                "parity_on_output": gate.layout.parity_on_output,
                "dictionary_match": gates.dictionary_match(gate.op),
            }
    except (ValueError, KeyError) as exc:
        return _precondition_error(exc)
    return _print_manifest(manifest)


def _run_simulate(args: argparse.Namespace) -> int:
    name = _normalize_gate_name(args.architecture)
    input_state = None
    if args.mean is not None:
        input_state = sim.GaussianState(2, np.asarray(args.mean), 0.5 * np.eye(4))
    try:
        with _finite_floats():
            result = sim.simulate_gadget(
                name,
                args.angles,
                args.db if args.db is not None else 10.0,
                input_state=input_state,
                outcomes=args.outcomes,
                seed=args.seed,
                orientation=args.orientation,
            )
            manifest = {
                "command": "simulate",
                "version": __version__,
                "seed": args.seed,
                **result.to_json_dict(),
            }
    except (ValueError, KeyError) as exc:
        return _precondition_error(exc)
    return _print_manifest(manifest)


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
