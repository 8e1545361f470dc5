"""One process of an in-process workload: set up, then ops in a closed loop.

    PYTHONPATH=src python perfbench/worker.py --workload gadget_oracle --seed 1 --seconds 10

Imports ``foursplit`` and ``foursplit.cli``, runs the workload's untimed
warm-up ops and prints ``ready``; everything from the spawn up to that line
is set-up.  Then it generates the seeded inputs, runs one op after another
for ``--seconds`` (at least one op) with the reference kernel between them,
and prints one JSON line with the op times, the kernel's times and the
checks.  With ``--spans PATH`` the first half of the time runs untraced and
the second half under the tracing wrappers, whose spans go to PATH.
``--setup-only`` stops after ``ready``; it is the only mode for
``verify_all``, whose ops are CLI processes of their own.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import foursplit
import foursplit.cli  # noqa: F401  (set-up loads the CLI module, as users do)
import inputs
from foursplit import gates, sim
from reference import Reference

ORACLE_TOL = 1e-4
SAMPLE_TOL = 1e-9
OPS_PER_SECOND_OF_INPUT = 1000  # pool size per second of run; ~8x today's fastest workload
MAX_ERRORS_KEPT = 5


def run_op(op: inputs.Op) -> tuple[float, float]:
    """Run one check; return (deviation, tolerance)."""
    if op.kind == "oracle":
        extracted = sim.extracted_gate_matrix(op.arch, op.angles, op.db)
        expected = gates.two_mode_gate(op.arch, op.angles).op.matrix
        return float(np.abs(extracted - expected).max()), ORACLE_TOL
    if op.kind == "completion":
        rep = sim.virtual_completion_experiment(
            op.arch, "c" + op.arch, op.angles, op.db, seed=op.seed
        )
        return max(rep.mean_deviation, rep.cov_deviation), SAMPLE_TOL
    mapped = inputs.mapped_angles(op.arch, op.angles)
    return sim.noise_compare("QRL", op.angles, op.arch, mapped, op.db), SAMPLE_TOL


class Loop:
    """Closed loop over a pool: one op at a time, timed one by one."""

    def __init__(self, pool: inputs.Pool) -> None:
        self.pool = pool
        self.next = 0
        self.failed = 0
        self.max_dev = 0.0
        self.errors: list[str] = []
        self.arch_keys: list[tuple[str, str]] = []
        self.angle_keys: list[tuple[float, ...]] = []

    def run(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Op times of one phase, and the reference kernel's times between them."""
        times: list[float] = []
        reference = Reference()
        op_total = 0.0
        start = time.perf_counter()
        while self.next < len(self.pool) and (
            not times or time.perf_counter() - start < seconds
        ):
            if times:
                reference.keep_up(op_total)
            op = self.pool.op(self.next)
            if tracer is not None:
                tracer.op_id = self.next
            t0 = time.perf_counter()
            try:
                dev, tol = run_op(op)
            except Exception as exc:  # any exception is a failed op, kept for the record
                dev, tol = float("nan"), 0.0
                if len(self.errors) < MAX_ERRORS_KEPT:
                    self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            op_total += times[-1]
            if dev == dev:
                self.max_dev = max(self.max_dev, dev)
            if not dev <= tol:
                self.failed += 1
                if dev == dev and len(self.errors) < MAX_ERRORS_KEPT:
                    self.errors.append(f"{op}: deviation {dev:.3e} above {tol:.0e}")
            self.arch_keys.append((op.kind, op.arch))
            self.angle_keys.append(op.angles)
            self.next += 1
        reference.keep_up(op_total)
        return times, reference.times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify_all", *inputs.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    for op in inputs.WARMUP.get(args.workload, ()):
        run_op(op)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.workload not in inputs.POOLS:
        parser.error(f"{args.workload} ops run as CLI processes; use --setup-only")

    pool = inputs.POOLS[args.workload](args.seed, max(64, int(args.seconds * OPS_PER_SECOND_OF_INPUT)))
    loop = Loop(pool)
    result: dict = {"package_file": foursplit.__file__}
    if args.spans is None:
        result["op_s"], result["ref_s"] = loop.run(args.seconds)
    else:
        import tracing

        result["op_s"], result["ref_s"] = loop.run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["traced_op_s"], result["traced_ref_s"] = loop.run(args.seconds / 2, tracer)
        tracer.dump(args.spans)
    result.update(
        failed=loop.failed,
        max_dev=loop.max_dev,
        errors=loop.errors,
        pool_size=len(pool),
        pool_exhausted=loop.next >= len(pool),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **inputs.repeat_shares(loop.arch_keys, loop.angle_keys),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
