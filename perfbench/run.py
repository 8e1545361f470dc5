"""foursplit benchmark: one workload per run, measured from outside the package.

    python3 perfbench/run.py --workload gadget_oracle --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src``.
Workloads, all closed loops with one client:

- ``verify_all``: each op is a fresh process running ``foursplit verify all``
  (``cli_op.py``), with its own seeded ``--seed``, checked against the
  expected manifest (the deliberate criterion-8 dictionary failure included).
- ``gadget_oracle``: each op is a criterion-11 style check of the extracted
  gadget matrix against the predicted gate (tolerance 1e-4), in one process.
- ``gadget_sample``: each op is a virtual-completion experiment or a mapped
  dictionary row's noise comparison (tolerance 1e-9), in one process.

``--trace 0`` reports the end-to-end metrics: set-up time, peak RSS, and op
throughput and median op time in units of a reference kernel timed between
the ops (``reference.py``), which cancels most of a shared machine's speed
drift; the raw timings and the tail go to the run record.  ``--trace 1``
runs half the time untraced and half under the tracing wrappers of
``tracing.py`` and reports the per-layer metrics.  ``--smoke`` shortens a
run to one op per phase and one set-up sample.  The last line of stdout is
the JSON result; the run record is written to
``.perfbench_out/<run>/record.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify_all", "gadget_oracle", "gadget_sample")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
OP_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not measure: the package is missing or a process broke."""


# -- the run record -----------------------------------------------------------


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    """BLAS build and the thread count OpenBLAS reports in this process, whose
    environment the program's processes inherit."""
    import ctypes

    import numpy

    info: dict = {
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    info["threads"] = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(root: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }


# -- statistics ---------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum (percentile 100) when there are too few samples."""
    ordered = sorted(times)
    keep = len(ordered) - TAIL_BEYOND
    if keep < 1:
        return ordered[-1], 100.0
    return ordered[keep - 1], 100.0 * keep / len(ordered)


# -- processes ----------------------------------------------------------------


class Runner:
    """Spawns the package's processes from one checkout and times them."""

    def __init__(self, root: str, run_dir: str) -> None:
        self.root = root
        self.run_dir = run_dir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

    def worker(self, workload: str, *extra: str, timeout: float) -> tuple[float, str]:
        """Run worker.py; return (seconds from spawn to its ``ready`` line,
        the rest of its stdout)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, *extra]
        log_path = os.path.join(self.run_dir, "worker.log")
        with open(log_path, "a", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=log, text=True)
            try:
                first = proc.stdout.readline()
                ready_s = time.perf_counter() - t0
                rest = proc.stdout.read()
                code = proc.wait(timeout=timeout)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if first != "ready\n" or code != 0:
            with open(log_path, encoding="utf-8") as log:
                detail = log.read()[-2000:]
            raise BenchError(f"worker {' '.join(extra)} for {workload} exited {code}: {detail}")
        return ready_s, rest

    def setup_samples(self, workload: str, count: int) -> list[float]:
        return [self.worker(workload, "--setup-only", timeout=OP_TIMEOUT_S)[0] for _ in range(count)]

    def cli(self, argv: list[str], spans: str | None = None) -> tuple[float, list[float], int, str]:
        """One CLI process, traced when ``spans`` is given: (wall s less the
        reference kernel's time, the kernel's times, exit code, stdout)."""
        ref_path = os.path.join(self.run_dir, "reference.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_op.py"), ref_path, spans or "-", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        try:
            with open(ref_path, encoding="utf-8") as fh:
                ref = json.load(fh)
            os.remove(ref_path)
        except (OSError, ValueError):
            raise BenchError(f"verify op {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}") from None
        return wall - sum(ref), ref, proc.returncode, proc.stdout


# -- verify_all ---------------------------------------------------------------


def check_verify_all(returncode: int, stdout: str) -> tuple[list[str], float]:
    """Problems with one ``verify all`` manifest, and its largest deviation
    among the checks that pass.

    The expected output fails exactly one check: the dictionary's stated
    native MSG row (criterion 8), by about 1.0.  That is the correct result.
    """
    try:
        report = json.loads(stdout)["report"]
    except (ValueError, KeyError, TypeError):
        return [f"exit code {returncode}, output is not a verify manifest"], math.nan
    problems = []
    if returncode != 1:
        problems.append(f"exit code {returncode}, expected 1")
    try:
        if sorted(report) != sorted(tracing.SUBJECTS):
            problems.append(f"subjects {sorted(report)}")
        failing = sorted(name for name, sub in report.items() if not sub["passed"])
        if failing != ["dictionary"]:
            problems.append(f"failing subjects {failing}, expected only dictionary")
        entries = report["dictionary"]["report"]["entries"]
        bad = [e for e in entries if not e["pass"]]
        if not (
            len(bad) == 1
            and bad[0]["gate"] == "fourier_conjugated_CZ(+1)"
            and bad[0]["architecture"] == "vcMSG"
            and abs(bad[0]["deviation"] - 1.0) <= 1e-6
        ):
            problems.append(f"failing dictionary entries {bad}")
        t2 = report["theorem2"]["report"]
        if (t2["candidates"], t2["condition_pass"], t2["balanced"]) != (20736, 384, 384):
            problems.append(f"theorem2 {t2}")
        census = report["census"]["report"]
        if (census["physical_classes"], census["distinct_matrices"], census["multiplicity_histogram"]) != (
            96, 40, {"2": 24, "3": 16}
        ):
            problems.append(f"census {census}")
        noise = report["noise"]["report"]
        devs = [e["deviation"] for e in entries if e["pass"]]
        devs.append(noise["max_deviation"])
        devs += [c[k] for c in noise["completions"] for k in ("mean_deviation", "cov_deviation")]
        max_dev = max(devs)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"manifest lacks {exc!r}")
        max_dev = math.nan
    return problems, max_dev


def run_verify_all(runner: Runner, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    out: dict = {"setup_s": [] if trace else runner.setup_samples("verify_all", setups)}
    seeds = iter(inputs.verify_seeds(seed, 100000))
    failed, max_dev, errors, span_files = 0, 0.0, [], []

    def phase(duration: float, traced: bool) -> tuple[list[float], list[float]]:
        nonlocal failed, max_dev
        times: list[float] = []
        refs: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < duration:
            argv = ["verify", "all", "--seed", str(next(seeds))]
            spans = None
            if traced:
                spans = os.path.join(runner.run_dir, f"spans-{len(span_files)}.json")
                span_files.append(spans)
            op_s, ref_s, code, stdout = runner.cli(argv, spans)
            times.append(op_s)
            refs += ref_s
            problems, dev = check_verify_all(code, stdout)
            if problems:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{' '.join(argv)}: {'; '.join(problems)}")
            if dev == dev:
                max_dev = max(max_dev, dev)
        return times, refs

    out["op_s"], out["ref_s"] = phase(seconds / 2 if trace else seconds, False)
    if trace:
        out["traced_op_s"], out["traced_ref_s"] = phase(seconds / 2, True)
        out["spans"] = tracing.load(span_files)
    n = len(out["op_s"]) + len(out.get("traced_op_s", ()))
    # Every op runs the same registry, tables and checks; only the CLI seed differs.
    out.update(
        failed=failed,
        max_dev=max_dev,
        errors=errors,
        arch_reuse_share=(n - 1) / n,
        angle_repeat_share=(n - 1) / n,
        # largest RSS among this process's waited-for children: the verify
        # processes, which do everything the set-up processes do and more
        peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )
    return out


# -- in-process workloads -----------------------------------------------------


def run_in_process(runner: Runner, workload: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    setup = [] if trace else runner.setup_samples(workload, setups)
    extra = ["--seed", str(seed), "--seconds", repr(seconds)]
    spans_path = os.path.join(runner.run_dir, "spans.json")
    if trace:
        extra += ["--spans", spans_path]
    _, rest = runner.worker(workload, *extra, timeout=seconds + OP_TIMEOUT_S)
    out = json.loads(rest.strip().splitlines()[-1])
    expected_src = os.path.join(runner.root, "src", "foursplit")
    if os.path.dirname(os.path.abspath(out["package_file"])) != expected_src:
        raise BenchError(f"package imported from {out['package_file']}, not {expected_src}")
    out["setup_s"] = setup
    if trace:
        out["spans"] = tracing.load([spans_path])
    return out


# -- main ---------------------------------------------------------------------


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    run_dir = os.path.join(root, ".perfbench_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(root, run_dir)
    if smoke:
        seconds = 0.0
    setups = 1 if smoke else SETUP_SAMPLES
    if workload == "verify_all":
        out = run_verify_all(runner, seed, seconds, trace, setups)
    else:
        out = run_in_process(runner, workload, seed, seconds, trace, setups)

    times = out["op_s"]
    ref = statistics.median(out["ref_s"])
    attempted = len(times) + len(out.get("traced_op_s", ()))
    record: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        **environment(root),
        "samples": {
            "ops": len(times),
            "traced_ops": len(out.get("traced_op_s", ())),
            "setup": len(out["setup_s"]),
            "reference": len(out["ref_s"]),
        },
        "failed_ratio": out["failed"] / attempted,
        "check.max_dev": out["max_dev"],
        "arch_reuse_share": out["arch_reuse_share"],
        "angle_repeat_share": out["angle_repeat_share"],
        "pool_exhausted": out.get("pool_exhausted", False),
        "errors": out["errors"],
        "setup_samples_s": out["setup_s"],
        "op_samples_s": times,
        "reference_ms": 1e3 * ref,
    }
    if trace:
        metrics, reasons = tracing.layer_metrics(out["spans"], len(out["traced_op_s"]))
        traced = statistics.median(out["traced_op_s"]) / statistics.median(out["traced_ref_s"])
        metrics["trace.overhead_ratio"] = (traced / (statistics.median(times) / ref), "ratio")
        record["not_produced"] = reasons
    else:
        # Raw op timings are reported but not gated: on a shared machine they
        # drift by 15-30% between runs, the tail by ~100%.  The gated forms
        # divide by the reference kernel's median time, measured alongside.
        tail_value, tail_pct = tail(times)
        record["raw"] = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail_value,
        }
        record["op_tail_percentile"] = tail_pct
        metrics = {
            "setup_s": (statistics.median(out["setup_s"]), "s"),
            "ops_per_ref": (len(times) * ref / sum(times), "1/ref"),
            "op_p50_ref": (statistics.median(times) / ref, "ref"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return {
        "correct": out["failed"] == 0,
        "attempted": attempted,
        "failed": out["failed"],
        "metrics": record["metrics"],
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per phase, one set-up sample")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "foursplit", "cli.py")):
        print(f"error: no foursplit package under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={result['attempted']} failed={result['failed']}")
    not_produced = record.get("not_produced", {})
    for name, entry in record["metrics"].items():
        note = f"  (not produced: {not_produced[name]})" if name in not_produced else ""
        print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'failed_ratio':42s} {record['failed_ratio']:.6g} ratio")
    print(f"  {'check.max_dev':42s} {record['check.max_dev']:.3g} (diagnostic)")
    print(f"  {'reference_ms':42s} {record['reference_ms']:.6g} ms (1 ref)")
    for name, value in record.get("raw", {}).items():
        unit = "1/s" if name == "ops_per_s" else "ms"
        print(f"  {name:42s} {value:.6g} {unit} (not gated)")
    if "op_tail_percentile" in record:
        print(f"  op_tail_ms is p{record['op_tail_percentile']:.1f} of {record['samples']['ops']} ops")
    for error in record["errors"]:
        print(f"  failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
