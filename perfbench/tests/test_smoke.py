"""Smoke tests of the benchmark: every workload, untraced and traced, at
minimal length, plus the input generator.

    python -m pytest perfbench/tests

A run must end with a valid result line carrying every metric that
BENCHMARK.json names, with its unit, and must leave a run record with the
diagnostics the benchmark promises.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

RECORD_KEYS = (
    "workload",
    "seed",
    "git_commit",
    "python",
    "numpy",
    "blas",
    "nproc",
    "cpu_model",
    "samples",
    "failed_ratio",
    "check.max_dev",
    "arch_reuse_share",
    "angle_repeat_share",
    "reference_ms",
)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], *args]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload: str, trace: int) -> None:
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    run_dir = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed1-trace{trace}")
    with open(os.path.join(run_dir, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    for key in RECORD_KEYS:
        assert key in record, key
    assert record["failed_ratio"] == 0.0
    assert record["metrics"] == result["metrics"]
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert set(record["not_produced"]) <= set(expected)
    else:
        assert set(record["raw"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms"}
        assert all(v > 0 for v in record["raw"].values())
        assert 0 < record["op_tail_percentile"] <= 100


def test_fails_without_the_package(tmp_path) -> None:
    """A directory with only the benchmark's files is refused, with no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("make", sorted(inputs.POOLS))
def test_inputs_are_seeded(make: str) -> None:
    a, b, c = inputs.POOLS[make](5, 300), inputs.POOLS[make](5, 300), inputs.POOLS[make](6, 300)
    assert a.angles.tobytes() == b.angles.tobytes() and a.arch.tobytes() == b.arch.tobytes()
    assert a.angles.tobytes() != c.angles.tobytes()
    assert [a.op(i) for i in range(len(a))] == [b.op(i) for i in range(len(b))]


def test_closed_form_v_matches_the_package() -> None:
    from foursplit import gates

    rng = np.random.default_rng(0)
    t1, t2 = rng.uniform(-np.pi, np.pi, (2, 500))
    expected = [np.abs(gates.v_gate(a, b).matrix).max() for a, b in zip(t1, t2)]
    assert np.allclose(inputs.v_max_entry(t1, t2), expected, rtol=1e-9, atol=1e-9)
    assert inputs.v_max_entry(np.array([0.3]), np.array([0.3]))[0] == np.inf


def test_oracle_inputs_pass_the_package_filter() -> None:
    """Every generated oracle op has defined, well-conditioned V factors by
    the package's own reckoning, as criterion 11 requires."""
    from foursplit import gates

    pool = inputs.gadget_oracle(3, 200)
    for i in range(len(pool)):
        op = pool.op(i)
        arch, _ = gates.resolve_gate_architecture(op.arch)
        eff = [op.angles[idx - 1] for idx, _ in arch.gate_slots]
        worst = max(np.abs(gates.v_gate(eff[0], eff[1]).matrix).max(), np.abs(gates.v_gate(eff[2], eff[3]).matrix).max())
        assert worst <= inputs.MAX_V_ENTRY
        gates.two_mode_gate(op.arch, op.angles)


def test_sample_inputs_mix_both_checks() -> None:
    pool = inputs.gadget_sample(4, 2000)
    kinds = np.bincount(pool.kind, minlength=3)
    assert kinds[0] == 0 and abs(kinds[1] - kinds[2]) < 200
    noise_db = pool.db[pool.kind == 2]
    completion_db = pool.db[pool.kind == 1]
    assert noise_db.min() >= 3 and noise_db.max() <= 20
    assert completion_db.min() >= 5 and completion_db.max() <= 15
