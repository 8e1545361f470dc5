"""Spans around the package's public functions, installed from outside.

``install`` replaces each traced function or method by attribute on its
defining module or class, and every alias of it that a foursplit module bound
with ``from ... import`` (the package namespace, ``zoo.is_balanced_foursplitter``
and the like), and wraps the entries of ``cli.SUBJECT_RUNNERS``.  Spans stay
in memory as (name, start, end, parent, op id) and are written out once, by
``Tracer.dump``, when the run ends.  A span's self time is its duration minus
that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, class or None, attribute, span name) of every traced callable.
TARGETS = (
    ("networks", None, "enumerate_candidates", "networks.enumerate_candidates"),
    ("networks", None, "verify_theorem2", "networks.verify_theorem2"),
    ("networks", None, "physical_census", "networks.physical_census"),
    ("networks", None, "canonical_form", "networks.canonical_form"),
    ("networks", "BsNetwork", "matrix", "networks.BsNetwork.matrix"),
    ("exact", "ExactMatrix", "__matmul__", "exact.matmul"),
    ("hadamard", None, "enumerate_sign_orthogonal", "hadamard.enumerate_sign_orthogonal"),
    ("hadamard", None, "generate_class", "hadamard.generate_class"),
    ("zoo", None, "qrl_decomposition", "zoo.qrl_decomposition"),
    ("zoo", None, "architecture_matrix", "zoo.architecture_matrix"),
    ("zoo", None, "no_virtual_completion_scan", "zoo.no_virtual_completion_scan"),
    ("gates", None, "two_mode_gate", "gates.two_mode_gate"),
    ("gates", None, "network_op", "gates.network_op"),
    ("gates", None, "v_gate", "gates.v_gate"),
    ("sim", None, "simulate_gadget", "sim.simulate_gadget"),
    ("sim", None, "homodyne", "sim.homodyne"),
    ("sim", None, "apply", "sim.apply"),
    ("sim", "GaussianState", "__init__", "sim.GaussianState"),
)

SUBJECTS = (
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
)


class Tracer:
    """In-memory span store; ``op_id`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.missing: list[str] = []
        self.op_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "ops": self.ops,
                    "missing": self.missing,
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap every target, its from-import aliases and the CLI subject runners."""
    import foursplit
    import foursplit.cli as cli

    modules = [m for n, m in sys.modules.items() if n == "foursplit" or n.startswith("foursplit.")]
    for mod_name, cls_name, attr, span in TARGETS:
        owner = getattr(foursplit, mod_name, None)
        if owner is not None and cls_name is not None:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.missing.append(span)
            continue
        traced = tracer.wrap(span, original)
        setattr(owner, attr, traced)
        if cls_name is None:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    for subject, runner in list(cli.SUBJECT_RUNNERS.items()):
        cli.SUBJECT_RUNNERS[subject] = tracer.wrap(f"cli.subject.{subject}", runner)


def load(paths) -> dict:
    """Concatenate dumped span files; op ids are renumbered per file and op."""
    merged = {"names": [], "starts": [], "ends": [], "parents": [], "ops": [], "missing": []}
    next_op = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        base = len(merged["names"])
        op_map: dict[int, int] = {}
        for op in part["ops"]:
            if op not in op_map:
                op_map[op] = next_op
                next_op += 1
        merged["names"] += part["names"]
        merged["starts"] += part["starts"]
        merged["ends"] += part["ends"]
        merged["parents"] += [p + base if p >= 0 else -1 for p in part["parents"]]
        merged["ops"] += [op_map[op] for op in part["ops"]]
        merged["missing"] = sorted(set(merged["missing"]) | set(part["missing"]))
    return merged


def layer_metrics(spans: dict, n_ops: int) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics, per op unless the name says otherwise, and the
    reason for each metric this run could not produce (reported as 0)."""
    names, parents = spans["names"], spans["parents"]
    durations = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    child_time = [0.0] * len(names)
    in_gadget = [False] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]
            in_gadget[i] = in_gadget[parent] or names[parent] == "sim.simulate_gadget"
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + durations[i] - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + durations[i]
    ops = max(n_ops, 1)
    runs = calls.get("sim.simulate_gadget", 0)
    sweeps = calls.get("networks.enumerate_candidates", 0)
    swept_ops = len({op for op, name in zip(spans["ops"], names) if name == "networks.enumerate_candidates"})
    builds_in_runs = sum(
        1 for i, name in enumerate(names) if name == "networks.BsNetwork.matrix" and in_gadget[i]
    )

    def per_op_calls(span: str) -> tuple[float, str]:
        return calls.get(span, 0) / ops, "count/op"

    def per_op_self(span: str) -> tuple[float, str]:
        return self_s.get(span, 0.0) / ops, "s/op"

    metrics: dict[str, tuple[float, str]] = {}
    for subject in SUBJECTS:
        metrics[f"cli.subject.{subject}.s"] = (total_s.get(f"cli.subject.{subject}", 0.0) / ops, "s/op")
    metrics["networks.sweeps"] = (sweeps / ops, "count/op")
    metrics["networks.useful_sweep_ratio"] = (swept_ops / sweeps if sweeps else 0.0, "ratio")
    for span in (
        "networks.verify_theorem2",
        "networks.physical_census",
        "hadamard.enumerate_sign_orthogonal",
        "zoo.qrl_decomposition",
        "zoo.no_virtual_completion_scan",
    ):
        metrics[f"{span}.self_s"] = per_op_self(span)
    for span in (
        "networks.canonical_form",
        "zoo.architecture_matrix",
        "gates.v_gate",
    ):
        metrics[f"{span}.calls"] = per_op_calls(span)
    for span in (
        "exact.matmul",
        "networks.BsNetwork.matrix",
        "hadamard.generate_class",
        "gates.two_mode_gate",
        "gates.network_op",
        "sim.simulate_gadget",
        "sim.homodyne",
        "sim.apply",
    ):
        metrics[f"{span}.calls"] = per_op_calls(span)
        metrics[f"{span}.self_s"] = per_op_self(span)
    metrics["sim.runs_per_op"] = (runs / ops, "count/op")
    metrics["sim.states_built"] = per_op_calls("sim.GaussianState")
    metrics["sim.GaussianState.self_s"] = per_op_self("sim.GaussianState")
    states = calls.get("sim.GaussianState", 0)
    metrics["sim.states_per_run"] = (states / runs if runs else 0.0, "count/run")
    metrics["exact.matrix_builds_per_run"] = (builds_in_runs / runs if runs else 0.0, "count/run")

    reasons: dict[str, str] = {}
    missing = set(spans["missing"])
    for metric in metrics:
        span = metric.rsplit(".", 1)[0]
        if span in missing:
            reasons[metric] = f"{span} not found in the package; nothing to wrap"
        elif metrics[metric][0] == 0.0:
            reasons[metric] = "the workload does not reach this layer"
    return metrics, reasons
