"""Per-layer tracing of jcdamp from outside the package.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers that record one span per call.  Modules bind names with
``from .oracle import integrate_joint``, so a wrapper is installed in every
``jcdamp`` namespace that holds the original object, not only in the module
that defines it.  Spans (name, start, end, parent id, work) stay in memory
until ``summary`` reduces them to per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module to look the name up in, attribute path)
LAYERS = [
    ("fock", "jcdamp.fock", "displacement"),
    ("fock", "jcdamp.fock", "matrix_exponential"),
    ("wigner", "jcdamp.wigner", "wigner_grid"),
    ("wigner", "jcdamp.wigner", "wigner_at"),
    ("wigner", "jcdamp.wigner", "gaussian_grid"),
    ("quadrature", "jcdamp.quadrature", "triangle_double_integral"),
    ("quadrature", "jcdamp.quadrature", "simpson_adaptive_vec"),
    ("solution", "jcdamp.solution", "kernel_double_integral"),
    ("solution", "jcdamp.solution", "evolve_plus_minus"),
    ("solution", "jcdamp.solution", "evolve_cross"),
    ("oracle", "jcdamp.oracle", "integrate_joint"),
    ("oracle", "jcdamp.oracle", "integrate_component"),
    ("doubled", "jcdamp.doubled", "evolve_vectorized"),
    ("doubled", "jcdamp.doubled", "expm_multiply"),
    ("doubled", "jcdamp.doubled", "commutator_generator_factory"),
    ("doubled", "jcdamp.doubled", "anticommutator_generator_factory"),
    ("model", "jcdamp.model", "split_components"),
    ("model", "jcdamp.model", "field_from_rotational"),
    ("cli", "jcdamp.cli", "load_config"),
    ("cli", "jcdamp.cli", "_write_csv"),
    ("cli", "jcdamp.wigner", "PhaseGrid.to_csv"),
    ("cli", "jcdamp.wigner", "PhaseGrid.to_json"),
]
# Snapshots and the compare report go through ``json.dump`` in ``cli``.
JSON_DUMP = "cli.json_dump"
VERB_PREFIX = "verb."

FUNCTION_NAMES = [f"{layer}.{attr}" for layer, _, attr in LAYERS] + [JSON_DUMP]


def _grid_steps(bound) -> int:
    return bound.arguments["grid"].n_steps


def _joint_work(bound) -> dict:
    n2 = 2 * bound.arguments["params"].n_trunc
    steps = _grid_steps(bound)
    # 6 complex matmuls of (2N)^3 multiply-adds, 8 flops each, 4 RK4 stages
    return {"steps": steps, "flops": 6 * 4 * 8 * n2 ** 3 * steps}


def _grid_points(bound) -> dict:
    return {"points": bound.arguments["n_re"] * bound.arguments["n_im"]}


WORK = {
    "oracle.integrate_joint": _joint_work,
    "oracle.integrate_component": lambda b: {"steps": _grid_steps(b)},
    "wigner.wigner_grid": _grid_points,
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``jcdamp.cli``."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, work]
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)
        signature = inspect.signature(fn) if work_of else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work_of(signature.bind(*args, **kwargs)) if work_of else None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "jcdamp" or name.startswith("jcdamp.")]
        for layer, home, attr in LAYERS:
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(f"{layer}.{cls_name}.{attr}",
                                                   owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(f"{layer}.{attr}", original)
            hits = [mod for mod in namespaces if getattr(mod, attr, None) is original]
            if not hits:
                raise RuntimeError(f"{home}.{attr} is bound in no jcdamp namespace")
            for mod in hits:
                self._patch(mod, attr, traced)
        cli = importlib.import_module("jcdamp.cli")
        self._patch(cli, "json", _JsonProxy(self.wrap(JSON_DUMP, json.dump)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root-level span named ``name``."""
        return self.wrap(name, fn)(*args)

    def self_times(self) -> list:
        """Duration of each span minus the durations of its direct children
        (children of one call never overlap: the calls are synchronous)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-function calls/self/inclusive time and work, overall and per
        verb (the root span each call ran under)."""
        own = self.self_times()
        root = []
        for sid, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(root[parent] if parent >= 0 else sid)
        total = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        work = defaultdict(lambda: defaultdict(int))
        per_verb = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, w) in enumerate(self.spans):
            entry = total[name]
            entry["calls"] += 1
            entry["self_s"] += own[sid]
            entry["incl_s"] += end - start
            for key, val in (w or {}).items():
                work[name][key] += val
            per_verb[self.spans[root[sid]][0]][name] += own[sid]
        return {"functions": {k: dict(v) for k, v in total.items()},
                "work": {k: dict(v) for k, v in work.items()},
                "self_s_by_verb": {k: dict(v) for k, v in per_verb.items()}}

    def dump(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "work"]
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)


def layer_metrics(summary: dict, write_bytes: int, overhead_s: float) -> dict:
    """The benchmark's per-layer metrics from a traced pass."""
    fns, work = summary["functions"], summary["work"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def stat(name, key):
        return fns.get(name, {}).get(key, 0)

    for name in FUNCTION_NAMES:
        put(f"{name}.calls", stat(name, "calls"), "count")
        put(f"{name}.self_s", stat(name, "self_s"), "s")
    grid_s = stat("wigner.wigner_grid", "incl_s")
    points = work.get("wigner.wigner_grid", {}).get("points", 0)
    put("wigner.points_per_s", points / grid_s if grid_s else 0.0, "1/s")
    joint_s = stat("oracle.integrate_joint", "self_s")
    joint = work.get("oracle.integrate_joint", {})
    comp_s = stat("oracle.integrate_component", "self_s")
    comp_steps = work.get("oracle.integrate_component", {}).get("steps", 0)
    put("oracle.joint_step_us", 1e6 * joint_s / joint["steps"] if joint else 0.0, "us")
    put("oracle.component_step_us", 1e6 * comp_s / comp_steps if comp_steps else 0.0, "us")
    put("oracle.integrate_joint.gflops_computed",
        joint["flops"] / joint_s / 1e9 if joint and joint_s else 0.0, "GFLOP/s")
    put("cli.write.bytes", write_bytes, "B")
    verb_self = sum(stat(name, "self_s") for name in fns if name.startswith(VERB_PREFIX))
    put("cli.self_s", verb_self, "s")
    put("trace.overhead_s", overhead_s, "s")
    return metrics
