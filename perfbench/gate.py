"""Correctness gate applied to every pass of the four verbs.

A pass is correct when:

1. every verb exits 0;
2. ``compare_report.json`` has ``overall_pass: true``;
3. ``solve.csv`` trace/number columns match the ``simulate`` component
   trajectories at shared times within ``SOLVE_SIM_TOL``;
4. every output file matches the reference digest in ``reference/``
   within ``ATOL``/``RTOL`` (a digest, not bytes, so a rewrite that rounds
   differently still passes);
5. every output file is byte-identical to the verb's first run in the same
   benchmark run (``check_repeat``), and to the outputs an earlier run of
   the same sources and input left in the same checkout (``run.py``).

A failed check counts against the verb that wrote the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

VERBS = ("simulate", "solve", "wigner", "compare")
SOLVE_SIM_TOL = 1e-9
ATOL = 1e-9
RTOL = 1e-7


def verb_of(filename: str) -> str:
    if filename == "solve.csv":
        return "solve"
    if filename.startswith("wigner_"):
        return "wigner"
    if filename == "compare_report.json":
        return "compare"
    return "simulate"


def _flatten(node, path: str, nums: dict, flags: dict) -> None:
    if isinstance(node, bool):
        flags[path] = node
    elif isinstance(node, (int, float)):
        nums.setdefault(path, []).append(float(node))
    elif isinstance(node, list):
        for item in node:
            _flatten(item, path, nums, flags)
    elif isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{path}.{key}" if path else key, nums, flags)
    else:
        flags[path] = node


def read_values(path: str):
    """Numeric columns (CSV) or numeric leaves by key path (JSON), plus the
    non-numeric JSON leaves, which are compared exactly."""
    nums, flags = {}, {}
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for j, name in enumerate(header):
            nums[name] = [float(r[j]) for r in rows[1:]]
    else:
        with open(path) as fh:
            _flatten(json.load(fh), "", nums, flags)
    return nums, flags


def _digest_values(values: list) -> list:
    """[count, sum, sum of |x|, max |x|, last]."""
    return [len(values), math.fsum(values), math.fsum(abs(x) for x in values),
            max((abs(x) for x in values), default=0.0), values[-1] if values else 0.0]


def digest_file(path: str) -> dict:
    nums, flags = read_values(path)
    out = {key: _digest_values(vals) for key, vals in nums.items()}
    out.update({key: {"exact": val} for key, val in flags.items()})
    return out


def digest_dir(out_dir: str) -> dict:
    return {name: digest_file(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


def _close(got: float, ref: float, atol: float) -> bool:
    return abs(got - ref) <= atol + RTOL * abs(ref)


def digest_mismatches(reference: dict, got: dict) -> list:
    """(file, message) pairs for every reference entry ``got`` misses or
    misses the tolerance on.  Files and keys absent from the reference
    (new outputs) are not checked."""
    bad = []
    for name, ref_file in reference.items():
        got_file = got.get(name)
        if got_file is None:
            bad.append((name, "missing"))
            continue
        for key, ref in ref_file.items():
            val = got_file.get(key)
            if isinstance(ref, dict):
                if val != ref:
                    bad.append((name, f"{key}: {val!r} != {ref!r}"))
                continue
            if not isinstance(val, list) or val[0] != ref[0]:
                bad.append((name, f"{key}: shape {val!r:.60} != count {ref[0]}"))
                continue
            n = ref[0]
            tols = (n * ATOL, n * ATOL, ATOL, ATOL)
            for what, g, r, atol in zip(("sum", "abs", "max", "last"), val[1:], ref[1:], tols):
                if not _close(g, r, atol):
                    bad.append((name, f"{key} {what}: {g!r} vs reference {r!r}"))
    return bad


def file_hashes(out_dir: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def solve_simulate_gap(out_dir: str) -> float:
    """Largest |closed form - RK4| of the plus/minus trace and photon
    number at times both tables hold, relative to max(1, |value|)."""
    solve, _ = read_values(os.path.join(out_dir, "solve.csv"))
    by_time = {round(t, 9): i for i, t in enumerate(solve["t"])}
    gap, shared = 0.0, 0
    for tag in ("plus", "minus"):
        comp, _ = read_values(os.path.join(out_dir, f"component_{tag}.csv"))
        for k, t in enumerate(comp["t"]):
            i = by_time.get(round(t, 9))
            if i is None:
                continue
            shared += 1
            for ours, theirs in ((f"trace_{tag}", "trace_re"), (f"number_{tag}", "number_re")):
                ref = comp[theirs][k]
                gap = max(gap, abs(solve[ours][i] - ref) / max(1.0, abs(ref)))
    if shared == 0:
        raise ValueError("solve.csv and the component tables share no time")
    return gap


def accuracy_ratios(out_dir: str) -> dict:
    """Deviation / tolerance of every tight check: the compare report's
    doubled-space routes and tight closed forms, and solve vs simulate."""
    with open(os.path.join(out_dir, "compare_report.json")) as fh:
        report = json.load(fh)
    tol = report["tolerances"]
    ratios = {}
    for kind, entry in report["components"].items():
        ratios[f"{kind}.doubled"] = entry["doubled_max_dev"] / tol["doubled"]
        if entry["analytic_tight"]:
            ratios[f"{kind}.analytic"] = entry["analytic_max_dev"] / tol["analytic_pm"]
    ratios["solve_vs_simulate"] = solve_simulate_gap(out_dir) / SOLVE_SIM_TOL
    return ratios


def check_pass(out_dir: str, exit_codes: dict, reference):
    """Gate checks 1-4 on one run of every verb into ``out_dir``.  Returns
    (failed verbs, messages, file hashes, margin); margin is the worst
    accuracy ratio, or None when it cannot be read.  ``reference`` None
    skips check 4."""
    failed, msgs = set(), []

    def fail(verb, msg):
        failed.add(verb)
        msgs.append(f"{verb}: {msg}")

    for verb in VERBS:
        if exit_codes.get(verb) != 0:
            fail(verb, f"exit code {exit_codes.get(verb)}")
    margin = None
    try:
        with open(os.path.join(out_dir, "compare_report.json")) as fh:
            if json.load(fh).get("overall_pass") is not True:
                fail("compare", "overall_pass is not true")
        ratios = accuracy_ratios(out_dir)
        margin = max(ratios.values())
        if ratios["solve_vs_simulate"] > 1.0:
            fail("solve", f"solve vs simulate gap {ratios['solve_vs_simulate'] * SOLVE_SIM_TOL:.3e}"
                          f" > {SOLVE_SIM_TOL}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        fail("compare", f"cannot read accuracy checks: {type(exc).__name__}: {exc}")
    hashes = file_hashes(out_dir)
    if reference is not None:
        got = {}
        for name in hashes:
            try:
                got[name] = digest_file(os.path.join(out_dir, name))
            except (ValueError, IndexError) as exc:
                fail(verb_of(name), f"{name} unreadable: {exc}")
        for name, msg in digest_mismatches(reference, got):
            fail(verb_of(name), f"{name} vs reference: {msg}")
    return failed, msgs, hashes, margin


def check_repeat(out_dir: str, verb: str, code, first_hashes: dict) -> list:
    """Gate a repeat of one verb: exit 0 and the same bytes, file for file,
    as that verb wrote in the first pass."""
    msgs = [] if code == 0 else [f"exit code {code}"]
    hashes = file_hashes(out_dir) if os.path.isdir(out_dir) else {}
    first = {n: h for n, h in first_hashes.items() if verb_of(n) == verb}
    mine = {n: h for n, h in hashes.items() if verb_of(n) == verb}
    differ = sorted(n for n in set(first) | set(mine) if first.get(n) != mine.get(n))
    if differ:
        msgs.append(f"differs from the first pass: {', '.join(differ)}")
    return msgs
