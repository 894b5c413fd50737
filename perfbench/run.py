"""End-to-end and per-layer benchmark of the four jcdamp CLI verbs.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload readme --seed 0 --seconds 40 --trace 0

One run writes the workload's configuration, times set-up in fresh
interpreters, and makes an untimed warm-up pass on a tiny configuration.
Round 0 then runs ``simulate``, ``solve``, ``wigner`` and ``compare`` once
each through ``jcdamp.cli.main`` in this process and gates the outputs in
full (see ``gate.py``).  With ``--trace 0``, further rounds rerun every
verb, each into a fresh directory, until the rounds have taken
``--seconds``; each rerun must exit 0 and write the same bytes.
A fixed calibration kernel (``calibrate.py``) runs after every verb call,
and each call's wall time is scaled by the kernel runs on either side of it
to the seconds it would take on the reference host.  ``total_ref_s`` is the
sum of the verbs' median scaled times, ``setup_s`` the median scaled set-up
time.  With ``--trace 1``, round 1 reruns every verb once with tracing on;
the per-layer metrics come from it, plus each verb's wall time in round 0.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count verb runs, and ``metrics`` maps each
metric name to its value and unit.  A record of the run (environment, seed,
every verb run with its kernel times, gate messages) and, when traced, all
spans are written under ``.bench_work/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP threads before numpy is first imported, here and in the
# set-up interpreters, which inherit the environment.  One thread: on a
# 2-CPU host, two OpenBLAS threads made 64x64 complex expm and matmuls about
# ten times slower than one, and far noisier (README.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")

SETUP_REPEATS = 5
# Start no further round once this much of a run is spent (runs must end
# within 180 s).
PASS_CUTOFF_S = 120.0

SETUP_SNIPPET = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
import jcdamp
from jcdamp.cli import load_config
load_config(sys.argv[1]).initial_joint()
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import calibrate
kernel = calibrate.Kernel()
print(repr(elapsed), repr(statistics.median(kernel.seconds() for _ in range(3))))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad reference data)."""


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "jcdamp", "cli.py")):
        raise BenchError(f"no jcdamp sources under {SRC}")
    sys.path.insert(0, SRC)
    import jcdamp.cli
    if not os.path.abspath(jcdamp.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported jcdamp from {jcdamp.cli.__file__}, not {SRC}")
    return jcdamp.cli


def measure_setup(cfg_path: str, repeats: int) -> list:
    """Seconds to import jcdamp, load the config and build the initial
    state, each in a fresh interpreter: (wall, calibration kernel) pairs,
    the kernel timed in the same interpreter right after."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, cfg_path, SRC, HERE],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        wall, kernel = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(kernel)))
    return times


def run_verb(main, verb: str, cfg_path: str, out_dir: str, trace=None):
    """Run one verb through ``cli.main``.  Returns (seconds, exit code); an
    exception escaping ``main`` counts as exit code -1."""
    argv = [verb, "--config", cfg_path, "--out", out_dir, "--quiet"]
    t0 = time.perf_counter()
    try:
        if trace is None:
            code = main(argv)
        else:
            code = trace.span(f"{tracer.VERB_PREFIX}{verb}", main, argv)
    except Exception:  # a crash is a failed verb run; keep measuring
        traceback.print_exc()
        code = -1
    return time.perf_counter() - t0, code


class Clock:
    """Times verb calls between runs of the calibration kernel."""

    def __init__(self):
        self.kernel = calibrate.Kernel()
        self.last = self.kernel.seconds()

    def run_verb(self, main, verb: str, cfg_path: str, out_dir: str, trace=None):
        """``run_verb`` with the kernel times on either side of the call and
        the call's time scaled to the reference host: (timing, exit code)."""
        seconds, code = run_verb(main, verb, cfg_path, out_dir, trace)
        before, self.last = self.last, self.kernel.seconds()
        return {"seconds": seconds, "kernel_before_s": before, "kernel_after_s": self.last,
                "ref_seconds": calibrate.scaled(seconds, before, self.last)}, code


def run_pass(clock: Clock, main, cfg_path: str, out_dir: str, trace=None):
    """One run of each verb into ``out_dir``: (timings, exit codes) by verb."""
    timings, codes = {}, {}
    for verb in gate.VERBS:
        timings[verb], codes[verb] = clock.run_verb(main, verb, cfg_path, out_dir, trace)
    return timings, codes


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def load_reference(workload: str, seed: int) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        doc = json.load(fh)
    key = str(workloads.phase_index(seed))
    if key not in doc["phases"]:
        raise BenchError(f"{path} has no reference for phase index {key}")
    return doc["phases"][key]


def _git_commit():
    """HEAD of a git checkout at ROOT, read from files (None elsewhere)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "jcdamp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_default": workloads.DEFAULT_SEED,
        "phase_deg": workloads.phase_deg(args.seed),
        "smoke": args.smoke, "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _hash_store(cfg_text: str) -> str:
    """Where output hashes of this source tree and input are kept, so that a
    later run of the same commit and input can check byte identity."""
    key = hashlib.sha256((_source_digest() + cfg_text).encode()).hexdigest()[:20]
    return os.path.join(WORK_ROOT, f"hashes_{key}.json")


def _cross_run_mismatches(store: str, hashes: dict) -> list:
    """Names whose hashes differ from those an earlier run stored; stores
    ``hashes`` when no earlier run did."""
    if os.path.isfile(store):
        with open(store) as fh:
            earlier = json.load(fh)
        return sorted(n for n in set(earlier) | set(hashes) if earlier.get(n) != hashes.get(n))
    tmp = f"{store}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(hashes, fh, sort_keys=True)
    os.replace(tmp, store)
    return []


def run(args) -> dict:
    make = workloads.smoke_config if args.smoke else workloads.config
    reference = None if args.smoke else load_reference(args.workload, args.seed)
    cli = _import_cli()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    work_dir = os.path.join(WORK_ROOT, f"{tag}_{os.getpid()}")
    os.makedirs(work_dir)
    samples = {verb: [] for verb in gate.VERBS}
    ref_samples = {verb: [] for verb in gate.VERBS}
    runs, messages = [], []
    summary = trace = None

    def record_run(rnd, verb, timing, ok):
        samples[verb].append(timing["seconds"])
        ref_samples[verb].append(timing["ref_seconds"])
        runs.append({"round": rnd, "verb": verb, **timing, "ok": ok})

    try:
        cfg_text = json.dumps(make(args.workload, args.seed), indent=1)
        cfg_path = os.path.join(work_dir, "config.json")
        with open(cfg_path, "w") as fh:
            fh.write(cfg_text)
        setup = measure_setup(cfg_path, 1 if args.smoke else SETUP_REPEATS)

        # Untimed warm-up on a tiny configuration: lazy imports and first calls.
        warm_cfg = os.path.join(work_dir, "warmup.json")
        with open(warm_cfg, "w") as fh:
            json.dump(workloads.smoke_config(args.workload, args.seed), fh)
        clock = Clock()
        run_pass(clock, cli.main, warm_cfg, os.path.join(work_dir, "warmup"))

        # Round 0: every verb once, fully gated.
        t_run = time.perf_counter()
        out_dir = os.path.join(work_dir, "round0")
        timings, codes = run_pass(clock, cli.main, cfg_path, out_dir)
        failed, msgs, first_hashes, margin = gate.check_pass(out_dir, codes, reference)
        for name in _cross_run_mismatches(_hash_store(cfg_text), first_hashes):
            failed.add(gate.verb_of(name))
            msgs.append(f"{gate.verb_of(name)}: {name} differs from an earlier run"
                        " of the same sources and input")
        messages += [f"round 0: {m}" for m in msgs]
        for verb in gate.VERBS:
            record_run(0, verb, timings[verb], verb not in failed)
        write_bytes = _dir_bytes(out_dir)

        if args.trace:
            # Round 1: every verb once more, traced; outputs must not change.
            trace = tracer.Tracer()
            out_dir = os.path.join(work_dir, "round1")
            with trace:
                timings, codes = run_pass(clock, cli.main, cfg_path, out_dir, trace)
            summary = trace.summary()
            for verb in gate.VERBS:
                msgs = gate.check_repeat(out_dir, verb, codes[verb], first_hashes)
                messages += [f"round 1: {verb}: {m}" for m in msgs]
                record_run(1, verb, timings[verb], not msgs)
        else:
            # Further rounds run every verb, each into a fresh directory, until
            # the rounds have taken --seconds; every verb gets the same number
            # of samples, so the long calls that dominate total_ref_s get as
            # many as the short ones.
            rnd = 1
            while rnd == 1 or time.perf_counter() - t_run < min(args.seconds, PASS_CUTOFF_S):
                for verb in gate.VERBS:
                    out_dir = os.path.join(work_dir, f"round{rnd}_{verb}")
                    timing, code = clock.run_verb(cli.main, verb, cfg_path, out_dir)
                    msgs = gate.check_repeat(out_dir, verb, code, first_hashes)
                    messages += [f"round {rnd}: {verb}: {m}" for m in msgs]
                    record_run(rnd, verb, timing, not msgs)
                    shutil.rmtree(out_dir, ignore_errors=True)
                rnd += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    if args.trace:
        rounds = [sum(r["seconds"] for r in runs if r["round"] == k) for k in (0, 1)]
        metrics = tracer.layer_metrics(summary, write_bytes, rounds[1] - rounds[0])
        # Each verb's wall time in the untraced round 0 (one sample each).
        for verb in gate.VERBS:
            metrics[f"{verb}_s"] = _metric(samples[verb][0], "s")
    else:
        medians = [statistics.median(ref_samples[verb]) for verb in gate.VERBS]
        metrics = {"total_ref_s": _metric(sum(medians), "s")}
        metrics["setup_s"] = _metric(
            statistics.median(calibrate.scaled(wall, k, k) for wall, k in setup), "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        # -1 marks a margin that could not be read; the gate has failed then.
        metrics["accuracy_margin"] = _metric(-1.0 if margin is None else margin, "ratio")

    record = {
        "environment": environment(args),
        "runs": runs, "setup_wall_kernel_s": setup, "gate_messages": messages,
        "verb_median_s": {verb: statistics.median(samples[verb]) for verb in gate.VERBS},
        "verb_median_ref_s": {verb: statistics.median(ref_samples[verb])
                              for verb in gate.VERBS},
        "fail_ratio": failed / attempted,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    if trace is not None:
        record["top_self_by_verb"] = {
            verb: max((kv for kv in fns.items() if not kv[0].startswith(tracer.VERB_PREFIX)),
                      key=lambda kv: kv[1])[0]
            for verb, fns in summary["self_s_by_verb"].items()}
    with open(os.path.join(WORK_ROOT, f"result_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if trace is not None:
        trace.dump(os.path.join(WORK_ROOT, f"trace_{tag}.json"),
                   {"environment": record["environment"], "summary": summary,
                    "metrics": metrics})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations, no reference check (self-test)")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for msg in record["gate_messages"]:
        print(f"gate: {msg}", file=sys.stderr)
    for verb, name in record.get("top_self_by_verb", {}).items():
        print(f"largest self time under {verb}: {name}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
