"""Command-line harness: configure a run from a JSON document and emit
trajectories, closed-form solution tables, Wigner grids, and
oracle-vs-analytic comparison reports.

Verbs
-----
simulate   one joint integration (lab-frame states) -> observables.csv, the
           component trajectories split from it and optional snapshots;
           ``picture`` is accepted but selects nothing
solve      closed-form component solutions -> solve.csv
wigner     phase-space grids for the commutator branches (closed-form
           Gaussian for coherent input only, and grid evaluation) and the
           anticommutator branch (grid only, split into Hermitian/
           anti-Hermitian parts, from one brute-force run over the grid);
           every state of the run is gridded in one ``wigner_grid`` pass
compare    brute-force vs closed-form vs doubled-space evolution, with
           a machine-readable report; commutator branches are held to a
           tight tolerance, the anticommutator closed form is reported
           as data

A verb that ``outputs`` gives nothing to write (``_WRITES``) exits 0
without creating ``--out``.  Brute-force and doubled-space runs keep
exactly the steps a verb reads and stop at the last of them.  A snapshot
or Wigner time is read as the grid time within 1e-9 (``TimeGrid.step_index``).
``compare`` makes one run per route for all three components over the
run's grid and compares the lab-frame states every route returns at the
same sample steps; the oracle and the doubled route each step plus and
minus packed into one slice or block.  ``simulate``'s joint run steps the
plus/minus/cross stack split from the initial state, so ``components``
alone costs what ``trajectory`` does, under the joint tail guard; each
component's ``tail`` column, at most twice the joint tail, reports its own.

Exit codes: 0 success, 2 config parse failure (a coherent amplitude with no
weight below n_trunc too), an ``--out`` that cannot be created, or a file in
it that cannot be written (a name the verb writes held by a directory, say),
3 numerical failure (a closed-form state over the oracle's tail limit or the
float range too), 4 tight comparison failure.  A verb creates ``--out``
(``_make_out``) only after its last check that can fail, so an exit 2 or 3
leaves no ``--out`` behind, except that a file that cannot be written exits
2 naming it after the files written before it.  Outputs are
byte-deterministic for a given config (17-significant-digit formatting,
sorted JSON keys).

Each verb is ``cmd_X(cfg, out_dir) -> (exit code, progress lines)``: it
computes, checks and writes its files, and prints nothing.  Only ``main``
prints: the progress lines to stdout once the verb has returned, so after
every file is written, and the one-line reason of an exit 2 or 3 to stderr.
A closed stdout does not change the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .doubled import (
    anticommutator_generator_factory,
    commutator_generator_factory,
    evolve_vectorized,
    stacked,
    vectorize,
)
from .fock import TAIL_LEVELS, ModelParams, annihilation, coherent_state
from .fock import tail_weight as field_tail_weight
from .model import (
    ATOM_DOWN,
    ATOM_UP,
    check_joint_density,
    joint_tail_weight,
    split_components,
)
from .oracle import TAIL_LIMIT, StepTooLarge, TailOverflow, TimeGrid
from .oracle import integrate_component, integrate_joint
from .solution import (
    ClosedFormOverflow,
    coherent_center,
    displacement_amplitude,
    drive_integrals,
    evolve_cross,
    evolve_plus_minus,
    kernel_double_integral,
)
from .wigner import gaussian_grid, wigner_grid

PM_TOLERANCE = 1e-6
DOUBLED_TOLERANCE = 1e-6

# verb -> the ``outputs`` entries that give it something to write; any entry if unlisted
_WRITES = {"simulate": ("trajectory", "components")}
# the commutator branches and their coupling signs; "cross" is the anticommutator branch
_SIGNS = {"plus": 1, "minus": -1}


class ConfigError(ValueError):
    """Raised when the run configuration cannot be parsed."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _parse(val, kind, path: str):
    """Check ``val`` against ``kind`` and convert it.  ``kind`` is float,
    int, str, complex (a [re, im] pair), a tuple of allowed strings, or a
    one-element list [item kind] for a list."""
    if isinstance(kind, list):
        _require(isinstance(val, list), f"{path} must be a list")
        return [_parse(x, kind[0], f"{path}[{i}]") for i, x in enumerate(val)]
    if isinstance(kind, tuple):
        _require(isinstance(val, str) and val in kind,
                 f"{path} must be one of {', '.join(kind)}, got {val!r}")
        return val
    if kind is complex:
        _require(isinstance(val, list) and len(val) == 2, f"{path} must be a [re, im] pair")
        return complex(_parse(val[0], float, path + "[0]"), _parse(val[1], float, path + "[1]"))
    accepted, name = _TYPES[kind]
    _require(isinstance(val, accepted) and not isinstance(val, bool), f"{path} must be {name}")
    try:
        val = kind(val)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{path} must be finite") from None
    _require(kind is not float or math.isfinite(val), f"{path} must be finite")
    return val


def _on_grid(times: list, cfg, stored: bool = False) -> bool:
    # all grid times; with ``stored``, all times ``simulate`` stores
    try:
        steps = {cfg.grid.step_index(t) for t in times}
    except ValueError:
        return False
    return not stored or steps <= set(cfg.grid.stored_steps(cfg.store_every))


def _default_sample_times(cfg) -> list:
    span = cfg.grid.t_end - cfg.grid.t_start
    return [cfg.grid.t_start + f * span for f in (0.2, 0.4, 0.6, 0.8, 1.0)]


_AT_LEAST_2 = (lambda v, cfg: v >= 2, "must be at least 2")
_DOUBLED_N_TRUNC = (lambda v, cfg: 6 <= v <= min(40, cfg.params.n_trunc),
                    "must be an integer in [6, 40], at most params.n_trunc")

# (section, key, type, required, default, check), read by ``RunConfig``.
# Section "" is the top level; sections are read in this order, so a
# default(cfg) or a check (predicate(value, cfg), message) may use the
# fields of earlier sections.  A check applies to values the config sets;
# a verb checks a default it cannot use.  "required" applies when the
# section is present; params, initial and grid must be.
FIELDS = [
    ("params", "omega", float, True, None, None),
    ("params", "coupling", float, True, None, None),
    ("params", "gamma", float, True, None, None),
    ("params", "n_trunc", int, True, None, None),
    ("initial", "coherent_alpha0", complex, False, None, None),
    ("initial", "atom", ("up", "down"), False, None, None),
    ("initial", "matrix_file", str, False, None, None),
    ("grid", "t_start", float, True, None, None),
    ("grid", "t_end", float, True, None, None),
    ("grid", "n_steps", int, True, None, None),
    ("", "outputs", [("trajectory", "components", "wigner", "compare")], True, None, None),
    ("", "store_every", int, False, lambda cfg: max(1, cfg.grid.n_steps // 100),
     (lambda v, cfg: v >= 1, "must be a positive integer")),
    ("", "snapshot_times", [float], False, lambda cfg: [],
     (lambda v, cfg: _on_grid(v, cfg, stored=True),
      "must be stored trajectory times (every store_every-th step, or t_end)")),
    ("", "picture", ("schrodinger", "rotational"), False, lambda cfg: "schrodinger", None),
    ("wigner", "re_min", float, True, None, None),
    ("wigner", "re_max", float, True, None, None),
    ("wigner", "n_re", int, True, None, _AT_LEAST_2),
    ("wigner", "im_min", float, True, None, None),
    ("wigner", "im_max", float, True, None, None),
    ("wigner", "n_im", int, True, None, _AT_LEAST_2),
    ("wigner", "times", [float], True, None,
     (lambda v, cfg: v and _on_grid(v, cfg),
      "must be a non-empty list of grid times in [grid.t_start, grid.t_end]")),
    ("compare", "doubled_n_trunc", int, False, lambda cfg: min(30, cfg.params.n_trunc),
     _DOUBLED_N_TRUNC),
    ("compare", "sample_times", [float], False, _default_sample_times,
     (lambda v, cfg: v and all(cfg.grid.t_start < t <= cfg.grid.t_end + 1e-12 for t in v),
      "must be a non-empty list of times in (grid.t_start, grid.t_end]")),
]
# sections read into one object each; the keys of the others become attributes
_SECTION_TYPES = {"params": ModelParams, "grid": TimeGrid, "wigner": dict}
_REQUIRED_SECTIONS = ("params", "initial", "grid")


class RunConfig:
    """Validated run configuration (see ``FIELDS``); rejects unknown keys
    at every level and names the offending field."""

    def __init__(self, doc: dict, base_dir: str = "."):
        _require(isinstance(doc, dict), "config must be an object")
        sections = list(dict.fromkeys(section for section, *_ in FIELDS))
        for section in sections:
            path = f"config.{section}" if section else "config"
            present = not section or section in doc
            _require(present or section not in _REQUIRED_SECTIONS, f"missing key {path}")
            sec = doc.get(section, {}) if section else doc
            _require(isinstance(sec, dict), f"{path} must be an object")
            fields = [field for field in FIELDS if field[0] == section]
            allowed = {key for _, key, *_ in fields} | (set() if section else set(sections) - {""})
            for key in sec:
                _require(key in allowed, f"unknown key {path}.{key}")
            values = {}
            for _, key, kind, required, default, check in fields:
                if key in sec:
                    val = _parse(sec[key], kind, f"{path}.{key}")
                else:
                    _require(not (required and present), f"missing key {path}.{key}")
                    val = default(self) if default else None
                values[key] = val
                if section not in _SECTION_TYPES:
                    setattr(self, key, val)
                if check is not None and key in sec:
                    _require(check[0](val, self), f"{path}.{key} {check[1]}")
            if section in _SECTION_TYPES:
                try:
                    setattr(self, section, _SECTION_TYPES[section](**values) if present else None)
                except ValueError as exc:
                    raise ConfigError(f"{path}: {exc}") from None
        n_coherent = (self.coherent_alpha0 is not None) + (self.atom is not None)
        _require(n_coherent == (0 if self.matrix_file is not None else 2),
                 "config.initial must hold either matrix_file or coherent_alpha0 and atom")
        if self.matrix_file is not None:
            self.matrix_file = os.path.join(base_dir, self.matrix_file)

    def initial_joint(self) -> np.ndarray:
        n = self.params.n_trunc
        if self.matrix_file is not None:
            try:
                with open(self.matrix_file) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read matrix file: {exc}") from None
            _require(isinstance(doc, dict) and set(doc) == {"entries"},
                     "matrix_file must hold exactly one key, entries")
            rows = _parse(doc["entries"], [[complex]], "matrix_file.entries")
            _require(len(rows) == 2 * n and all(len(row) == 2 * n for row in rows),
                     f"matrix file must hold a {2 * n} x {2 * n} matrix")
            rho = np.array(rows, dtype=complex)
            try:
                check_joint_density(rho)
            except ValueError as exc:
                raise ConfigError(f"matrix file is not a valid state: {exc}") from None
            # exactly Hermitian, of unit trace: the check bounds both changes
            rho = 0.5 * (rho + rho.conj().T)
            return rho / np.trace(rho).real
        try:
            field = coherent_state(self.coherent_alpha0, n).vec
        except ValueError as exc:
            raise ConfigError(f"config.initial.coherent_alpha0: {exc}") from None
        atom = ATOM_UP if self.atom == "up" else ATOM_DOWN
        return np.kron(np.outer(atom, atom.conj()), np.outer(field, field.conj()))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return RunConfig(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def _make_out(out_dir: str) -> None:
    """Create ``--out`` and its parents, a ConfigError naming it (exit 2) when
    that fails: a regular file there, or a parent that cannot hold it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out {out_dir!r}: {exc.strerror or exc}") from None


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_snapshot(path: str, t: float, state: np.ndarray) -> None:
    """The bytes of json.dump({"t": t, "dim": N, "entries": [[[re, im], ...], ...]},
    sort_keys=True) and a newline, one row at a time through json.dumps: json.dump
    streams every number through the pure-Python encoder, and one json.dumps of the
    whole payload would hold its full text in memory."""
    with open(path, "w") as fh:
        fh.write(f'{{"dim": {len(state)}, "entries": [')
        for i, row in enumerate(np.stack([state.real, state.imag], axis=-1)):
            fh.write((", " if i else "") + json.dumps(row.tolist()))
        fh.write(f'], "t": {json.dumps(t)}}}\n')


def _components(rho_joint: np.ndarray):
    cs = split_components(rho_joint)
    return {"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}


def _number(state: np.ndarray, n: int) -> complex:
    """tr(a+a state) from the diagonal, a+a on the n-level field (on each atom block
    of a joint state)."""
    return np.sum(np.arange(len(state)) % n * np.diagonal(state))


def _purity(state: np.ndarray) -> float:
    """tr(state^2) = sum_ij state_ij state_ji, with no matrix product."""
    return np.sum(state * state.T).real


def _phase_center(comps) -> complex:
    # phase-space center reference: <a> of the plus component at t = 0
    return complex(np.trace(annihilation(len(comps["plus"])) @ comps["plus"]))


def _closed_form(kind: str, op0: np.ndarray, dt: float, params: ModelParams) -> np.ndarray:
    """Closed-form state of ``kind`` at ``dt`` after t_start, its tail held to ``TAIL_LIMIT``."""
    state = (evolve_cross(op0, dt, params) if kind == "cross"
             else evolve_plus_minus(op0, dt, params, _SIGNS[kind]))
    w = abs(field_tail_weight(state))
    if w > TAIL_LIMIT:
        raise TailOverflow(f"{kind} closed-form tail weight {w:.3e} > {TAIL_LIMIT} at dt={dt:.6g}")
    return state


def cmd_simulate(cfg: RunConfig, out_dir: str) -> tuple[int, list[str]]:
    n = cfg.params.n_trunc
    rho0 = cfg.initial_joint()
    # one run, its kept states in the lab frame, writes every output
    traj = integrate_joint(rho0, cfg.params, cfg.grid,
                           store_steps=cfg.grid.stored_steps(cfg.store_every))
    _make_out(out_dir)  # after the last check that can fail
    lines = []

    if "trajectory" in cfg.outputs:
        rows = []
        for t, state in zip(traj.times, traj.states.values()):
            up, down = np.trace(state[:n, :n]).real, np.trace(state[n:, n:]).real
            rows.append([t, up, _number(state, n).real, up - down, _purity(state),
                         joint_tail_weight(state)])
        _write_csv(os.path.join(out_dir, "observables.csv"),
                   ["t", "tr_rho11", "n_expect", "sigma3", "purity", "tail_weight"],
                   rows)
        for k, t_snap in enumerate(cfg.snapshot_times):
            step = cfg.grid.step_index(t_snap)
            t = cfg.grid.t_start + step * cfg.grid.step
            _write_snapshot(os.path.join(out_dir, f"snapshot_{k:03d}.json"), t, traj.states[step])
        lines.append(f"wrote observables.csv ({len(rows)} rows)")

    if "components" in cfg.outputs:
        rows = {"plus": [], "minus": [], "cross": []}
        for t, joint in zip(traj.times, traj.states.values()):
            # one kept state at a time, so no second stack of states is held
            for kind, state in _components(joint).items():
                tr = np.trace(state)
                num = _number(state, n)
                rows[kind].append([t, tr.real, tr.imag, num.real, num.imag,
                                   abs(field_tail_weight(state))])
        for kind, kind_rows in rows.items():
            _write_csv(os.path.join(out_dir, f"component_{kind}.csv"),
                       ["t", "trace_re", "trace_im", "number_re", "number_im", "tail"],
                       kind_rows)
            lines.append(f"wrote component_{kind}.csv")
    return 0, lines


def cmd_solve(cfg: RunConfig, out_dir: str) -> tuple[int, list[str]]:
    n = cfg.params.n_trunc
    comps = _components(cfg.initial_joint())
    alpha0 = _phase_center(comps)

    # the times ``simulate`` stores, t_start + step * k at each stored step k
    steps = np.array(cfg.grid.stored_steps(cfg.store_every))
    times = (cfg.grid.t_start + cfg.grid.step * steps).tolist()
    header = ["t"]
    for tag in ("disp_plus", "disp_minus", "alpha_plus", "alpha_minus",
                "mu_cosh", "mu_sinh"):
        header += [f"{tag}_re", f"{tag}_im"]
    header.append("kernel_int")
    for tag in ("plus", "minus"):
        header += [f"trace_{tag}", f"number_{tag}", f"purity_{tag}", f"tail_{tag}"]
    rows = []
    for t in times:
        dt = t - cfg.grid.t_start
        row = [t]
        amplitudes = ([displacement_amplitude(dt, cfg.params, s) for s in _SIGNS.values()]
                      + [coherent_center(dt, cfg.params, s, alpha0) for s in _SIGNS.values()]
                      + list(drive_integrals(dt, cfg.params)))
        for z in amplitudes:
            row += [z.real, z.imag]
        row.append(kernel_double_integral(dt, cfg.params))
        for tag in _SIGNS:
            state = _closed_form(tag, comps[tag], dt, cfg.params)
            row += [
                np.trace(state).real,
                _number(state, n).real,
                _purity(state),
                abs(field_tail_weight(state)),
            ]
        rows.append(row)
    _make_out(out_dir)  # after the last check that can fail
    _write_csv(os.path.join(out_dir, "solve.csv"), header, rows)
    return 0, [f"wrote solve.csv ({len(rows)} rows)"]


def cmd_wigner(cfg: RunConfig, out_dir: str) -> tuple[int, list[str]]:
    _require(cfg.wigner is not None, "config.wigner section is required for wigner runs")
    w = cfg.wigner
    comps = _components(cfg.initial_joint())
    alpha0 = _phase_center(comps)
    box = (w["re_min"], w["re_max"], w["n_re"], w["im_min"], w["im_max"], w["n_im"])

    steps = sorted({cfg.grid.step_index(t) for t in w["times"]})
    if steps[-1]:
        traj = integrate_component({"cross": comps["cross"]}, cfg.params, cfg.grid,
                                   store_steps=steps)["cross"]

    states = []  # per step: plus, minus, the cross state's Hermitian and anti-Hermitian parts
    closed = {}  # file stem -> Gaussian grid, all made before the first write
    for i, k in enumerate(steps):
        dt = k * cfg.grid.step
        for tag, sign in _SIGNS.items():
            states.append(_closed_form(tag, comps[tag], dt, cfg.params))
            if cfg.coherent_alpha0 is not None:  # the Gaussian holds for coherent input only
                closed[f"wigner_{tag}_closed_{i:02d}"] = gaussian_grid(dt, cfg.params, sign,
                                                                       alpha0, *box)
        cross = traj.states[k] if k else comps["cross"]
        states += [0.5 * (cross + cross.conj().T), (cross - cross.conj().T) / 2j]
    _make_out(out_dir)  # after the last check that can fail
    for stem, grid in closed.items():
        grid.to_csv(os.path.join(out_dir, stem + ".csv"))
        grid.to_json(os.path.join(out_dir, stem + ".json"))
    names = [f"{tag}_grid" for tag in _SIGNS] + ["cross_herm", "cross_anti"]
    for s, grid in enumerate(wigner_grid(np.stack(states), *box)):
        path = os.path.join(out_dir, f"wigner_{names[s % 4]}_{s // 4:02d}")
        grid.to_csv(path + ".csv")
        if s % 4 < 2:  # the cross parts have no JSON
            grid.to_json(path + ".json")
    return 0, [f"wrote wigner grids for {len(steps)} grid times"]


def build_comparison_report(cfg: RunConfig) -> dict:
    """Run the three evolution routes and collect deviation statistics.

    Routes: brute-force component integration (ground truth), the
    closed-form solutions, and the doubled space at a (possibly reduced)
    truncation, compared on the interior block.  All three measure time
    from grid.t_start and return lab-frame states; the oracle and the
    doubled route each make one run for all three components over the
    run's grid, keep the sample steps and stop at the last.  Each doubled
    branch has one constant lab-frame generator L.  Conjugation by the
    parity P = (-1)^(a+a), which flips the sign of a, maps the minus
    generator onto the plus one, and both keep Hermitian operators
    Hermitian, so plus and minus ride in one block, Z = plus + i P minus P,
    under the plus generator.  The doubled run evolves the vectors of Z and
    cross as one, under the block diagonal of the two (``stacked``), by the
    Strang split of L into its free diagonal and the rest; at each sample
    plus is (Z + Z+) / 2, minus P (-i/2) (Z - Z+) P, and cross its own block.
    The packing is this route's own, apart from the oracle's.
    """
    params = cfg.params
    comps = _components(cfg.initial_joint())
    t0 = cfg.grid.t_start
    h = cfg.grid.step
    sample_ks = sorted({max(1, int(round((t - t0) / h))) for t in cfg.sample_times})

    n_doubled = cfg.doubled_n_trunc
    interior = n_doubled - TAIL_LEVELS
    report = {"tolerances": {"analytic_pm": PM_TOLERANCE, "doubled": DOUBLED_TOLERANCE},
              "doubled_n_trunc": n_doubled, "interior_levels": interior,
              "sample_times": [t0 + k * h for k in sample_ks],
              "components": {}}
    # the oracle runs first and holds the step, before any doubled generator is built
    trajs = integrate_component(comps, params, cfg.grid, store_steps=sample_ks)
    doubled_params = dataclasses.replace(params, n_trunc=n_doubled)
    levels = np.arange(n_doubled)
    # P y P is y times this table, entrywise, for the parity P = (-1)^(a+a)
    parity = np.where(np.add.outer(levels, levels) % 2, -1.0, 1.0)
    truncated = {kind: op0[:n_doubled, :n_doubled] for kind, op0 in comps.items()}
    packed = truncated["plus"] + 1j * np.multiply(truncated["minus"], parity)
    doubled = evolve_vectorized(
        stacked([commutator_generator_factory(doubled_params, sign=1),
                 anticommutator_generator_factory(doubled_params)]),
        np.concatenate([vectorize(packed), vectorize(truncated["cross"])]),
        cfg.grid, store_steps=sample_ks)
    owns = {}  # sample step -> kind -> the doubled route's state
    for k, v in doubled.items():
        z, cross = v.reshape(2, n_doubled, n_doubled)
        owns[k] = {"plus": 0.5 * (z + z.conj().T),
                   "minus": np.multiply(-0.5j * (z - z.conj().T), parity), "cross": cross}
    for kind, op0 in comps.items():
        traj = trajs[kind]
        ana_max = ana_mean = doubled_max = trace_drift = 0.0
        for k in sample_ks:
            t = t0 + k * h
            oracle = traj.states[k]
            ana = _closed_form(kind, op0, t - t0, params)
            dev = np.abs(ana - oracle)
            ana_max = max(ana_max, dev.max())
            ana_mean = max(ana_mean, dev.mean())
            inner = owns[k][kind][:interior, :interior] - oracle[:interior, :interior]
            doubled_max = max(doubled_max, np.abs(inner).max())
            if kind in _SIGNS:
                trace_drift = max(trace_drift,
                                  abs(np.trace(oracle) - np.trace(op0)))
        tight = kind in _SIGNS
        passed = doubled_max <= DOUBLED_TOLERANCE and (not tight or ana_max <= PM_TOLERANCE)
        report["components"][kind] = {
            "analytic_max_dev": float(ana_max),
            "analytic_mean_dev": float(ana_mean),
            "analytic_tight": tight,
            "doubled_max_dev": float(doubled_max),
            "oracle_trace_drift": float(trace_drift),
            "oracle_tail_max": float(traj.tail_max),
            "passed": bool(passed),
        }
    report["overall_pass"] = all(entry["passed"] for entry in report["components"].values())
    return report


def cmd_compare(cfg: RunConfig, out_dir: str) -> tuple[int, list[str]]:
    valid, message = _DOUBLED_N_TRUNC
    _require(valid(cfg.doubled_n_trunc, cfg), f"config.compare.doubled_n_trunc {message}"
             f" (default min(30, params.n_trunc) = {cfg.doubled_n_trunc})")
    report = build_comparison_report(cfg)
    _make_out(out_dir)  # after the last check that can fail
    with open(os.path.join(out_dir, "compare_report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    lines = [f"{kind}: analytic {entry['analytic_max_dev']:.3e}"
             f" (tight={entry['analytic_tight']}),"
             f" doubled-space {entry['doubled_max_dev']:.3e},"
             f" passed={entry['passed']}"
             for kind, entry in report["components"].items()]
    return (0 if report["overall_pass"] else 4), lines


_CSV_DOC = """\
CSV columns:
  observables.csv     t, tr_rho11, n_expect, sigma3, purity, tail_weight
  component_*.csv     t, trace_re, trace_im, number_re, number_im, tail
  solve.csv           t, displacement amplitudes and phase-space centers
                      (re/im per branch), cosh/sinh drive moments,
                      accumulated kernel integral, then per-branch
                      trace/number/purity/tail of the closed-form state
  wigner_*.csv        re, im, w
All numbers use 17-significant-digit round-trip formatting."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jcdamp",
        description="Damped atom-cavity simulator and closed-form solver.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("verb", choices=["simulate", "solve", "wigner", "compare"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    handler = {"simulate": cmd_simulate, "solve": cmd_solve,
               "wigner": cmd_wigner, "compare": cmd_compare}[args.verb]
    try:
        cfg = load_config(args.config)
        if not set(_WRITES.get(args.verb, cfg.outputs)).intersection(cfg.outputs):
            return 0  # nothing to write: no --out either
        code, lines = handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepTooLarge, TailOverflow, ClosedFormOverflow) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file the verb writes: its reads raise ConfigError
        if exc.filename is None:
            raise
        print(f"config error: cannot write {exc.filename!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    if not args.quiet:
        try:
            print(*lines, sep="\n")
            sys.stdout.flush()  # a closed reader fails here, not at the exit flush
        except BrokenPipeError:
            # what is left goes to devnull, so the exit flush cannot fail (exit 120)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
