"""The benchmark's named workloads and how a seed turns into inputs.

Each workload is a full jcdamp run configuration, sized so that every verb
call takes well under the per-verb share of a run and gets several samples
(see README.md).  The seed picks one of ``PHASE_STEPS`` rotations of the
initial coherent amplitude, in steps of ``PHASE_STEP_DEG`` degrees; the
magnitude, the grids and hence the cost stay fixed.  The arc is kept narrow
on purpose: over wider arcs the compare deviations, and so
``accuracy_margin``, change by up to 3x.  Seed 0 is the unrotated
configuration.
"""

from __future__ import annotations

import cmath
import copy
import math

PHASE_STEPS = 8
PHASE_STEP_DEG = 1.0
DEFAULT_SEED = 0

_VERBS_OUTPUTS = ["trajectory", "components", "wigner", "compare"]

BASE = {
    # The README example's physics, step, truncations and storage stride over
    # about a quarter of its time span, on an 11x11 Wigner grid: per-point
    # dense expm dominates wigner, doubled-space expm_multiply dominates
    # compare.
    "readme": {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 40},
        "initial": {"coherent_alpha0": [1.0, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 1.2, "n_steps": 300},
        "outputs": _VERBS_OUTPUTS,
        "wigner": {"re_min": -2.0, "re_max": 2.0, "n_re": 11,
                   "im_min": -2.0, "im_max": 2.0, "n_im": 11,
                   "times": [0.0, 0.6, 1.2]},
        "compare": {"doubled_n_trunc": 30},
        "snapshot_times": [1.2],
        "store_every": 25,
        "picture": "schrodinger",
    },
    # Long g*t: the nested-Simpson kernel integral dominates solve; small N
    # keeps RK4 overhead-bound; the only rotating-frame joint right-hand side.
    "long_horizon": {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 28},
        "initial": {"coherent_alpha0": [1.0, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 10.0, "n_steps": 1000},
        "outputs": _VERBS_OUTPUTS,
        "wigner": {"re_min": -3.0, "re_max": 3.0, "n_re": 11,
                   "im_min": -3.0, "im_max": 3.0, "n_im": 11,
                   "times": [10.0]},
        "compare": {"doubled_n_trunc": 16},
        "store_every": 100,
        "picture": "rotational",
    },
    # Dense N^3 kernels dominate: expm at N=64, 128x128 RK4 products and the
    # Kraus sum; quadrature is light.
    "large_fock": {
        "params": {"omega": 1.0, "coupling": 0.3, "gamma": 0.2, "n_trunc": 64},
        "initial": {"coherent_alpha0": [2.5, 1.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 160},
        "outputs": _VERBS_OUTPUTS,
        "wigner": {"re_min": -4.0, "re_max": 4.0, "n_re": 9,
                   "im_min": -4.0, "im_max": 4.0, "n_im": 9,
                   "times": [1.0]},
        "compare": {"doubled_n_trunc": 40},
        "snapshot_times": [1.0],
        "store_every": 4,
        "picture": "schrodinger",
    },
}

NAMES = tuple(BASE)


def phase_index(seed: int) -> int:
    return seed % PHASE_STEPS


def phase_deg(seed: int) -> float:
    return phase_index(seed) * PHASE_STEP_DEG


def _rotated(pair, deg: float):
    z = complex(*pair) * cmath.exp(1j * math.radians(deg))
    return [z.real, z.imag]


def config(workload: str, seed: int) -> dict:
    """The run configuration of ``workload`` for ``seed``."""
    cfg = copy.deepcopy(BASE[workload])
    if phase_index(seed):
        cfg["initial"]["coherent_alpha0"] = _rotated(cfg["initial"]["coherent_alpha0"],
                                                     phase_deg(seed))
    return cfg


def smoke_config(workload: str, seed: int) -> dict:
    """A tiny configuration on the same code paths as ``workload``
    (picture, snapshots, output kinds), for the benchmark's self-test."""
    cfg = config(workload, seed)
    alpha = complex(*cfg["initial"]["coherent_alpha0"])
    cfg["params"]["n_trunc"] = 14
    cfg["initial"]["coherent_alpha0"] = [0.5 * alpha.real / abs(alpha),
                                         0.5 * alpha.imag / abs(alpha)]
    cfg["grid"] = {"t_start": 0.0, "t_end": 0.5, "n_steps": 50}
    cfg["wigner"] = {"re_min": -1.0, "re_max": 1.0, "n_re": 3,
                     "im_min": -1.0, "im_max": 1.0, "n_im": 3, "times": [0.5]}
    cfg["compare"] = {"doubled_n_trunc": 12}
    cfg["store_every"] = 10
    if "snapshot_times" in cfg:
        cfg["snapshot_times"] = [0.5]
    return cfg
