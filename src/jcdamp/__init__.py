"""Simulator and closed-form solver for a damped atom-cavity model on a
truncated Fock space, with a brute-force integrator as ground truth."""

from .fock import (
    CoherentState,
    ModelParams,
    StepTooLarge,
    TimeGrid,
    annihilation,
    coherent_state,
    displacement,
    matrix_exponential,
    number_operator,
    tail_weight,
)
from .model import (
    ComponentSet,
    hamiltonian_full,
    split_components,
    to_rotational_picture,
    from_rotational_picture,
)
from .oracle import (
    TailOverflow,
    Trajectory,
    integrate_component,
    integrate_joint,
)
from .doubled import (
    devectorize,
    evolve_vectorized,
    superoperators,
    vectorize,
)
from .solution import (
    ClosedFormOverflow,
    coherent_center,
    damping_weight,
    displacement_amplitude,
    drive_integrals,
    evolve_cross,
    evolve_plus_minus,
    kernel_double_integral,
)
from .factorize import (
    FactorizationProblem,
    PreconditionViolated,
    factorized_propagator,
    time_ordered_propagator,
)
from .wigner import (
    PhaseGrid,
    wigner_at,
    wigner_grid,
    wigner_operator,
)

__version__ = "0.1.0"
