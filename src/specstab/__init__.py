"""Observer-based boundary stabilization of 1-D reaction-diffusion equations.

Pipeline: spectral data (sturm_liouville) -> homogenized modal plant
(homogenize) -> gains and certificate blocks (synthesis) -> stability
certificates and SDP export (certificate) -> closed-loop runs (simulate),
with a scenario runner in cli.
"""

from .certificate import (
    Certificate,
    export_sdpa,
    free_p_certificate,
    lyapunov_norm_sweep,
    lyapunov_solve,
    minimal_N,
    optimal_alpha,
    verify_certificate,
)
from .homogenize import (
    BOUNDED,
    DIRICHLET_AT_0,
    NEUMANN_AT_0,
    MeasurementSpec,
    PlantSpec,
    ReducedPlant,
    lifting_functions,
    reduce,
    select_N0,
    tail_constants,
)
from .simulate import (
    LyapunovTrace,
    SimConfig,
    SimResult,
    assemble_sim,
    fit_decay,
    lyapunov_trace,
    run,
)
from .sturm_liouville import (
    DIRICHLET_DIRICHLET,
    NEUMANN_DIRICHLET,
    BoundarySpec,
    CoefficientPair,
    Spectrum,
    analytic_spectrum,
    solve_spectrum,
)
from .synthesis import (
    ClosedLoopMatrices,
    GainSet,
    assemble_closed_loop,
    default_poles,
    design_gains,
    place_controller,
    place_observer,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDED",
    "BoundarySpec",
    "Certificate",
    "ClosedLoopMatrices",
    "CoefficientPair",
    "DIRICHLET_AT_0",
    "DIRICHLET_DIRICHLET",
    "GainSet",
    "LyapunovTrace",
    "MeasurementSpec",
    "NEUMANN_AT_0",
    "NEUMANN_DIRICHLET",
    "PlantSpec",
    "ReducedPlant",
    "SimConfig",
    "SimResult",
    "Spectrum",
    "analytic_spectrum",
    "assemble_closed_loop",
    "assemble_sim",
    "default_poles",
    "design_gains",
    "export_sdpa",
    "fit_decay",
    "free_p_certificate",
    "lyapunov_norm_sweep",
    "lifting_functions",
    "lyapunov_solve",
    "lyapunov_trace",
    "minimal_N",
    "optimal_alpha",
    "place_controller",
    "place_observer",
    "reduce",
    "run",
    "select_N0",
    "solve_spectrum",
    "tail_constants",
    "verify_certificate",
]
