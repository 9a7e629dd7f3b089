"""collapsim: Monte Carlo simulation and statistical verification of
discrete-jump and continuous spontaneous collapse models.

The package simulates three coupled processes on a uniform 1-D grid: the
jump collapse process (unitary evolution interrupted by Gaussian hits at
exponential times), the linear diffusion collapse equation integrated by
deterministic-step splitting with exact Gaussian flows, and the hybrid
process that alternates random-duration unitaries with mesh-cell flows.
Reweighting raw squared norms connects the reference and physical
measures, and the verification harness turns every quantitative identity
of the construction into a seeded, reproducible statistical test.
"""

from .errors import (
    ArchiveError,
    CollapsimError,
    ConfigError,
    DegenerateStateError,
    GridMismatchError,
    GridTooSmallError,
    InvalidParameterError,
    ScheduleMismatchError,
    StepTooLargeError,
)
from .grid import (
    CollapseSpec,
    Grid,
    HamiltonianSpec,
    WaveFunction,
    boundary_mass,
    collapse_flow,
    cosine_potential,
    evolve_unitary,
    gaussian_hit,
    inner,
    make_gaussian_packet,
    norm2,
    normalize,
    position_mean,
    position_variance,
    schrodinger_step,
)
from .grw import (
    GrwParams,
    flash_density,
    grw_ensemble,
    grw_trajectory,
    sample_flash_center,
    sample_jump_times,
)
from .diosi import (
    DiosiParams,
    HybridParams,
    diosi_ensemble,
    diosi_trajectory,
    hybrid_ensemble,
    hybrid_trajectory,
)
from .master import (
    DensityMatrix,
    ensemble_density,
    evolve_diosi_master,
    evolve_grw_master,
)
from .records import FlashEvent, TrajectoryRecord, WeightedEnsemble, reweight_ensemble
from .verify import (
    TestFunctional,
    TestReport,
    check_condition_I_bound,
    check_fdd_convergence,
    check_flash_vs_increment,
    check_kappa_lemma,
    check_norm_martingale,
)

__version__ = "0.1.0"
