"""Low-rank solvers for SPD multiterm matrix equations.

Approximates the solution of ``sum_i A_i X B_i^T = F`` on fixed-rank
manifolds by preconditioned Riemannian nonlinear CG, with an optional
rank-adaptive outer loop, plus a truncated-CG baseline for comparison.
"""

from .equations import LowRankRhs, MultitermOperator, residual, residual_norm_exact
from .geometry import (
    FactoredMatrix,
    FixedRankPoint,
    KroneckerMetric,
    LineSearchRetraction,
    TangentVector,
    project,
    transport,
    truncate,
    weighted_svd,
)
from .precond import (
    FadiAmbientPrecond,
    GenSylvesterPrecond,
    IdentityPrecond,
    KronPrecond,
    TangAdiPrecond,
    adi_shifts,
    spectral_interval,
    wachspress_shifts,
)
from .problems import (
    gen_fd_diffusion,
    gen_fd_diffusion_paper,
    gen_stoch_galerkin,
    gen_synthetic,
    fd_diffusion_preconditioners,
)
from .solver_rnlcg import RnlcgOptions, rnlcg_solve
from .solver_rram import RramOptions, rram_solve
from .trunc_cg import truncated_cg_solve

__version__ = "0.1.0"
