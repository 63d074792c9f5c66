"""radialcap: sufficient p-parabolicity criteria for submanifolds described
by radial comparison data, with the capacities and Dirichlet profiles on
warped-product models that underlie them, and independent numerical oracles
(closed forms, an ODE solver and a stochastic cross-check) for every piece.
"""

__version__ = "0.1.0"

from .constellation import (   # noqa: F401
    BalanceProfile, Constellation, Tangency, WeightFunction, balance,
    balance_shift_identity_check, balance_sign,
)
from .criteria import (        # noqa: F401
    ClassifyConfig, InconclusiveReason, SweepRow, Verdict, classify,
    classify_bounded_w, classify_monotone, sweep,
)
from .diffusion import (       # noqa: F401
    DiffusionConfig, HittingStats, exact_hitting_prob, simulate_radial,
)
from .dirichlet import (       # noqa: F401
    OdeSolution, RadialSolution, drift_coeff, drifted_capacity, flux_bound,
    operator_residual, solve_dirichlet_closed, solve_dirichlet_ode,
)
from .errors import (          # noqa: F401
    ConfigError, DomainError, ParseError, QuadratureError, RadialCapError,
    UnknownIdentifierError,
)
from .expr import Jet2, RadialExpr, eval_jet2, evaluate, parse  # noqa: F401
from .model import (           # noqa: F401
    ModelSpace, ValidationReport, exact_annulus_p_capacity, sphere_volume,
    validate_warping,
)
from .quadrature import (      # noqa: F401
    TailClass, TailConfig, classify_tail, integrate,
)
