"""Exact solvers, oracles, and a CLI for the interval-shortfall objective.

The objective sums (x - interval sum)^+ over all index intervals of a
nonnegative vector; minimizing it over a fixed coordinate budget yields the
sharp lower end of the variance range of queueing externalities.  The
package provides closed-form minimizers over structured placements and over
the full simplex slab, independent brute-force/lattice/subgradient oracles,
and a verification harness that decides the construction's open regime by an
exact LP dual certificate.
"""

__version__ = "0.1.0"

from .combinatorial import DeltaCertificate, TauPair, enumerate_gamma, solve_combinatorial
from .continuous import solve_continuous, solve_continuous_integer
from .errors import (
    ConstructionError,
    ExtoptError,
    SizeCapError,
    StabilityError,
    TrivialRegimeError,
    ValidationError,
)
from .model import Instance, QueueParams, eval_f, externality_mean, externality_variance
from .oracle import (
    SubgradientConfig,
    SubgradientResult,
    VerifyReport,
    brute_force_combinatorial,
    grid_search,
    projected_subgradient,
    verify_conjecture,
)
from .report import (
    CONFIRMED,
    CONJECTURED,
    INCONCLUSIVE,
    PROVEN,
    VIOLATED,
    SolveReport,
)

__all__ = [
    "__version__",
    "CONFIRMED",
    "CONJECTURED",
    "ConstructionError",
    "DeltaCertificate",
    "ExtoptError",
    "INCONCLUSIVE",
    "Instance",
    "PROVEN",
    "QueueParams",
    "SizeCapError",
    "SolveReport",
    "StabilityError",
    "SubgradientConfig",
    "SubgradientResult",
    "TauPair",
    "TrivialRegimeError",
    "VIOLATED",
    "ValidationError",
    "VerifyReport",
    "brute_force_combinatorial",
    "enumerate_gamma",
    "eval_f",
    "externality_mean",
    "externality_variance",
    "grid_search",
    "projected_subgradient",
    "solve_combinatorial",
    "solve_continuous",
    "solve_continuous_integer",
    "verify_conjecture",
]
