"""Solver result container and the status vocabulary shared across modules."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .model import _materialize

if TYPE_CHECKING:  # pragma: no cover
    from .combinatorial import DeltaCertificate, TauPair
    from .model import Instance, Placement

PROVEN = "PROVEN"
CONJECTURED = "CONJECTURED"
CONFIRMED = "CONFIRMED"
VIOLATED = "VIOLATED"  # reserved: verify no longer produces it
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SolveReport:
    """A solution with its exact objective and solver provenance.

    ``placed`` holds the solution's nonzero entries as a `model.Placement`,
    nested tuples (runs, values), so the report stays hashable: each run
    is a unit of (zeros, code) tokens and its count.  ``vector``, the
    length-n tuple, is built from it on first access.  ``status`` is PROVEN
    when a theorem certifies optimality and CONJECTURED when only the
    general duo construction backs it.
    The widest gap ``delta_star`` of a structured placement, the
    certificate of its search and the gap bounds ride along when available.
    """

    instance: "Instance"
    placed: "Placement"
    objective: Fraction
    status: str
    method: str
    delta_star: Optional[int] = None
    delta_cert: Optional["DeltaCertificate"] = None
    tau_main: Optional["TauPair"] = None
    tau_next: Optional["TauPair"] = None

    @functools.cached_property
    def vector(self) -> tuple[Fraction, ...]:
        return _materialize(self.instance.n, self.placed)
