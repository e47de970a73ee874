"""Per-merge costs, conditional means, and checkpoint steps.

Six cost functionals are tracked per merge event.  Naming convention
(used consistently across the package): the *predator* is the size-biased
first pick, whose size is the event's L; the *prey* is the uniformly
chosen second cluster, whose size is R = s + S - L.

    QF           s or S by a fair coin (the event's u)
    QFW          s, the smaller side
    QFB          R, the non-size-biased side
    Prey         R  (identical to QFB event by event)
    Predator     L
    Displacement D, uniform on {0, ..., L-1} given L

Conditional means given merged sizes {x, y}:

    QF (x+y)/2 | QFW min(x,y) | Prey = QFB 2xy/(x+y)
    Predator (x^2+y^2)/(x+y) | Displacement ((x^2+y^2)/(x+y) - 1)/2

The displacement mean carries a -1/2 relative to the idealized table
value (x^2+y^2)/(2(x+y)) because D lives on {0, ..., L-1}; at the
partial-cost scale this shifts the limit curve by -alpha/2 (see
smoluchowski.phi_closed_form's conventions).
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .process_core import EventBatch


class Functional(str, enum.Enum):
    QF = "qf"
    QFW = "qfw"
    QFB = "qfb"
    PREY = "prey"
    PREDATOR = "predator"
    DISPLACEMENT = "displacement"


ALL_FUNCTIONALS = tuple(Functional)

DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_BETA_GRID = tuple(0.25 * i for i in range(17))


@dataclass(frozen=True)
class ConditionalCost:
    """A conditional merge cost c(x, y) with a declared bound A * x^p * y^q."""

    name: str
    mean: Callable[[float, float], float]
    bound: tuple[float, int, int]


def event_costs(functional: Functional, batch: EventBatch) -> np.ndarray:
    """Vectorized realized costs for a whole run (int64)."""
    functional = Functional(functional)
    if functional is Functional.QF:
        return np.where(batch.u < 0.5, batch.s, batch.S)
    if functional is Functional.QFW:
        return batch.s
    if functional in (Functional.QFB, Functional.PREY):
        return batch.R
    if functional is Functional.PREDATOR:
        return batch.L
    return batch.D


def conditional_mean(functional: Functional, x, y):
    """Exact conditional mean of the realized cost given merged sizes {x, y}.

    Returns a Fraction when x and y are ints.
    """
    functional = Functional(functional)
    if functional is Functional.QF:
        return Fraction(x + y, 2)
    if functional is Functional.QFW:
        return Fraction(min(x, y))
    if functional in (Functional.QFB, Functional.PREY):
        return Fraction(2 * x * y, x + y)
    if functional is Functional.PREDATOR:
        return Fraction(x * x + y * y, x + y)
    return (Fraction(x * x + y * y, x + y) - 1) / 2


#: Conditional-mean costs with polynomial bounds, for limit-curve quadrature.
CONDITIONAL_COSTS = {
    Functional.QF: ConditionalCost("qf", lambda x, y: 0.5 * (x + y), (1.0, 1, 1)),
    Functional.QFW: ConditionalCost("qfw", lambda x, y: min(x, y), (1.0, 1, 0)),
    Functional.QFB: ConditionalCost("qfb", lambda x, y: 2.0 * x * y / (x + y), (1.0, 1, 0)),
    Functional.PREY: ConditionalCost("prey", lambda x, y: 2.0 * x * y / (x + y), (1.0, 1, 0)),
    Functional.PREDATOR: ConditionalCost(
        "predator", lambda x, y: (x * x + y * y) / (x + y), (2.0, 1, 1)
    ),
    Functional.DISPLACEMENT: ConditionalCost(
        "displacement", lambda x, y: 0.5 * ((x * x + y * y) / (x + y) - 1.0), (1.0, 1, 1)
    ),
}

#: The idealized displacement cost from the mean-field cost table (no -1/2).
DISPLACEMENT_TABLE_COST = ConditionalCost(
    "displacement-table", lambda x, y: (x * x + y * y) / (2.0 * (x + y)), (1.0, 1, 1)
)


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < 1e-9 * (1.0 + abs(x)) else x


def alpha_step(n: int, alpha: float) -> int:
    """Checkpoint step ceil(alpha * n), clamped to [0, n-1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    m = int(math.ceil(_snap(alpha * n)))
    return min(max(m, 0), n - 1)


def beta_step(n: int, beta: float) -> int:
    """Checkpoint step floor(n - beta * sqrt(n)), clamped to [0, n-1]."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    m = int(math.floor(_snap(n - beta * math.sqrt(n))))
    return min(max(m, 0), n - 1)
