"""Per-merge costs, conditional means, and checkpoint steps.

Six cost functionals are tracked per merge event.  Naming convention
(used consistently across the package): the *predator* is the size-biased
first pick, whose size is the event's L; the *prey* is the uniformly
chosen second cluster, whose size is R.

    QF           min(L, R) or max(L, R) by a fair coin (the event's u)
    QFW          min(L, R), the smaller side
    QFB          R, the non-size-biased side
    Prey         R  (identical to QFB event by event)
    Predator     L
    Displacement D, uniform on {0, ..., L-1} given L

Conditional means given the ordered split (L, R) = (l, r), `split_mean`:

    QF (l+r)/2 | QFW min(l,r) | Prey = QFB r | Predator l | Displacement (l-1)/2

Given only the merged sizes {x, y}, x is L with probability x/(x+y), so
the mean is (x c(x, y) + y c(y, x))/(x+y), e.g. 2xy/(x+y) for the prey;
that average drops the split's own variance.  The displacement mean
carries a -1/2 relative to the idealized table value (x^2+y^2)/(2(x+y))
because D lives on {0, ..., L-1}; at the partial-cost scale this shifts
the limit curve by -alpha/2 (see smoluchowski.phi_closed_form).
"""

import enum
import math
from fractions import Fraction

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


def event_costs(functional: Functional, batch: EventBatch) -> np.ndarray:
    """Vectorized realized costs for a whole run (int64)."""
    functional = Functional(functional)
    if functional is Functional.QF:
        return np.where(batch.u < 0.5, np.minimum(batch.L, batch.R), np.maximum(batch.L, batch.R))
    if functional is Functional.QFW:
        return np.minimum(batch.L, batch.R)
    if functional in (Functional.QFB, Functional.PREY):
        return batch.R
    if functional is Functional.PREDATOR:
        return batch.L
    return batch.D


def split_mean(functional: Functional, l, r) -> Fraction:
    """E[cost | L = l, R = r], exact for int sizes."""
    functional = Functional(functional)
    if functional is Functional.QF:
        return Fraction(l + r, 2)
    if functional is Functional.QFW:
        return Fraction(min(l, r))
    if functional in (Functional.QFB, Functional.PREY):
        return Fraction(r)
    if functional is Functional.PREDATOR:
        return Fraction(l)
    return Fraction(l - 1, 2)


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < 1e-9 * (1.0 + abs(x)) else x


def alpha_in_range(alpha: float) -> bool:
    """Whether an alpha checkpoint lies in [0, 1), where its time -log(1 - alpha) is finite."""
    return 0.0 <= alpha < 1.0


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
