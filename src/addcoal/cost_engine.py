"""Per-merge costs, their means given the split, and checkpoint steps.

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

`SPLIT_MEANS` is the one definition of the mean costs given the ordered
split (L, R) = (l, r), as polynomial coefficients; QFW's min(l, r) is the
one mean that is not a polynomial.  `split_mean` and every limit curve in
`smoluchowski` derive from it.  Given only the merged sizes {x, y}, x is
L with probability x/(x+y), so the mean is (x c(x, y) + y c(y, x))/(x+y),
e.g. 2xy/(x+y) for the prey; that average drops the split's own variance.
Displacement's constant -1/2 sets it below the idealized table value
(x^2+y^2)/(2(x+y)) = E[L/2 | {x, y}] because D lives on {0, ..., L-1}.
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


# E[cost | L = l, R = r] = sum of c l^i r^j over each functional's {(i, j): c}
SPLIT_MEANS = {
    Functional.QF: {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)},
    Functional.QFB: {(0, 1): Fraction(1)},
    Functional.PREY: {(0, 1): Fraction(1)},
    Functional.PREDATOR: {(1, 0): Fraction(1)},
    Functional.DISPLACEMENT: {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 2)},
}


def split_mean(functional: Functional, l, r) -> Fraction:
    """E[cost | L = l, R = r], exact for int sizes."""
    functional = Functional(functional)
    if functional is Functional.QFW:
        return Fraction(min(l, r))
    return sum((c * l**i * r**j for (i, j), c in SPLIT_MEANS[functional].items()), Fraction(0))


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
