"""addcoal: merging-cost laboratory for the additive coalescent.

Simulates union-find style merge costs along additive-kernel coalescence
chains (direct chain, random spanning tree, circular parking), evaluates
the deterministic mean-field limit curves, and checks both against exact
combinatorial oracles at desk scale.
"""

__version__ = "0.1.0"

from .cost_engine import (  # noqa: F401
    ALL_FUNCTIONALS,
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
)
from .process_core import (  # noqa: F401
    Embedding,
    EventBatch,
    simulate,
)
from .seeding import make_rng, substream_rng, substream_seed  # noqa: F401
