"""addcoal: merging-cost laboratory for the additive coalescent.

Simulates union-find style merge costs along additive-kernel coalescence
chains (direct chain, random spanning tree, circular parking), evaluates
the deterministic mean-field limit curves, and checks both against exact
combinatorial oracles at desk scale.
"""

import os

# One BLAS/OpenMP thread unless the user set one: the package's linear
# algebra is tiny, and an unpinned OpenBLAS pool slowed single quadrature
# calls several times whenever the other cores were busy.  It takes effect
# only when numpy is first imported after this package.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .cost_engine import (  # noqa: F401, E402
    ALL_FUNCTIONALS,
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
)
from .process_core import (  # noqa: F401, E402
    Embedding,
    EventBatch,
    simulate,
)
from .seeding import make_rng, substream_rng, substream_seed  # noqa: F401, E402
