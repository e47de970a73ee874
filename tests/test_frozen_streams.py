"""Digests recorded once, that any change to the draws, the replay kernels, the
cost fold or the limit curves must keep: bit-identical results."""

import hashlib

import numpy as np
import pytest

from addcoal.cost_engine import ALL_FUNCTIONALS, DEFAULT_ALPHA_GRID, Functional
from addcoal.exact_oracles import enumerate_parking
from addcoal.experiment import ExperimentSpec, run_monte_carlo
from addcoal.smoluchowski import (
    phi_classical_table,
    phi_closed_form,
    phi_comparison_curve,
    phi_curve_quadrature,
)

# (embedding, n, reps) -> sha256 of run_monte_carlo's arrays at seed 7.  At
# n = 2 and 8 every replication walks alone; n = 50 with 340 replications
# replays one lockstep block of 327 rows, then 13 walks; n = 300 walks.
MONTE_CARLO = {
    ("direct", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("direct", 8, 5): "29cd7000eb0027a096bd5dc264ea705d4de4814e5454c00ec11d63e775e17c56",
    ("direct", 50, 340): "1b20298f5d2b91f6dcc8a844e072ea9f3014b2278f49192b7bc8ec59329d4185",
    ("direct", 300, 3): "a65b089b2deb1bbcae09fa9c14d031a174982e14e7032119ba6223fb9c85d3bb",
    ("tree", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("tree", 8, 5): "95f10b585c56b0abfbb33961a756c3c43dd7c399c585885ca55bab81d0c7c5f0",
    ("tree", 50, 340): "4530b8501e42f5ee1db0c0c87757a1422679161afd433703edf750aa5d8e9bc1",
    ("tree", 300, 3): "68aa145391cacb73ebeebca5aa18ff4854c0628e721ce83e7e2b76e45b826d55",
    ("parking", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("parking", 8, 5): "9d080cc30c86fdf0ef661fbc51a0e7a49c6e1363e57427f3ee341deb95883e6b",
    ("parking", 50, 340): "9032d39b7a0b8ba7cbc2c21dde5176685f2b60862989d3d420ee1c618741273c",
    ("parking", 300, 3): "9af9080c937d6171582c466b8178c2cbcbd4aac453e5d71e8220e777b786f9d1",
}
PARKING_5 = "b26db970bf21142a4192666c8cda1e545a23d6db31aff01ddf0e670955d42447"


@pytest.mark.parametrize("embedding, n, reps", list(MONTE_CARLO))
def test_monte_carlo_arrays_keep_their_digest(embedding, n, reps):
    beta_grid = tuple(b for b in (0.0, 1.0, 2.0) if b * b <= n)
    result = run_monte_carlo(ExperimentSpec(n=n, embedding=embedding, reps=reps, seed=7,
                                            beta_grid=beta_grid))
    h = hashlib.sha256()
    for values in (result.alpha_values, result.beta_values, result.totals):
        for functional, array in values.items():
            h.update(functional.value.encode())
            h.update(np.ascontiguousarray(array).tobytes())
    assert h.hexdigest() == MONTE_CARLO[embedding, n, reps]


def test_parking_enumeration_keeps_its_digest():
    law = repr(sorted(enumerate_parking(5).probs.items())).encode()
    assert hashlib.sha256(law).hexdigest() == PARKING_5


# sha256 over the float.hex of the limit layer's curves: the closed-form curves
# on a dense alpha grid with tiny and subnormal alpha, and the quadrature's
# (value, error, kmax) for every functional on the default 19-point grid.
# The quadrature's bits are those of log q = (k-1) log w + A_k - k w - t with
# A_k = log(k^(k-1) / k!) from Stirling's series past k = 100.  With one BLAS
# thread, as conftest pins: a threaded np.dot moves the last bits at 32768.
LIMIT_CURVES = "439f2f414e12158c54c376f85f6e321f7cc9cd363d0e34dfc7133130ccdbafe1"
TINY_ALPHAS = (5e-324, 1e-310, 1e-200, 1e-17, 2.0**-53, 1e-9, 1e-5)


def test_limit_curves_keep_their_digest():
    alphas = TINY_ALPHAS + tuple(i / 2000 for i in range(2000)) + (0.9995, 0.99999)
    h = hashlib.sha256()
    for functional in ALL_FUNCTIONALS:
        h.update(functional.value.encode())
        if functional is not Functional.QFW:
            for curve in (phi_closed_form, phi_comparison_curve, phi_classical_table):
                h.update(" ".join(curve(functional, a).hex() for a in alphas).encode())
        for r in phi_curve_quadrature(functional, DEFAULT_ALPHA_GRID):
            h.update(f"{r.value.hex()} {r.error.hex()} {r.kmax}".encode())
    assert h.hexdigest() == LIMIT_CURVES
