"""Digests recorded once, that any change to the draws, the replay kernels, the
cost fold or the limit curves must keep: bit-identical results."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from addcoal.cost_engine import ALL_FUNCTIONALS, DEFAULT_ALPHA_GRID, Functional
from addcoal.exact_oracles import enumerate_parking
from addcoal.experiment import ExperimentSpec, regime_sweep, run_monte_carlo
from addcoal.process_core import Embedding
from addcoal.smoluchowski import (
    phi_classical_table,
    phi_closed_form,
    phi_comparison_curve,
    phi_curve_quadrature,
)

# (embedding, n, reps) -> sha256 of run_monte_carlo's arrays at seed 7.  Each
# run is one block but n = 50's: n = 2 replays in lockstep, and n = 8 and 300
# walk every row; n = 50 with 340 replications replays one lockstep block of
# 327 rows, then walks a block of 13.
# n = 65536 is `_replay.COMPACT_N`, so its direct and parking walks run over
# int32 memoryview state where every smaller n runs over lists; the tree
# run, which has no walk, pins one long chain's numpy replay.
MONTE_CARLO = {
    ("direct", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("direct", 8, 5): "29cd7000eb0027a096bd5dc264ea705d4de4814e5454c00ec11d63e775e17c56",
    ("direct", 50, 340): "1b20298f5d2b91f6dcc8a844e072ea9f3014b2278f49192b7bc8ec59329d4185",
    ("direct", 300, 3): "a65b089b2deb1bbcae09fa9c14d031a174982e14e7032119ba6223fb9c85d3bb",
    ("direct", 65536, 1): "b517ce71ffe270964adae72696e4497b1312f03a1f25de76d4d2827b1f335e64",
    ("tree", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("tree", 8, 5): "95f10b585c56b0abfbb33961a756c3c43dd7c399c585885ca55bab81d0c7c5f0",
    ("tree", 50, 340): "4530b8501e42f5ee1db0c0c87757a1422679161afd433703edf750aa5d8e9bc1",
    ("tree", 300, 3): "68aa145391cacb73ebeebca5aa18ff4854c0628e721ce83e7e2b76e45b826d55",
    ("tree", 65536, 1): "9ba423de47ac8676670fe84aa24abc628634cbfc7aadd531a68100ee172a93a1",
    ("parking", 2, 3): "a6d917ec92695942f8cde0f213c66be573681ffebce364ac3fb07918efdb2177",
    ("parking", 8, 5): "9d080cc30c86fdf0ef661fbc51a0e7a49c6e1363e57427f3ee341deb95883e6b",
    ("parking", 50, 340): "9032d39b7a0b8ba7cbc2c21dde5176685f2b60862989d3d420ee1c618741273c",
    ("parking", 300, 3): "9af9080c937d6171582c466b8178c2cbcbd4aac453e5d71e8220e777b786f9d1",
    ("parking", 65536, 1): "fec42be84820159698f57b31f6b06ace8f91079b1dda18384d16c0eeef9e6532",
}
# embedding -> sha256 of regime_sweep((2, 20, 300), 0.15, reps=25, seed=7): each
# row's n, k_sparse, k_full and SummaryStats fields as float64 bytes.  With 25
# replications n = 20 is one lockstep block, n = 300 one walked block, and
# n = 2 the degenerate chain of one merge.
REGIME = {
    "direct": "8b96362774eb3a8c9ca29321947b11fc93fff955be4a26498c837ff91ef979f3",
    "tree": "ed3dd9e1cab722d28c837b575726a4263d184f318f14e372b21484e02bcaa972",
    "parking": "25b442e03ca7744df298d1ce24f39bdd9f3dac498cf5ab26d2a35f77c91e85a2",
}
# (n, reps) -> sha256 of the displacement-only parking run at seed 7, which
# takes the order-free scan of the first tries and no replay: n = 20 with 25
# replications reads one lockstep block of raw words, n = 300 with 3 a
# block of one Generator per row.
SCAN = {
    (20, 25): "55a40757741fa087d5863d2f6a7946baa1a8c527d465bc40b9d0aafcceec2cd5",
    (300, 3): "ac31823ab0b3997f36a4c4f0f81aaaf768cbf610354a07accaaa8ba85a7e097a",
}
ROOT = Path(__file__).resolve().parent.parent
PARKING_5 = "b26db970bf21142a4192666c8cda1e545a23d6db31aff01ddf0e670955d42447"


def _result_digest(result):
    h = hashlib.sha256()
    for values in (result.alpha_values, result.beta_values, result.totals):
        for functional, array in values.items():
            h.update(functional.value.encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("embedding, n, reps", list(MONTE_CARLO))
def test_monte_carlo_arrays_keep_their_digest(embedding, n, reps):
    beta_grid = tuple(b for b in (0.0, 1.0, 2.0) if b * b <= n)
    result = run_monte_carlo(ExperimentSpec(n=n, embedding=embedding, reps=reps, seed=7,
                                            beta_grid=beta_grid))
    assert _result_digest(result) == MONTE_CARLO[embedding, n, reps]


@pytest.mark.parametrize("n, reps", list(SCAN))
def test_parking_scan_keeps_its_digest(n, reps):
    result = run_monte_carlo(ExperimentSpec(n, embedding="parking", functionals=("displacement",),
                                            reps=reps, seed=7, alpha_grid=(), beta_grid=(0.0,)))
    assert _result_digest(result) == SCAN[n, reps]


@pytest.mark.parametrize("embedding", list(REGIME))
def test_regime_sweep_keeps_its_digest(embedding):
    h = hashlib.sha256()
    for r in regime_sweep((2, 20, 300), 0.15, reps=25, seed=7, embedding=Embedding(embedding)):
        values = [r.n, r.k_sparse, r.k_full] + [getattr(st, k) for st in (r.sparse, r.full)
                                                for k in ("count", "mean", "m2", "min", "max")]
        h.update(np.array(values, np.float64).tobytes())
    assert h.hexdigest() == REGIME[embedding]


def test_parking_enumeration_keeps_its_digest():
    law = repr(sorted(enumerate_parking(5).probs.items())).encode()
    assert hashlib.sha256(law).hexdigest() == PARKING_5


# sha256 over the float.hex of the limit layer's curves: the closed-form curves
# on a dense alpha grid with tiny and subnormal alpha, and the quadrature's
# (value, error, kmax) for every functional on the default 19-point grid.
# The quadrature's bits are those of log q = (k-1) log w + A_k - k w - t with
# A_k = log(k^(k-1) / k!) from Stirling's series past k = 100, of the
# adaptive 5/10-point Gauss-Legendre panels, and of numpy's pairwise sums
# (`np.add.reduce`), which use no BLAS, so no thread count moves them.
LIMIT_CURVES = "91c4921d878f8d564f748184fd6c1ff495f311bbdb0b98d3d812cf27282052d0"
TINY_ALPHAS = (5e-324, 1e-310, 1e-200, 1e-17, 2.0**-53, 1e-9, 1e-5)


def limit_curves_digest():
    alphas = TINY_ALPHAS + tuple(i / 2000 for i in range(2000)) + (0.9995, 0.99999)
    h = hashlib.sha256()
    for functional in ALL_FUNCTIONALS:
        h.update(functional.value.encode())
        if functional is not Functional.QFW:
            for curve in (phi_closed_form, phi_comparison_curve, phi_classical_table):
                h.update(" ".join(curve(functional, a).hex() for a in alphas).encode())
        for r in phi_curve_quadrature(functional, DEFAULT_ALPHA_GRID):
            h.update(f"{r.value.hex()} {r.error.hex()} {r.kmax}".encode())
    return h.hexdigest()


def test_limit_curves_keep_their_digest():
    assert limit_curves_digest() == LIMIT_CURVES


def test_limit_curves_do_not_depend_on_the_blas_thread_count():
    # numpy imported first, with a two-thread BLAS pool: nothing can pin it to one
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = ("import numpy, runpy, sys; "
            "print(runpy.run_path(sys.argv[1])['limit_curves_digest']())")
    out = subprocess.run([sys.executable, "-c", code, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == LIMIT_CURVES
