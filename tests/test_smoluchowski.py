import decimal
import math

import numpy as np
import pytest
from scipy.special import gammaln

import addcoal.smoluchowski as sm
from addcoal.cost_engine import ALL_FUNCTIONALS, DEFAULT_ALPHA_GRID, Functional, split_mean
from addcoal.smoluchowski import (
    _BATCH_CELLS,
    _EXP_ZERO,
    QuadratureError,
    _gauss_panels,
    _Integrand,
    _choose_kmax,
    _cached_k_table,
    _k_terms,
    _live_columns,
    _q_from_terms,
    alpha_to_time,
    log_tree_coefficient,
    moment,
    phi_closed_form,
    phi_comparison_curve,
    phi_curve_quadrature,
    phi_classical_table,
    q,
    q_vector,
    smoluchowski_rhs,
)

LOG2 = math.log(2.0)


def test_q_initial_condition():
    assert q(1, 0.0) == 1.0
    for k in range(2, 12):
        assert q(k, 0.0) == 0.0


def test_q_monomer_value():
    # q(1, t) = exp(-t - (1 - e^-t)); at t = log 2 this is 0.5 e^-0.5
    expected = 0.5 * math.exp(-0.5)
    assert abs(q(1, LOG2) - expected) < 1e-15
    assert abs(expected - 0.30327) < 5e-6


def test_q_nonnegative_and_vector_consistency():
    for t in (0.05, 0.7, 2.5):
        qv = q_vector(64, t)
        assert (qv >= 0.0).all()
        for k in (1, 2, 5, 40):
            assert abs(qv[k - 1] - q(k, t)) < 1e-15
    # the scalar q has the row's exponent bit for bit; math.exp and numpy's vectorised
    # exp may still differ by an ulp, so each value is within 2 ulps of its row entry
    worst, compared = 0.0, 0
    for t in (1e-3, 0.05, 0.2545, 0.5, 1.0, 2.0, 3.0, 3.9):
        qv = q_vector(32768, t).tolist()
        for k, v in enumerate(qv, start=1):
            if v > 1e-300:
                worst = max(worst, abs(q(k, t) / v - 1.0))
                compared += 1
    assert compared > 100_000 and worst <= 2.0**-51, worst


def test_q_rejects_bad_args():
    with pytest.raises(ValueError):
        q(0, 1.0)
    with pytest.raises(ValueError):
        q(1, -0.1)


def test_moments_closed_form():
    assert moment(0.0, 0) == 1.0
    assert moment(1.0, 1) == 1.0
    assert abs(moment(1.0, 2) - math.e**2) < 1e-12
    assert abs(moment(1.0, 2) - 7.38906) < 5e-6


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_moments_truncated_sum(t, p):
    assert abs(moment(t, p, "sum") - moment(t, p)) < 1e-8


def test_alpha_to_time():
    assert alpha_to_time(0.0) == 0.0
    assert abs(alpha_to_time(0.5) - LOG2) < 1e-15
    assert abs(alpha_to_time(1.0 - math.exp(-1.0)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        alpha_to_time(1.0)
    with pytest.raises(ValueError):
        alpha_to_time(-0.2)


def test_phi_closed_form_values():
    assert phi_closed_form(Functional.QF, 0.0) == 0.0
    assert abs(phi_closed_form(Functional.PREY, 0.5) - LOG2) < 1e-15
    assert abs(phi_closed_form(Functional.QFB, 0.5) - LOG2) < 1e-15
    assert abs(phi_closed_form(Functional.PREDATOR, 0.5) - 1.0) < 1e-15
    assert abs(phi_closed_form(Functional.DISPLACEMENT, 0.5) - 0.5) < 1e-15
    assert abs(phi_closed_form(Functional.QF, 0.5) - (0.5 + 0.5 * LOG2)) < 1e-15
    assert abs(phi_closed_form(Functional.QF, 0.5) - 0.8466) < 1e-4


def test_phi_displacement_floor():
    # probe-distance convention: alpha/(2(1-alpha)) - alpha/2, bit for bit
    for a in [i / 100 for i in range(99)] + [0.95, 0.98, 0.999]:
        assert phi_comparison_curve(Functional.DISPLACEMENT, a) == 0.5 * a / (1.0 - a) - 0.5 * a
    assert phi_comparison_curve(Functional.DISPLACEMENT, 0.0) == 0.0
    assert abs(phi_comparison_curve(Functional.DISPLACEMENT, 0.5) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        phi_comparison_curve(Functional.DISPLACEMENT, 1.0)
    assert phi_comparison_curve(Functional.PREY, 0.5) == phi_closed_form(Functional.PREY, 0.5)


def test_phi_classical_table_offsets():
    # table entries for QF, Predator, Displacement sit 1/2, 1, 1/2 above
    # the phi(0) = 0 normalization, at every alpha
    for alpha in (0.0, 0.3, 0.7):
        assert abs(
            phi_classical_table(Functional.QF, alpha) - phi_closed_form(Functional.QF, alpha) - 0.5
        ) < 1e-12
        assert abs(
            phi_classical_table(Functional.PREDATOR, alpha)
            - phi_closed_form(Functional.PREDATOR, alpha) - 1.0
        ) < 1e-12
        assert abs(
            phi_classical_table(Functional.DISPLACEMENT, alpha)
            - phi_closed_form(Functional.DISPLACEMENT, alpha) - 0.5
        ) < 1e-12
    assert phi_classical_table(Functional.QFW, 0.5) is None


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
def test_every_closed_form_curve_rejects_alpha_outside_the_unit_interval(alpha):
    for functional in ALL_FUNCTIONALS:
        for curve in (phi_closed_form, phi_comparison_curve, phi_classical_table):
            with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\)"):
                curve(functional, alpha)


def phi_at(functional, alpha, **kw):
    """phi(alpha) from the quadrature driver on a one-point grid."""
    return phi_curve_quadrature(functional, [alpha], **kw)[0].value


def test_phi_quadrature_zero_alpha():
    assert phi_at(Functional.QF, 0.0) == 0.0


@pytest.mark.parametrize("functional", [Functional.QF, Functional.PREY, Functional.PREDATOR])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_phi_quadrature_matches_closed_forms(functional, alpha):
    value = phi_at(functional, alpha, tol=1e-9)
    assert abs(value - phi_closed_form(functional, alpha)) < 1e-7


def test_phi_quadrature_displacement_floor_convention():
    value = phi_at(Functional.DISPLACEMENT, 0.6, tol=1e-9)
    floor = phi_comparison_curve(Functional.DISPLACEMENT, 0.6)
    assert abs(value - floor) < 1e-7
    # the table cost (x^2+y^2)/(2(x+y)) is 1/2 above the floor cost per merge
    gap = phi_closed_form(Functional.DISPLACEMENT, 0.6) - floor
    assert abs(gap - 0.6 / 2) < 1e-15


def test_qfw_min_vs_max_kernels_differ():
    # the two candidate QFW kernels are empirically distinguishable;
    # max(k, l) = (k + l) - min(k, l), so the max-side curve is 2 phi_QF - phi_QFW
    v_min = phi_at(Functional.QFW, 0.5, tol=1e-9)
    v_max = 2.0 * phi_closed_form(Functional.QF, 0.5) - v_min
    assert v_max - v_min > 0.1


def test_phi_quadrature_validation():
    with pytest.raises(ValueError):
        phi_at(Functional.QF, 0.999)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            phi_at(Functional.QF, 0.5, tol=tol)
    with pytest.raises(ValueError):
        phi_at(lambda x, y: x, 0.5)


def test_phi_curve_monotone_and_consistent():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    curve = phi_curve_quadrature(Functional.QFW, grid, tol=1e-9)
    values = [r.value for r in curve]
    assert values[0] > 0.0
    assert all(a < b for a, b in zip(values, values[1:]))
    single = phi_at(Functional.QFW, 0.5, tol=1e-9)
    assert abs(values[2] - single) < 1e-7


def test_phi_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        phi_curve_quadrature(Functional.QF, [0.5, 0.5])
    with pytest.raises(ValueError):
        phi_curve_quadrature(Functional.QF, [0.2, 0.999])


def test_phi_closed_form_rejects_qfw():
    with pytest.raises(ValueError):
        phi_closed_form(Functional.QFW, 0.5)
    with pytest.raises(ValueError):
        phi_comparison_curve(Functional.QFW, 0.5)


def test_quadrature_depth_cap_reported(monkeypatch):
    monkeypatch.setattr(sm, "_MAX_DEPTH", 1)
    with pytest.raises(QuadratureError, match="within depth 1"):
        phi_at(Functional.QFW, 0.5, tol=1e-300)


QFW_GRID = tuple(round(0.05 * i, 2) for i in range(1, 19))  # 0.05 .. 0.90
PREY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05 .. 0.95
FINE_GRID = tuple(round(0.02 * i, 2) for i in range(1, 46))  # 0.02 .. 0.90


def one_cutoff_curve(functional, alphas, tol):
    """(value, error) per point with one integrand for the whole curve, at the
    cutoff certified at the last point: the design per-segment cutoffs replace."""
    integrand = _Integrand(functional, _choose_kmax(alpha_to_time(alphas[-1]), tol))
    seg_tol = tol / len(alphas)
    out, acc, err_acc, t_prev = [], 0.0, 0.0, 0.0
    for a in alphas:
        t_next = alpha_to_time(a)
        val, err = _gauss_panels(integrand, t_prev, t_next, seg_tol)
        acc += val
        err_acc += err
        out.append((acc, err_acc))
        t_prev = t_next
    return out


@pytest.mark.parametrize("functional, grid", [(Functional.QFW, QFW_GRID),
                                              (Functional.PREY, PREY_GRID)])
def test_per_segment_cutoffs_match_one_cutoff_on_benchmark_grids(functional, grid):
    curve = phi_curve_quadrature(functional, grid, tol=1e-8)
    assert [(r.value, r.error) for r in curve] == one_cutoff_curve(functional, grid, 1e-8)


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_per_segment_cutoffs_on_a_fine_grid(functional):
    curve = phi_curve_quadrature(functional, FINE_GRID, tol=1e-8)
    reference = one_cutoff_curve(functional, FINE_GRID, 1e-8)
    assert max(abs(r.value - v) for r, (v, _) in zip(curve, reference)) < 1e-12
    assert max(abs(r.error - e) for r, (_, e) in zip(curve, reference)) < 1e-12
    # each point records the cutoff certified at its segment's end
    kmaxes = [r.kmax for r in curve]
    assert kmaxes == [_choose_kmax(alpha_to_time(a), 1e-8) for a in FINE_GRID]
    assert all(a <= b for a, b in zip(kmaxes, kmaxes[1:]))
    assert kmaxes[0] == 1024 and kmaxes[-1] == 8192


def test_cutoff_does_not_decrease_in_t():
    # subnormal last terms (K = 1024 near t = 0.2545) must not raise the cutoff
    ts = np.linspace(0.01, -math.log(0.02), 400)
    kmaxes = [_choose_kmax(float(t), 1e-8) for t in ts]
    assert all(a <= b for a, b in zip(kmaxes, kmaxes[1:]))
    assert _choose_kmax(0.2545, 1e-8) == 1024


@pytest.mark.parametrize("grid", [QFW_GRID, PREY_GRID])
def test_cutoff_search_from_the_previous_segment_finds_the_same_cutoff(grid):
    # alpha = 0 certifies 256 at t = 0; the next search still starts at 1024
    kmax = 1024
    for a in (0.0, *grid):
        t = alpha_to_time(a)
        fresh = _choose_kmax(t, 1e-8)
        assert _choose_kmax(t, 1e-8, kmax) == fresh
        kmax = fresh
    assert [r.kmax for r in phi_curve_quadrature(Functional.QFW, grid, tol=1e-8)] == [
        _choose_kmax(alpha_to_time(a), 1e-8) for a in grid]


# mean costs c(k, l) given the ordered split L = k, R = l, as float array expressions
DOUBLE_SUM_COSTS = {
    Functional.QF: lambda k, l: (k + l) / 2.0,
    Functional.QFW: np.minimum,
    Functional.QFB: lambda k, l: l,
    Functional.PREY: lambda k, l: l,
    Functional.PREDATOR: lambda k, l: k,
    Functional.DISPLACEMENT: lambda k, l: (k - 1.0) / 2.0,
}


@pytest.mark.parametrize("t", [0.2, 1.0])
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_integrand_matches_double_sum(functional, t):
    # I(t) = sum_{k,l} k q_k q_l c(k, l): the ordered pair (k, l) merges at rate k/2,
    # counted once as (k, l) and once as (l, k)
    cost = DOUBLE_SUM_COSTS[functional]
    for x, y in ((1, 1), (1, 4), (3, 7), (6, 2)):
        assert cost(float(x), float(y)) == pytest.approx(
            float(split_mean(functional, x, y)), rel=1e-15)
    kmax = 1024
    qv = q_vector(kmax, t)
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    k, l = ks[:, None], ks[None, :]
    brute = float(qv @ np.broadcast_to(k * cost(k, l), (kmax, kmax)) @ qv)
    assert _Integrand(functional, kmax)(t) == pytest.approx(brute, rel=1e-9)


def log_norm_table(ks):
    """A_k = log(k^(k-1) / k!): exact form below k = 100, Stirling's series from there on."""
    small, big = ks[:99], ks[99:]
    r = 1.0 / big
    return np.concatenate([
        (small - 1.0) * np.log(small) - gammaln(small + 1.0),
        big - 1.5 * np.log(big) - 0.5 * math.log(2.0 * math.pi)
        - r * (1.0 / 12.0 - r * r * (1.0 / 360.0 - r * r / 1260.0)),
    ])


def _allocating_integrand(functional, kmax, t):
    """The integrand as a fresh-array formula over all kmax columns: (q,
    value), the value None where the mass test fails."""
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    w = -math.expm1(-t)
    if w == 0.0:
        qv = np.zeros(kmax)
        qv[0] = 1.0
    else:
        qv = np.exp((ks - 1.0) * math.log(w) + log_norm_table(ks) - ks * w - t)
    m0 = float(np.sum(qv))
    m1, m2 = (float(np.add.reduce(weights * qv)) for weights in (ks, ks * ks))
    if abs(1.0 - m1) > 1e-9:
        return qv, None
    if functional is Functional.QFW:
        kq = ks * qv
        return qv, float(np.add.reduce(kq * (np.cumsum(kq) + ks * (m0 - np.cumsum(qv)))))
    return qv, {Functional.QF: 0.5 * (m2 * m0 + m1 * m1), Functional.PREY: m1 * m1,
                Functional.QFB: m1 * m1, Functional.PREDATOR: m2 * m0,
                Functional.DISPLACEMENT: 0.5 * m2 * m0 - 0.25 * (m1 * m0 + m0 * m1)}[functional]


@pytest.mark.parametrize("kmax", [1024, 32768])
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_integrand_equals_the_allocating_formula_bit_for_bit(functional, kmax):
    integrand = _Integrand(functional, kmax)
    buffer = np.empty((2, kmax))
    # one instance and one buffer throughout, revisiting times, so a stale buffer would show
    for t in (0.0, 0.2, 1.0, 3.0, 0.2, 0.0, 0.7):
        qv, expected = _allocating_integrand(functional, kmax, t)
        assert np.array_equal(_q_from_terms(integrand.terms, t, buffer), qv)
        assert np.array_equal(q_vector(kmax, t), qv)
        if expected is None:
            with pytest.raises(QuadratureError, match="truncation mass residual"):
                integrand(t)
        else:
            assert integrand(t) == expected, (t, integrand(t), expected)
    assert _allocating_integrand(functional, 1024, 3.0)[1] is None  # the cutoff is too low there


# nodes spanning several row batches: t = 0, log q crossing _EXP_ZERO, subnormal q,
# and at kmax 1024 a last batch with neither
BATCH_NODES = {1024: (0.0, *np.linspace(0.001, 1.7, 70), 0.2545),
               32768: (0.0, 0.01, 0.2545, 0.5, 1.0, 2.0, 3.0)}


@pytest.mark.parametrize("kmax", [1024, 32768])
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_batched_integrand_equals_scalar_calls_bit_for_bit(functional, kmax):
    ts = np.array(BATCH_NODES[kmax])
    assert len(ts) > _BATCH_CELLS // kmax
    reference = [_allocating_integrand(functional, kmax, float(t)) for t in ts]
    rows = _q_from_terms(_k_terms(kmax), ts)
    assert np.array_equal(rows, np.stack([qv for qv, _ in reference]))
    tiny = np.finfo(float).tiny
    assert (rows == 0.0).any() and ((rows > 0.0) & (rows < tiny)).any()
    assert (rows >= tiny).all(axis=1)[1:].any()  # a node past t = 0 with no zero or subnormal
    integrand = _Integrand(functional, kmax)
    batched = integrand(ts)
    assert isinstance(batched, np.ndarray) and batched.shape == ts.shape
    scalar = [integrand(float(t)) for t in ts]
    assert all(type(v) is float for v in scalar)
    assert batched.tolist() == scalar == [value for _, value in reference]


def test_batch_raises_at_the_node_a_scalar_loop_fails_first():
    # the failing nodes sit in the second row batch, behind nodes that pass
    ts = np.concatenate([np.linspace(0.1, 1.5, 40), [3.0, 1.0, 3.5]])
    integrand = _Integrand(Functional.QFW, 1024)
    with pytest.raises(QuadratureError) as scalar:
        for t in ts:
            integrand(float(t))
    assert "t=3.0000" in str(scalar.value)
    with pytest.raises(QuadratureError) as batched:
        integrand(ts)
    assert str(batched.value) == str(scalar.value)


def test_exp_is_exactly_zero_below_the_skip_threshold():
    # the premise that lets _q_from_terms write 0.0 without calling exp
    xs = np.concatenate([np.linspace(-800.0, _EXP_ZERO, 10001), [-1e4, -np.inf]])
    assert (np.exp(xs) == 0.0).all()
    assert all(math.exp(x) == 0.0 for x in xs.tolist())
    assert 0.0 < np.exp(-745.0) < np.finfo(float).tiny  # subnormal results are still computed


# k straddling the switch to Stirling's series at k = 100, and times up to alpha = 0.98
EXPONENT_KS = (1, 2, 10, 99, 100, 101, 1000, 10**4, 32768)
EXPONENT_TS = (0.05, 0.5, 1.0, 2.0, 3.0, 3.9)


def test_log_q_matches_a_40_digit_reference():
    # log q = (k-1) log(k w) - log k! - t - k w, with exact k! and w = 1 - e^-t at the
    # float t; below _EXP_ZERO exp returns 0.0, so those logs never reach a q
    out = np.empty((2, len(EXPONENT_TS), 32768))
    _q_from_terms(_k_terms(32768), np.array(EXPONENT_TS), out)
    errors = {}
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        log_fact = {k: decimal.Decimal(math.factorial(k)).ln() for k in EXPONENT_KS}
        for row, t in zip(out[1].tolist(), EXPONENT_TS):
            w = 1 - (-decimal.Decimal(t)).exp()
            for k in EXPONENT_KS:
                exact = (k - 1) * (k * w).ln() - log_fact[k] - decimal.Decimal(t) - k * w
                if exact >= _EXP_ZERO:
                    errors[k, t] = abs(float(decimal.Decimal(row[k - 1]) - exact))
    assert len(errors) == 47 and (32768, 2.0) in errors and (32768, 3.9) in errors
    assert max(errors.values()) <= 1e-11, max(errors.items(), key=lambda kv: kv[1])


# the end time of every benchmark and default grid segment, t = 0.2545 (subnormal
# last terms at 1024) and a sweep from 1e-3 to alpha = 0.98
TRIM_TIMES = sorted({0.2545, *np.linspace(1e-3, alpha_to_time(0.98), 60).tolist(),
                     *(alpha_to_time(a) for a in QFW_GRID + PREY_GRID + DEFAULT_ALPHA_GRID)})
TRIM_CUTOFFS = tuple(1 << j for j in range(10, 16))


def test_trimmed_columns_are_negligible_at_every_earlier_time():
    trimmed = 0
    for kmax in TRIM_CUTOFFS:
        terms = _k_terms(kmax)
        for t_max in TRIM_TIMES:
            live = _live_columns(t_max, kmax)
            assert 1 <= live <= kmax
            trimmed += live < kmax
            rows = _q_from_terms(terms, np.array([t_max, 0.9 * t_max, 0.5 * t_max, 0.1 * t_max]))
            assert (terms[0][live:] ** 2 * rows[:, live:] < 1e-30).all(), (kmax, t_max, live)
    assert trimmed > len(TRIM_CUTOFFS) * len(TRIM_TIMES) // 2
    assert _live_columns(0.0, 1024) == 1


# the grids the trimmed and full-width integrands are compared on: FINE_GRID, the
# default grid, and each default alpha alone, one segment from t = 0
TRIM_GRIDS = (FINE_GRID, DEFAULT_ALPHA_GRID, *((a,) for a in DEFAULT_ALPHA_GRID))


def _quadrature_nodes(functional, full_width):
    """Every integrand call of the TRIM_GRIDS curves: (kmax, nodes, values), and the curves."""
    calls = []
    call = _Integrand.__call__

    def recording(self, t):
        values = call(self, t)
        calls.append((self.kmax, t.tolist(), values.tolist()))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Integrand, "__call__", recording)
        if full_width:
            patch.setattr(sm, "_live_columns", lambda t_max, kmax: kmax)
        curves = [phi_curve_quadrature(functional, grid, tol=1e-8) for grid in TRIM_GRIDS]
    return calls, curves


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_trimmed_integrand_equals_full_width_on_every_quadrature_node(functional):
    trimmed, curves = _quadrature_nodes(functional, full_width=False)
    full, full_curves = _quadrature_nodes(functional, full_width=True)
    assert sum(len(nodes) for _, nodes, _ in trimmed) > 1000
    assert trimmed == full and curves == full_curves


@pytest.mark.parametrize("kmax", TRIM_CUTOFFS[:-1])  # at 2^15 a batch holds one node
@pytest.mark.parametrize("functional", [Functional.QFW, Functional.PREY, Functional.QF])
def test_a_scalar_call_equals_its_batched_row_though_its_live_columns_differ(functional, kmax):
    ts = [t for t in TRIM_TIMES if _choose_kmax(t, 1e-8) <= kmax]
    integrand = _Integrand(functional, kmax)
    rows = _BATCH_CELLS // kmax
    assert len(ts) > rows
    batch_max = [max(ts[lo:lo + rows]) for lo in range(0, len(ts), rows)]
    assert any(_live_columns(t, kmax) < _live_columns(batch_max[i // rows], kmax)
               for i, t in enumerate(ts))
    assert integrand(np.array(ts)).tolist() == [integrand(t) for t in ts]


def test_panel_rule_is_leggauss_bit_for_bit():
    # the written-out nodes and weights, split by rule, are numpy's
    for of_rule, m in ((sm._OF_G5, 5), (~sm._OF_G5, 10)):
        x, w = np.polynomial.legendre.leggauss(m)
        assert sm._PANEL_NODES[of_rule].tobytes() == x.tobytes()
        assert sm._PANEL_WEIGHTS[of_rule].tobytes() == w.tobytes()
    assert np.all(np.diff(sm._PANEL_NODES) > 0)


def _node_by_node_panels(f, a, b, tol):
    """The reference rule, depth first with one scalar call per node: the
    accepted panels' (G10, |G10 - G5|), left to right."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    g5, g10 = (half * math.fsum(w * f(centre + half * x) for x, w in zip(*rule))
               for rule in (np.polynomial.legendre.leggauss(m) for m in (5, 10)))
    if abs(g10 - g5) < tol:
        return [(g10, abs(g10 - g5))]
    return (_node_by_node_panels(f, a, centre, tol / 2)
            + _node_by_node_panels(f, centre, b, tol / 2))


@pytest.mark.parametrize("tol, calls", [(1e-8, [15]), (1e-12, [15, 30, 30]),
                                        (1e-14, [15, 30, 60, 30])])
def test_gauss_panels_equal_the_node_by_node_rule_with_one_call_per_level(tol, calls):
    # a tight tol bisects; at 1e-12 and 1e-14 some panels of a level pass and the others split
    integrand = _Integrand(Functional.QFW, 1024)
    batches, order = [], []

    def batched(ts):
        batches.append(ts.tolist())
        return integrand(ts)

    def scalar(t):
        order.append(t)
        return integrand(t)

    a, b = 0.3, 0.9
    value, error = _gauss_panels(batched, a, b, tol)
    panels = _node_by_node_panels(scalar, a, b, tol)
    assert (value, error) == tuple(math.fsum(p) for p in zip(*panels))
    assert [len(nodes) for nodes in batches] == calls
    assert all(x < y for nodes in batches for x, y in zip(nodes, nodes[1:]))  # left to right
    assert sorted(t for nodes in batches for t in nodes) == sorted(order)
    # a tighter tol refines the same value
    assert abs(value - _gauss_panels(integrand, a, b, 1e-3)[0]) < 1e-9


@pytest.mark.parametrize("max_depth", [0, 1, 3])
def test_gauss_panels_evaluate_no_level_past_the_depth_cap(monkeypatch, max_depth):
    monkeypatch.setattr(sm, "_MAX_DEPTH", max_depth)
    integrand, batches = _Integrand(Functional.QFW, 1024), []

    def batched(ts):
        batches.append(len(ts))
        return integrand(ts)

    with pytest.raises(QuadratureError, match=f"within depth {max_depth}$"):
        _gauss_panels(batched, 0.3, 0.9, 0.0)  # no panel passes |G10 - G5| < 0
    assert batches == [15 << d for d in range(max_depth + 1)]


def test_closed_form_curves_equal_the_quadrature_to_1e_12():
    for grid in (DEFAULT_ALPHA_GRID, FINE_GRID):
        for functional in ALL_FUNCTIONALS:
            if functional is Functional.QFW:
                continue
            curve = phi_curve_quadrature(functional, grid)
            worst = max(abs(r.value - phi_comparison_curve(functional, a))
                        for r, a in zip(curve, grid))
            assert worst < 1e-12, (functional, len(grid), worst)


def _equal_panel_curve(functional, alphas):
    """phi on each segment by 16 equal panels of the 10-point Gauss-Legendre
    rule, at the cutoff the driver certifies for that segment at tol 1e-8."""
    xs, ws = np.polynomial.legendre.leggauss(10)
    acc, out, t_prev = [], [], 0.0
    for a in alphas:
        t_next = alpha_to_time(a)
        integrand = _Integrand(functional, _choose_kmax(t_next, 1e-8))
        edges = np.linspace(t_prev, t_next, 17)
        for lo, hi in zip(edges[:-1], edges[1:]):
            acc.extend((0.5 * (hi - lo) * ws * integrand(0.5 * (lo + hi) + 0.5 * (hi - lo) * xs))
                       .tolist())
        out.append(math.fsum(acc))
        t_prev = t_next
    return out


@pytest.mark.parametrize("grid", [QFW_GRID, DEFAULT_ALPHA_GRID])
def test_qfw_curve_equals_an_equal_panel_gauss_reference_to_1e_13(grid):
    curve = phi_curve_quadrature(Functional.QFW, grid)
    reference = _equal_panel_curve(Functional.QFW, grid)
    assert max(abs(r.value - v) for r, v in zip(curve, reference)) < 1e-13


def test_a_raising_cutoff_search_caches_no_table_above_2_to_the_15():
    # the search tries every cutoff from 2^10 to 2^21 before it raises; of
    # those tables only the six up to 2^15 stay cached
    _cached_k_table.cache_clear()
    with pytest.raises(QuadratureError, match="no admissible truncation"):
        smoluchowski_rhs(3, 8.0)
    assert _cached_k_table.cache_info().currsize == 6
    for j in range(10, 16):
        _k_terms(1 << j)
    assert _cached_k_table.cache_info().hits == 6
    big = _k_terms(1 << 16)
    assert _k_terms(1 << 16) is not big
    assert _cached_k_table.cache_info().currsize == 6
    ks = np.arange(1, (1 << 16) + 1, dtype=np.float64)
    assert all(np.array_equal(a, b) for a, b in zip(big, (ks, ks - 1.0, log_norm_table(ks))))


@pytest.mark.parametrize("kmax", [1, 99, 100, 101, 1024, 32768, 1 << 21])
def test_the_log_tree_coefficient_table_keeps_its_bits(kmax):
    # the table of A_k, and each scalar A_k, equal the two-branch formula written out
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    table = _k_terms(kmax)[2]
    assert np.array_equal(table, log_norm_table(ks))
    for k in [*range(1, min(kmax, 1024) + 1), kmax]:
        assert float(log_tree_coefficient(k)) == table[k - 1], k


def test_cutoff_tables_are_shared_and_read_only():
    terms = _k_terms(2048)
    assert _k_terms(2048) is terms and _Integrand(Functional.QF, 2048).terms is terms
    for a in terms:
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 7, 14, 20])
def test_coagulation_ode(k):
    h = 1e-5
    lhs = (q(k, 1.0 + h) - q(k, 1.0 - h)) / (2.0 * h)
    assert abs(lhs - smoluchowski_rhs(k, 1.0)) < 1e-6


# Criterion 5's series values on its grid, as float.hex, pinned bit for bit:
# a change to the cutoff or to the order of the sums shows here.
_MOMENT_SUMS = {
    (0.1, 0): "0x1.cf46d99d52b3ap-1",
    (0.1, 1): "0x1.fffffffffffffp-1",
    (0.1, 2): "0x1.38add9e58ac8cp+0",
    (1.0, 0): "0x1.78b56362cef38p-2",
    (1.0, 1): "0x1.ffffffffffffep-1",
    (1.0, 2): "0x1.d8e64b8d4ddabp+2",
    (3.0, 0): "0x1.97db0ccceb0afp-5",
    (3.0, 1): "0x1.fffffffffffc6p-1",
    (3.0, 2): "0x1.936dc5690bfedp+8",
}
_RHS_AT_1 = {
    1: "-0x1.11dbdf81d5e15p-2",
    2: "-0x1.366910133de32p-4",
    3: "-0x1.fd969634ec1acp-6",
    7: "-0x1.1e87c76d9c2e0p-11",
    14: "0x1.ca91999fa1c3cp-10",
    20: "0x1.29a89a0ae1bb6p-10",
}


def test_series_on_criterion_5_s_grid_are_bit_stable():
    for (t, p), value in _MOMENT_SUMS.items():
        assert moment(t, p, "sum").hex() == value, (t, p)
    for k, value in _RHS_AT_1.items():
        assert smoluchowski_rhs(k, 1.0).hex() == value, k


def test_series_raise_where_no_cutoff_is_certified():
    # at t = 8 every cutoff below _KMAX_HARD misses much of the mass
    with pytest.raises(QuadratureError, match="t=8.000"):
        smoluchowski_rhs(3, 8.0)
    with pytest.raises(QuadratureError, match="t=8.000"):
        moment(8.0, 1, "sum")


@pytest.mark.parametrize("k, t", [(2, 0.0), (2000, 0.0), (300, 0.1), (2000, 1.0), (1500, 2.0)])
def test_rhs_matches_a_brute_force_sum(k, t):
    # for k above the certified cutoff (1024, or 256 at t = 0) the sums run to k
    gain = 0.5 * k * math.fsum(q(j, t) * q(k - j, t) for j in range(1, k))
    loss = q(k, t) * math.fsum((j + k) * q(j, t) for j in range(1, 2 * k + 4096))
    expected = gain - loss
    assert abs(smoluchowski_rhs(k, t) - expected) <= 1e-13 * abs(expected) + 1e-300, (k, t)
