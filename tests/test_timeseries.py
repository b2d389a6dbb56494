import logging
import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from graphforecast import timeseries as ts

# 80th percentile of the standard normal, from published tables
Z_80 = 0.8416212335729143


def ar1_series(phi, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    burn = 200
    e = rng.standard_normal(n + burn) * sigma
    y = np.zeros(n + burn)
    for t in range(1, n + burn):
        y[t] = phi * y[t - 1] + e[t]
    return y[burn:]


def css_rss_reference(w, p, q, params):
    """The CSS recursion written out term by term, as the oracle for the kernel.

    Residuals are accumulated for t >= p with unavailable lagged residuals
    taken as zero (the standard CSS conditioning).
    """
    n = len(w)
    c = params[0]
    e = [0.0] * n
    rss = 0.0
    for t in range(p, n):
        acc = w[t] - c
        for i in range(p):
            acc -= params[1 + i] * w[t - 1 - i]
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc -= params[1 + p + j] * e[k]
        e[t] = acc
        rss += acc * acc
    return rss


def forecast_reference(fit_, series, h):
    """The forecast with its CSS residuals and differencing written out in Python.

    Residuals before t = p are zero; the h-step recursion continues from the
    in-sample residuals, and each differencing level is integrated back by a
    running sum from its last value.
    """
    levels = [list(series.values)]
    for _ in range(fit_.d):
        prev = levels[-1]
        levels.append([b - a for a, b in zip(prev, prev[1:])])
    w = levels[-1]
    n = len(w)
    p, q, c = fit_.p, fit_.q, fit_.intercept
    ar, ma = fit_.ar_coeffs, fit_.ma_coeffs
    e = [0.0] * n
    for t in range(p, n):
        acc = w[t] - c
        for i in range(p):
            acc -= ar[i] * w[t - 1 - i]
        for j in range(q):
            k = t - 1 - j
            if k >= 0:
                acc -= ma[j] * e[k]
        e[t] = acc
    wext = list(w)
    eext = list(e)
    for _ in range(h):
        t = len(wext)
        val = c
        for i in range(p):
            val += ar[i] * wext[t - 1 - i]
        for j in range(q):
            k = t - 1 - j
            if 0 <= k:
                val += ma[j] * eext[k]
        wext.append(val)
        eext.append(0.0)
    fc = wext[n:]
    for level in range(fit_.d - 1, -1, -1):
        acc = levels[level][-1]
        integrated = []
        for v in fc:
            acc += v
            integrated.append(acc)
        fc = integrated
    psi = ts._psi_weights(fit_, h)
    std_errs = np.sqrt(np.maximum(fit_.sigma2 * np.cumsum(psi * psi), 0.0))
    return ts.Forecast(tuple(fc), tuple(float(s) for s in std_errs))


def step_limit_reference(x, dx):
    """The step limit on numpy arrays, as the bit-for-bit oracle for the Python-float kernel."""
    t0, f0 = 0.0, float(np.abs(x).sum())
    limit = max(ts._REGION_INNER, f0)
    if float(np.abs(x + dx).sum()) <= limit:
        return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = -x / dx
    for t1 in np.append(np.sort(roots[(roots > 0.0) & (roots < 1.0)]), 1.0):
        f1 = float(np.abs(x + t1 * dx).sum())
        if f1 > limit:
            break
        t0, f0 = t1, f1
    return max(t0 + (limit - f0) * (t1 - t0) / (f1 - f0), 0.0)


def damped_step_reference(M, g, params, blocks):
    """The damped step through np.linalg.solve, as the bit-for-bit oracle for the kernel."""
    free = np.ones(len(g), dtype=bool)
    while True:
        step = np.zeros_like(g)
        try:
            step[free] = np.linalg.solve(M if free.all() else M[np.ix_(free, free)], -g[free])
        except np.linalg.LinAlgError:
            return step
        limits = [step_limit_reference(params[b], step[b]) for b in blocks]
        if all(limits):
            return min(limits, default=1.0) * step
        for b, t in zip(blocks, limits):
            if t == 0.0:
                free[b] = False


def region_block(draw, size):
    """size coefficients inside the region, on its edge, or just past it by rounding."""
    coeff = st.floats(-1, 1, allow_subnormal=False)
    x = np.array(draw(st.lists(coeff, min_size=size, max_size=size)))
    total = np.abs(x).sum()
    where = draw(st.sampled_from(["inside", "edge", "past"]))
    if total == 0.0 or where == "inside":
        return x * 0.9
    x *= ts._REGION_INNER / total
    return x if where == "edge" else x * (1.0 + 1e-12)


@st.composite
def step_limit_problems(draw):
    """A block of 1-5 coefficients and a step with some zero entries."""
    size = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.floats(-2, 2, allow_subnormal=False))
    dx = draw(st.lists(entry, min_size=size, max_size=size))
    return region_block(draw, size), np.array(dx)


@st.composite
def damped_step_problems(draw):
    """A damped normal system over an intercept and AR and MA blocks of 0-5 entries.

    Blocks on the region's edge make the step hold them; a zero column of J
    makes the system singular.
    """
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0 if p else 1, 5))
    k = 1 + p + q
    entries = st.lists(st.floats(-5, 5), min_size=(k + 2) * k, max_size=(k + 2) * k)
    J = np.array(draw(entries)).reshape(k + 2, k)
    if draw(st.booleans()):
        J[:, draw(st.integers(0, k - 1))] = 0.0
    A = J.T @ J
    damping = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    M = A + damping * np.diag(A.diagonal())
    g = np.array(draw(st.lists(st.floats(-5, 5), min_size=k, max_size=k)))
    intercept = [draw(st.floats(-5, 5))]
    params = np.concatenate([intercept] + [region_block(draw, n) for n in (p, q) if n])
    blocks = [b for b in (slice(1, 1 + p), slice(1 + p, k)) if b.stop > b.start]
    return M, g, params, blocks


@st.composite
def css_problems(draw):
    """A series of length 6-20 with p, q <= 3 and a parameter vector in the region."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 3))
    n = draw(st.integers(max(6, p + q + 3), 20))
    w = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    coeff = st.floats(-0.33, 0.33)
    params = [draw(st.floats(-10, 10))] + draw(st.lists(coeff, min_size=p + q, max_size=p + q))
    return np.array(w), p, q, np.array(params)


@st.composite
def short_count_cells(draw):
    """A short integer series and a (p, d, q) cell with q > 0 that fits it."""
    d = draw(st.integers(0, 2))
    q = draw(st.integers(1, 3))
    p = draw(st.integers(0, 3))
    n = draw(st.integers(max(6, p + q + d + 3), 15))
    values = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    return ts.Series(tuple(map(float, values))), p, d, q


@st.composite
def degree_like_series(draw):
    """A count series of length 4-20: small integers, their running sums, an exact
    ramp, or a few small integers and then an exact ramp, on whose rows an AR fit
    with as many lags as the prefix is exact up to rounding."""
    n = draw(st.integers(4, 20))
    kind = draw(st.sampled_from(["integers", "growth", "ramp", "near-exact"]))
    if kind == "integers":
        values = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    elif kind == "growth":
        values = list(accumulate(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    else:
        head = draw(st.lists(st.integers(0, 5), min_size=kind == "near-exact", max_size=3))
        start, step = draw(st.integers(0, 10)), draw(st.integers(0 if head else 1, 3))
        values = head + [start + step * t for t in range(n - len(head))]
    return tuple(map(float, values))


@st.composite
def forecast_problems(draw):
    """A fit with d <= 2, p, q <= 3 and in-region coefficients, a series for it, and h <= 5."""
    d = draw(st.integers(0, 2))
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 3))
    n = draw(st.integers(p + q + d + 3, 20))
    values = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    coeff = st.floats(-0.33, 0.33)
    fit = ts.ArimaFit(
        p=p,
        d=d,
        q=q,
        ar_coeffs=tuple(draw(st.lists(coeff, min_size=p, max_size=p))),
        ma_coeffs=tuple(draw(st.lists(coeff, min_size=q, max_size=q))),
        intercept=draw(st.floats(-10, 10)),
        sigma2=draw(st.floats(0, 100)),
        aicc=0.0,
        n_obs=n,
    )
    return fit, ts.Series(tuple(map(float, values))), draw(st.integers(1, 5))


class TestCssKernel:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(css_problems())
    def test_rss_matches_recursion(self, problem):
        w, p, q, params = problem
        e, _, _ = ts._css_residuals(ts._regressors(w, p), params, q)
        ref = css_rss_reference(w.tolist(), p, q, params.tolist())
        assert float(e @ e) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(css_problems())
    def test_jacobian_matches_central_differences(self, problem):
        w, p, q, params = problem
        yX = ts._regressors(w, p)
        J = ts._css_jacobian(*ts._css_residuals(yX, params, q), q)
        assert J.shape == (len(w) - p, 1 + p + q)
        for c in range(len(params)):
            h = 1e-6 * (1.0 + abs(params[c]))
            up, down = params.copy(), params.copy()
            up[c] += h
            down[c] -= h
            diff = (ts._css_residuals(yX, up, q)[0] - ts._css_residuals(yX, down, q)[0]) / (2 * h)
            scale = 1.0 + np.abs(J[:, c]).max()
            assert np.abs(diff - J[:, c]).max() <= 1e-6 * scale


class TestLmKernel:
    """The Python-float step kernel gives the numpy one's bits."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(step_limit_problems())
    def test_step_limit_matches_numpy(self, problem):
        x, dx = problem
        assert ts._step_limit(x.tolist(), dx.tolist()) == step_limit_reference(x, dx)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(damped_step_problems())
    def test_damped_step_matches_numpy(self, problem):
        M, g, params, blocks = problem
        step = ts._damped_step(M, g, params, blocks)
        assert step.tobytes() == damped_step_reference(M, g, params, blocks).tobytes()

    @pytest.mark.parametrize(
        "M, expected",
        [(np.eye(3), [1.0, 0.0, 0.5]), (np.zeros((3, 3)), [0.0, 0.0, 0.0])],
        ids=["held", "singular"],
    )
    def test_held_and_singular_steps(self, M, expected):
        # the AR block sits on the region's edge and the step pushes it out
        params, g = np.array([0.0, ts._REGION_INNER, 0.0]), np.array([-1.0, -1.0, -0.5])
        blocks = [slice(1, 2), slice(2, 3)]
        step = ts._damped_step(M, g, params, blocks)
        assert step.tolist() == expected
        assert step.tobytes() == damped_step_reference(M, g, params, blocks).tobytes()

    @pytest.mark.parametrize("q", range(1, 6))
    def test_band_matches_fill_diagonal(self, q):
        rng = np.random.default_rng(q)
        for m in range(q + 3, 16):
            params = rng.standard_normal(1 + q)
            L = ts._css_residuals(np.ones((m, 2)), params, q)[1]
            ref = np.eye(m)
            for j in range(q):
                np.fill_diagonal(ref[j + 1 :], params[1 + j])
            assert L.tobytes() == ref.tobytes()


class TestSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ts.Series(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ts.Series((1.0, math.nan))


class TestDifference:
    def test_first_difference_of_ramp(self):
        s = ts.Series(tuple(map(float, [1, 2, 3, 4])))
        assert ts.difference(s, 1).values == (1.0, 1.0, 1.0)

    def test_identity(self):
        s = ts.Series(tuple(map(float, [5, 5, 5])))
        assert ts.difference(s, 0).values == (5.0, 5.0, 5.0)

    def test_second_difference_of_squares(self):
        s = ts.Series(tuple(map(float, [1, 4, 9, 16])))
        assert ts.difference(s, 2).values == (2.0, 2.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ts.difference(ts.Series(tuple(map(float, [1, 2]))), 2)

    def test_iterated_equals_direct(self):
        rng = np.random.default_rng(3)
        s = ts.Series(tuple(map(float, rng.normal(size=12))))
        twice = ts.difference(ts.difference(s, 1), 1)
        direct = ts.difference(s, 2)
        assert twice.values == pytest.approx(direct.values)


class TestFit:
    def test_white_noise_mean_model(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(500)
        fit = ts.fit(ts.Series(tuple(map(float, y))), 0, 0, 0)
        assert fit.intercept == pytest.approx(float(np.mean(y)), abs=1e-12)
        assert fit.sigma2 == pytest.approx(float(np.var(y)), abs=1e-12)

    def test_ar1_recovery_vs_yule_walker(self):
        y = ar1_series(0.6, 500, seed=42)
        fit = ts.fit(ts.Series(tuple(map(float, y))), 1, 0, 0)
        assert abs(fit.ar_coeffs[0] - 0.6) <= 0.1
        yc = y - y.mean()
        phi_yw = float(np.dot(yc[1:], yc[:-1]) / np.dot(yc, yc))
        assert fit.ar_coeffs[0] == pytest.approx(phi_yw, abs=0.03)

    def test_unit_drift(self):
        fit = ts.fit(ts.Series(tuple(map(float, range(1, 31)))), 0, 1, 0)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            ts.fit(ts.Series(tuple(map(float, [1, 2, 3]))), 2, 1, 2)


class TestFitRegion:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(short_count_cells())
    def test_stays_in_region_and_improves_on_its_start(self, cell):
        series, p, d, q = cell
        fit = ts.fit(series, p, d, q)
        assert sum(abs(v) for v in fit.ar_coeffs) <= 0.99
        assert sum(abs(v) for v in fit.ma_coeffs) <= 0.99
        w = np.asarray(ts.difference(series, d).values)
        start = ts._project_region(ts._hannan_rissanen_start(series, d, p, q), p, q)
        start_rss = css_rss_reference(w.tolist(), p, q, start.tolist())
        assert fit.sigma2 * (len(w) - p) <= start_rss * (1 + 1e-12) + 1e-12

    def test_converges_on_a_hard_benchmark_cell(self):
        # ARIMA(3,0,4) on a degree series of the predict-pa benchmark input
        # (seed 1, round 0), a cell on which derivative-free coordinate
        # descent runs out of sweeps without converging
        series = ts.Series(tuple(map(float, [3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7])))
        fit = ts.fit(series, 3, 0, 4)
        assert sum(abs(v) for v in fit.ar_coeffs) <= 0.99
        assert sum(abs(v) for v in fit.ma_coeffs) <= 0.99
        assert math.isfinite(fit.aicc)


def kpss_reference(w):
    """The KPSS statistic written out: partial sums over a Bartlett long-run variance."""
    n = len(w)
    mean = sum(w) / n
    e = [v - mean for v in w]
    partial, acc = [], 0.0
    for v in e:
        acc += v
        partial.append(acc)
    lags = min(math.trunc(12 * (n / 100) ** 0.25), n - 1)
    lrv = sum(v * v for v in e) / n
    for j in range(1, lags + 1):
        gamma_j = sum(e[t] * e[t - j] for t in range(j, n)) / n
        lrv += 2 * (1 - j / (lags + 1)) * gamma_j
    return sum(v * v for v in partial) / (n * n * lrv)


def assert_stepwise_selection(values):
    """auto_fit's order is the KPSS d and a (p, q) that no neighbouring cell improves on.

    d counts the differences taken while the KPSS statistic exceeds its 5%
    critical value 0.463, until the series is constant, d = 2, or d = n - 4;
    a neighbour (p +- 1, q +- 1) is fitted directly and counts when its AICc
    is defined and its fit converges.
    """
    s = ts.Series(tuple(map(float, values)))
    n = len(s)
    chosen = ts.auto_fit(s)
    if len(set(s.values)) == 1:
        assert (chosen.p, chosen.d, chosen.q) == (0, 0, 0)
        return
    w, d = np.asarray(s.values), 0
    while d < min(2, n - 4) and np.ptp(w) > 0 and kpss_reference(w.tolist()) > 0.463:
        w, d = np.diff(w), d + 1
    assert chosen.d == d
    key = (chosen.aicc, chosen.p + chosen.q, chosen.d, chosen.p)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            p, q = chosen.p + i, chosen.q + j
            if not (0 <= p <= ts.MAX_P and 0 <= q <= ts.MAX_Q) or n - d - 2 * p - q - 3 <= 0:
                continue
            try:
                cand = ts.fit(s, p, d, q)
            except RuntimeError:
                continue
            assert key <= (cand.aicc, p + q, d, p)


def stepwise_reference(values, record=None):
    """auto_fit's search without the RSS bound: every neighbour is fitted.

    From the best of (2,2), (0,0), (1,0) and (0,1) at the KPSS d, move to the
    best neighbouring (p +- 1, q +- 1) cell while its key (AICc, p+q, d, p) is
    lower.  A cell counts when its AICc is defined and its fit converges; each
    fitted (p, q) is appended to record.
    """
    s = ts.Series(values)
    n = len(s)
    if len(set(values)) == 1:
        return ts.fit(s, 0, 0, 0)
    d = ts._kpss_d(values)
    fits = {}

    def key(cell):
        p, q = cell
        if cell not in fits:
            fits[cell] = None
            if 0 <= p <= ts.MAX_P and 0 <= q <= ts.MAX_Q and n - d - 2 * p - q - 3 > 0:
                if record is not None:
                    record.append(cell)
                try:
                    fits[cell] = ts.fit(s, p, d, q)
                except RuntimeError:
                    pass
        f = fits[cell]
        return (math.inf,) if f is None else (f.aicc, p + q, d, p)

    best = min([(2, 2), (0, 0), (1, 0), (0, 1)], key=key)
    while True:
        p, q = best
        step = min([(p + i, q + j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], key=key)
        if key(step) >= key(best):
            return fits[best]
        best = step


def rss_ar(values, p, d):
    """RSS of the least-squares AR(p) fit on the d-differenced series."""
    resid = ts._ols_ar_fit(ts.Series(values), d, p)[1]
    return float(resid @ resid)


def fitted_cells(monkeypatch, values):
    """The (p, q) cells a cold auto_fit of values hands to ts.fit, in order."""
    cells, fit = [], ts.fit

    def recording(series, p, d, q):
        cells.append((p, q))
        return fit(series, p, d, q)

    monkeypatch.setattr(ts, "fit", recording)
    ts.auto_fit.cache_clear()
    try:
        ts.auto_fit(ts.Series(values))
    finally:
        ts.auto_fit.cache_clear()
        monkeypatch.setattr(ts, "fit", fit)
    return cells


# a degree series of the predict-pa benchmark input (seed 1, round 0), on
# which the search without the bound fits 7 cells and auto_fit 4
PRUNED_SERIES = tuple(map(float, (10, 11, 12, 13, 14, 14, 15, 16, 16, 17, 18, 19)))


class TestKpss:
    def test_constant_needs_no_difference(self):
        assert ts._kpss_d((7.0,) * 20) == 0

    def test_ramp_needs_one_difference(self):
        ramp = np.arange(1.0, 51.0)
        assert ts._kpss(ramp) > ts._KPSS_CRITICAL
        assert ts._kpss_d(tuple(ramp)) == 1

    def test_white_noise_statistic(self):
        # the series of test_white_noise_stays_parsimonious; the shorter lag
        # trunc(4 (n/100)^(1/4)) gives 0.482 here and rejects
        w = np.random.default_rng(5).standard_normal(200)
        assert ts._kpss(w) == pytest.approx(0.3624, abs=1e-4)
        assert ts._kpss_d(tuple(w)) == 0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=40).filter(lambda v: np.ptp(v) > 1e-3))
    def test_matches_the_written_out_statistic(self, values):
        assert ts._kpss(np.asarray(values)) == pytest.approx(kpss_reference(values), rel=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=2, max_size=7).filter(lambda v: len(set(v)) > 1))
    def test_short_series_statistic_is_one_half(self, values):
        # up to 7 points the lag reaches n - 1, where the Bartlett long-run
        # variance is 2/n^2 times the sum of squared partial sums
        assert ts._kpss(np.asarray(values, dtype=float)) == pytest.approx(0.5, rel=1e-12)


class TestAutoFit:
    def test_constant_series(self):
        s = ts.Series(tuple(map(float, [7.0] * 20)))
        fit = ts.auto_fit(s)
        fc = ts.forecast(fit, s, 4)
        assert fc.means == (7.0, 7.0, 7.0, 7.0)

    def test_linear_ramp_forecast(self):
        s = ts.Series(tuple(map(float, range(1, 21))))
        fit = ts.auto_fit(s)
        fc = ts.forecast(fit, s, 1)
        assert fc.means[0] == pytest.approx(21.0, abs=0.5)

    def test_ramp_selection_is_a_stepwise_minimum(self):
        assert_stepwise_selection(range(1, 21))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 30), min_size=4, max_size=20))
    def test_selection_is_a_stepwise_minimum(self, values):
        assert_stepwise_selection(values)

    @pytest.mark.parametrize(
        "values, order",
        [
            ((4, 8, 11, 12), (0, 0, 0)),
            ((3, 3, 3, 6), (0, 0, 0)),
            ((9, 13, 18, 19, 22), (0, 1, 0)),
            ((4, 4, 5, 4, 4), (0, 1, 0)),
        ],
    )
    def test_sweep_short_series(self, values, order):
        # 4- and 5-point degree series of the sweep-short benchmark input.
        # KPSS rejects each of them (its statistic is 1/2 at these lengths),
        # but no cell's AICc is defined past d = n - 4, so a 4-point series
        # falls back to d = 0 and a 5-point series stops at d = 1
        w = np.asarray(values, dtype=float)
        assert ts._kpss(w) > ts._KPSS_CRITICAL
        fit = ts.auto_fit(ts.Series(tuple(map(float, values))))
        assert (fit.p, fit.d, fit.q) == order
        assert_stepwise_selection(values)

    def test_white_noise_stays_parsimonious(self):
        rng = np.random.default_rng(5)
        s = ts.Series(tuple(map(float, rng.standard_normal(200))))
        fit = ts.auto_fit(s)
        assert fit.p + fit.q <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        vals = tuple(rng.integers(0, 30, size=15).astype(float))
        a = ts.auto_fit(ts.Series(vals))
        b = ts.auto_fit(ts.Series(vals))
        assert (a.p, a.d, a.q) == (b.p, b.d, b.q)
        assert a.ar_coeffs == b.ar_coeffs
        assert a.ma_coeffs == b.ma_coeffs

    def test_too_short(self):
        with pytest.raises(ValueError):
            ts.auto_fit(ts.Series(tuple(map(float, [1, 2, 3]))))

    def test_skipped_cell_is_reported(self, monkeypatch, caplog):
        values = ar1_series(0.7, 40, 0)
        s = ts.Series(tuple(map(float, values)))
        ts.auto_fit.cache_clear()
        best = ts.auto_fit(s)
        assert (best.p, best.d, best.q) == (1, 0, 0)
        fit = ts.fit

        def fit_failing_at_best(series, p, d, q):
            if (p, d, q) == (1, 0, 0):
                raise RuntimeError("no convergence")
            return fit(series, p, d, q)

        monkeypatch.setattr(ts, "fit", fit_failing_at_best)
        ts.auto_fit.cache_clear()
        try:
            chosen = ts.auto_fit(s)
            # the search goes on without the cell, to the best cell that remains
            assert (chosen.p, chosen.d, chosen.q) != (1, 0, 0)
            assert_stepwise_selection(values)
        finally:
            ts.auto_fit.cache_clear()
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipped ARIMA(1,0,0), which did not converge on a series of length 40"]


class TestOrderBound:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(degree_like_series())
    @example(PRUNED_SERIES)
    @example((1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    @example((1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0))
    @example((2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0))
    def test_selection_equals_the_search_without_the_bound(self, values):
        assert ts.auto_fit(ts.Series(values)) == stepwise_reference(values)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(degree_like_series(), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3))
    def test_rss_is_at_least_a_quarter_of_the_ar_rss(self, values, p, d, q):
        n = len(values)
        assume(n >= p + q + d + 3)
        try:
            fit = ts.fit(ts.Series(values), p, d, q)
        except RuntimeError:
            return
        w = np.asarray(ts.difference(ts.Series(values), d).values)
        floor = rss_ar(values, p, d)
        # at rounding level, as on an exact ramp, both sides are noise (the
        # fit's RSS can round to 0), and auto_fit applies no bound there
        if floor > ts._RSS_TOL * (w @ w):
            assert fit.sigma2 * (n - d - p) >= floor / 4.0

    def test_an_exact_ar_fit_is_not_used_as_a_bound(self):
        # AR(1) fits the rows t >= 1 exactly, so its RSS is rounding, under
        # _RSS_TOL * (w . w).  The selected cell's RSS rounds to 0, below a
        # quarter of it: a bound applied here would leave that cell out
        values = (0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0)
        assert ts._kpss_d(values) == 0
        w = np.asarray(values)
        assert 0.0 < rss_ar(values, 1, 0) <= ts._RSS_TOL * (w @ w)
        chosen = ts.auto_fit(ts.Series(values))
        assert (chosen.p, chosen.q, chosen.sigma2) == (1, 2, 0.0)
        assert chosen == stepwise_reference(values)

    def test_the_bound_leaves_out_cells(self, monkeypatch):
        searched = []
        expected = stepwise_reference(PRUNED_SERIES, searched)
        cells = fitted_cells(monkeypatch, PRUNED_SERIES)
        assert cells == [(0, 0), (1, 0), (2, 0), (1, 1)]
        assert set(cells) < set(searched) and len(searched) == 7
        assert ts.auto_fit(ts.Series(PRUNED_SERIES)) == expected

    @pytest.mark.parametrize("values", [(4, 8, 11, 12), (9, 13, 18, 19, 22), (4, 4, 5, 4, 4)])
    def test_a_search_without_ma_cells_builds_no_bound(self, values, monkeypatch):
        # sweep-short's 4- and 5-point series admit no cell with q >= 1, so the
        # only AR fits are those of the q = 0 cells themselves
        calls, ols = [], ts._ols_ar_fit

        def counting(series, d, p):
            calls.append(p)
            return ols(series, d, p)

        monkeypatch.setattr(ts, "_ols_ar_fit", counting)
        cells = fitted_cells(monkeypatch, tuple(map(float, values)))
        assert all(q == 0 for _, q in cells)
        assert calls == [p for p, _ in cells]

    def test_each_ar_order_is_solved_once_per_search(self, monkeypatch):
        # the (p, 0) cells, the RSS floors of the (p, q) cells and the
        # Hannan-Rissanen starts ask for the same AR fits; each is solved once
        asked, ols = [], ts._ols_ar_fit

        def asking(series, d, p):
            asked.append(p)
            return ols(series, d, p)

        monkeypatch.setattr(ts, "_ols_ar_fit", asking)
        ols.cache_clear()
        fitted_cells(monkeypatch, PRUNED_SERIES)
        assert ols.cache_info().misses == len(set(asked)) < len(asked)

    def test_the_search_is_logged_once_per_series(self, caplog):
        caplog.set_level(logging.DEBUG, logger=ts.__name__)
        ts.auto_fit.cache_clear()
        try:
            ts.auto_fit(ts.Series(PRUNED_SERIES))
            ts.auto_fit(ts.Series(PRUNED_SERIES))  # memoised: no second search
        finally:
            ts.auto_fit.cache_clear()
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == [
            "ARIMA search at d=0 on a series of length 12 fitted (p, q) "
            "[(0, 0), (1, 0), (2, 0), (1, 1)]; the RSS bound left out [(0, 1), (2, 2), (2, 1)]"
        ]


class TestForecast:
    def test_constant_series_zero_spread(self):
        s = ts.Series(tuple(map(float, [7.0] * 20)))
        fc = ts.forecast(ts.auto_fit(s), s, 3)
        assert fc.means == (7.0, 7.0, 7.0)
        assert fc.std_errs == (0.0, 0.0, 0.0)

    def test_drift_continuation(self):
        s = ts.Series(tuple(map(float, range(1, 21))))
        fc = ts.forecast(ts.fit(s, 0, 1, 0), s, 2)
        assert fc.means == pytest.approx([21.0, 22.0], abs=1e-9)

    def test_ar1_decay(self):
        fit = ts.ArimaFit(
            p=1, d=0, q=0, ar_coeffs=(0.6,), ma_coeffs=(), intercept=0.0,
            sigma2=1.0, aicc=0.0, n_obs=20,
        )
        s = ts.Series(tuple(map(float, [0.0] * 19 + [10.0])))
        fc = ts.forecast(fit, s, 2)
        assert fc.means == pytest.approx([6.0, 3.6], abs=1e-12)

    def test_random_walk_std_errs_grow_sqrt(self):
        fit = ts.ArimaFit(
            p=0, d=1, q=0, ar_coeffs=(), ma_coeffs=(), intercept=0.0,
            sigma2=4.0, aicc=0.0, n_obs=20,
        )
        s = ts.Series(tuple(map(float, range(20))))
        fc = ts.forecast(fit, s, 4)
        assert fc.std_errs == pytest.approx([2.0 * math.sqrt(h) for h in (1, 2, 3, 4)])

    def test_mean_model_constant_at_intercept(self):
        rng = np.random.default_rng(2)
        s = ts.Series(tuple(map(float, rng.standard_normal(50) + 3)))
        fit = ts.fit(s, 0, 0, 0)
        fc = ts.forecast(fit, s, 6)
        assert all(m == pytest.approx(fit.intercept) for m in fc.means)

    def test_double_integration_continues_squares(self):
        s = ts.Series(tuple(map(float, [k * k for k in range(1, 9)])))
        fit = ts.fit(s, 0, 2, 0)
        fc = ts.forecast(fit, s, 3)
        assert fc.means == pytest.approx([81.0, 100.0, 121.0], abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(forecast_problems())
    def test_matches_the_python_recursion(self, problem):
        fit, s, h = problem
        fc = ts.forecast(fit, s, h)
        ref = forecast_reference(fit, s, h)
        for got, want in zip(fc.means + fc.std_errs, ref.means + ref.std_errs, strict=True):
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


class TestQuantile:
    def test_degenerate(self):
        fc = ts.Forecast((10.0,), (0.0,))
        assert ts.quantile(fc, 1, 0.8) == 10.0

    def test_median_is_mean(self):
        fc = ts.Forecast((10.0,), (2.0,))
        assert ts.quantile(fc, 1, 0.5) == 10.0

    def test_eighty_percent(self):
        fc = ts.Forecast((10.0,), (2.0,))
        assert ts.quantile(fc, 1, 0.8) == pytest.approx(10 + 2 * Z_80, abs=1e-9)

    def test_monotone_in_q(self):
        fc = ts.Forecast((5.0, 5.0), (1.0, 0.0))
        qs = [0.1, 0.3, 0.5, 0.7, 0.9]
        vals = [ts.quantile(fc, 1, q) for q in qs]
        assert vals == sorted(vals)
        assert all(v < vals[-1] for v in vals[:-1])
        flat = [ts.quantile(fc, 2, q) for q in qs]
        assert len(set(flat)) == 1

    @settings(derandomize=True, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(0, 1e6),
        st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), min_size=2, max_size=8),
    )
    def test_monotone_in_q_for_any_mean_and_spread(self, mean, se, levels):
        fc = ts.Forecast((mean,), (se,))
        levels = sorted(levels)
        vals = [ts.quantile(fc, 1, q) for q in levels]
        assert vals == sorted(vals)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(
        st.one_of(
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            # both tails, down to 1e-300: z = sqrt(-2 log y) from 2 to 37
            st.floats(-690.8, -2.0).map(math.exp),
            st.floats(-36.0, -2.0).map(lambda e: 1.0 - math.exp(e)),
            # around Cephes's branch points y = exp(-2), 1 - exp(-2) and z = 8
            st.floats(math.exp(-2) * (1 - 1e-12), math.exp(-2) * (1 + 1e-12)),
            st.floats(-math.expm1(-2) * (1 - 1e-12), -math.expm1(-2) * (1 + 1e-12)),
            st.floats(math.exp(-32) * (1 - 1e-12), math.exp(-32) * (1 + 1e-12)),
        )
    )
    @example(1e-300)
    @example(5e-324)
    @example(math.exp(-2))
    @example(1.0 - math.exp(-2))
    @example(math.nextafter(1.0 - math.exp(-2), 1.0))
    @example(math.exp(-32))
    @example(0.8)
    @example(math.nextafter(1.0, 0.0))
    def test_z_matches_scipys_ndtri(self, y):
        # NormalDist.inv_cdf (AS241) and Cephes ndtri differ by at most a few ulps
        z = ts.quantile(ts.Forecast((0.0,), (1.0,)), 1, y)
        assert z == pytest.approx(float(ndtri(y)), rel=1e-14)

    def test_out_of_range(self):
        fc = ts.Forecast((1.0,), (1.0,))
        with pytest.raises(ValueError):
            ts.quantile(fc, 2, 0.5)
        with pytest.raises(ValueError):
            ts.quantile(fc, 1, 1.0)


class TestFallback:
    def test_short_series_carries_last_value(self):
        fc = ts.forecast_with_fallback(ts.Series(tuple(map(float, [3, 5, 8]))), 4)
        assert fc.means == (8.0, 8.0, 8.0, 8.0)
        assert fc.std_errs[0] == pytest.approx(float(np.std([3, 5, 8], ddof=1)))

    def test_single_point(self):
        fc = ts.forecast_with_fallback(ts.Series(tuple(map(float, [4]))), 2)
        assert fc.means == (4.0, 4.0)
        assert fc.std_errs == (0.0, 0.0)

    # a short series takes the fallback, a long one auto_fit: both refuse the horizon
    @pytest.mark.parametrize("values", [[3, 5, 8], range(1, 21)], ids=["short", "long"])
    @pytest.mark.parametrize("h", [0, -1])
    def test_a_horizon_below_1_is_refused(self, values, h):
        s = ts.Series(tuple(map(float, values)))
        with pytest.raises(ValueError, match="forecast horizon must be >= 1"):
            ts.forecast_with_fallback(s, h)

    def test_long_series_uses_model(self):
        s = ts.Series(tuple(map(float, range(1, 21))))
        fc = ts.forecast_with_fallback(s, 1)
        assert fc.means[0] == pytest.approx(21.0, abs=0.5)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, 30).map(float), min_size=4, max_size=12),
        st.integers(1, 5),
    )
    def test_cached_forecast_equals_a_fresh_one(self, values, h):
        s = ts.Series(tuple(values))
        first = ts.forecast_with_fallback(s, h)
        # an equal series, not the same object, finds the memoised forecast,
        # with nothing left to compute it
        compute, ts._forecast_or_carry = ts._forecast_or_carry, None
        try:
            assert ts.forecast_with_fallback(ts.Series(tuple(values)), h) == first
        finally:
            ts._forecast_or_carry = compute
        assert ts.auto_fit(ts.Series(tuple(values))) is ts.auto_fit(s)
        assert first == ts.forecast(ts.auto_fit(s), s, h)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(0, 30).map(float), min_size=1, max_size=19),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    def test_a_forecast_is_the_prefix_of_a_longer_one(self, values, h, extra):
        # the short-series fallback included; the memo is bypassed, so both are computed
        forecast, s = ts._forecast_or_carry, ts.Series(tuple(values))
        short, longer = forecast(s, h), forecast(s, h + extra)
        assert short.means == longer.means[:h]
        assert short.std_errs == longer.std_errs[:h]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.integers(0, 30).map(float), min_size=1, max_size=19),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    def test_a_shorter_horizon_asked_later_is_the_prefix(self, values, h, extra):
        ts._longest.clear()
        s = ts.Series(tuple(values))
        longer = ts.forecast_with_fallback(s, h + extra)
        shorter = ts.forecast_with_fallback(ts.Series(tuple(values)), h)
        assert (shorter.means, shorter.std_errs) == (longer.means[:h], longer.std_errs[:h])
        assert shorter == ts._forecast_or_carry(s, h)
        # a longer horizon than any asked so far is forecast afresh
        assert ts.forecast_with_fallback(s, h + extra + 1) == ts._forecast_or_carry(s, h + extra + 1)


# auto_fit's selection on seeded series: the degree series of vertices 1, 2,
# 15, 23 and 26 of pa_sequence(PaConfig(s=10, s0=15, length=15,
# schedule=uniform_band_schedule(15, 1, 1), seed=run_seed(1, 0, 0))), of
# vertices 0, 11 and 13 after delete_edges(series, 5, 10, run_seed(1, 0, 1)),
# the edge count after the deletions, and the vertex- and edge-count ramps.
# Each entry: values, order, then ar, ma, intercept, sigma2 and aicc as float.hex
PINNED_FITS = {
    "pa degree 1": (
        (2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5),
        (1, 0, 1),
        ("0x1.c35edadc8970bp-1",),
        ("-0x1.fae147ae124d9p-1",),
        "0x1.50ac54bdfe738p-1", "0x1.7daef61b98b99p-4", "-0x1.4c7ae104ed6fap+4",
    ),
    "pa degree 2": (
        (2, 2, 2, 3, 3, 4, 4, 5, 6, 6, 6, 6, 7, 7, 7),
        (1, 0, 0),
        ("0x1.e3de3de3de3dcp-1",),
        (),
        "0x1.357357357358bp-1", "0x1.c21c21c21c21bp-3", "-0x1.99fa1cb231febp+3",
    ),
    "pa degree 15": (
        (10, 11, 12, 13, 14, 15, 16, 17, 17, 18, 18, 19, 20, 20, 21),
        (1, 0, 1),
        ("0x1.e199857b59d3bp-1",),
        ("-0x1.fae147ae124dap-1",),
        "0x1.b39a6e3caf483p+0", "0x1.0cc2f783787e3p-4", "-0x1.9b0d414432c32p+4",
    ),
    "pa degree 23": (
        (10, 10, 11, 11, 11, 12, 12),
        (0, 2, 0),
        (),
        (),
        "0x0.0p+0", "0x1.999999999999ap-1", "0x1.1c4c0a467ebf6p+3",
    ),
    "pa degree 26": (
        (10, 11, 12, 12),
        (0, 0, 0),
        (),
        (),
        "0x1.6800000000000p+3", "0x1.6000000000000p-1", "0x1.d00a0b884fd5cp+3",
    ),
    "deletion degree 0": (
        (2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 1, 1),
        (0, 0, 1),
        (),
        ("0x1.4e5344fb3117bp-1",),
        "0x1.d199f281c9083p+0", "0x1.b1e8c8db96b0dp-3", "-0x1.e309b15cec9f9p+3",
    ),
    "deletion degree 11": (
        (3, 2, 2, 1, 1, 0, 0, 1, 2, 2, 1, 1, 1, 0, 0),
        (0, 1, 0),
        (),
        (),
        "-0x1.b6db6db6db6dbp-3", "0x1.d0fac687d6345p-2", "-0x1.7d8deae6f3553p+2",
    ),
    "deletion degree 13": (
        (3, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1),
        (1, 0, 1),
        ("-0x1.4696e3216d9b6p-14",),
        ("0x1.fae147ae124d9p-1",),
        "0x1.249837519c19cp+0", "0x1.fa8830676fec6p-5", "-0x1.a85a981e53766p+4",
    ),
    "deletion edge count": (
        (25, 25, 30, 34, 37, 37, 38, 38, 43, 48, 48, 50, 53, 53, 55),
        (1, 0, 1),
        ("0x1.f42e09f54cb9bp-1",),
        ("-0x1.fae147ae124dap-1",),
        "0x1.8c9f4333d8643p+1", "0x1.43417de267115p+1", "0x1.96a0b75c652a0p+4",
    ),
    "vertex-count ramp": (
        (16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30),
        (1, 0, 1),
        ("0x1.fae147ae124d9p-1",),
        ("0x1.807912fd118b1p-1",),
        "0x1.382e28d5e7746p+0", "0x1.9314a989b59aep-11", "-0x1.5fc7770ef13edp+6",
    ),
    "edge-count ramp": (
        (25, 35, 45, 55, 65, 75, 85, 95, 105, 115, 125, 135, 145, 155, 165),
        (1, 0, 1),
        ("0x1.fae147ae124d9p-1",),
        ("0x1.805b8fa754b89p-1",),
        "0x1.5b065ca17552ap+3", "0x1.3ae82179684f6p-4", "-0x1.778efd4a41b68p+4",
    ),
}

# single cells, pinned with their 3-step forecast: the first two take the
# Hannan-Rissanen fallback start (too few rows for the lagged-error
# regression), the third its two-stage regression.  Each entry: values,
# order, ar, ma, intercept, sigma2, aicc, forecast means, forecast std_errs
PINNED_CELLS = [
    (
        (3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7),
        (3, 0, 4),
        ("0x1.12ccfdfc66f5ep-1", "-0x1.d4bcca7ae0df4p-3", "0x1.cb945c4bcc7fcp-3"),
        ("0x1.e937417281065p-5", "0x1.c40c37247b05ap-5", "-0x1.b4a222f9c66adp-4",
         "-0x1.ab42cb2df377dp-5"),
        "0x1.60d505c68683ep+1", "0x1.fe1e106756789p-3", "0x1.6d47f33bba932p+6",
        ("0x1.9ce3b3db632f1p+2", "0x1.87d8036b9fda1p+2", "0x1.83183abfb7fd2p+2"),
        ("0x1.ff0ecf6487bf8p-2", "0x1.29873a31b15c1p-1", "0x1.2bdf268adefcap-1"),
    ),
    (
        (10, 11, 11, 11, 12, 12, 13, 13, 13, 13),
        (2, 1, 1),
        ("-0x1.ffffffffffffdp-2", "-0x1.555555555554ep-3"),
        ("0x0.0p+0",),
        "0x1.ffffffffffffdp-2", "0x1.5555555555556p-3", "0x1.cba956146c900p+5",
        ("0x1.b000000000000p+3", "0x1.b800000000000p+3", "0x1.c155555555555p+3"),
        ("0x1.a20bd700c2c3ep-2", "0x1.d363d1848dcc0p-2", "0x1.079755d8e9c05p-1"),
    ),
    (
        (10, 11, 12, 13, 14, 15, 16, 17, 17, 18, 18, 19, 20, 20, 21),
        (2, 1, 2),
        ("-0x1.1ccf0908b13adp-1", "-0x1.bc247d4ac2258p-2"),
        ("0x1.f4bdf9f61e8ddp-2", "0x1.00824ab30306ap-1"),
        "0x1.44f3bc4be9866p+1", "0x1.dd3e860ad076cp-2", "0x1.3a38075680e4fp+4",
        ("0x1.62955fbe709fdp+4", "0x1.76e97badb8196p+4", "0x1.8c29a55155c72p+4"),
        ("0x1.5d88e3b3bf10bp-1", "0x1.ddfb562cb4973p-1", "0x1.2bfb254fb1021p+0"),
    ),
]


def hex_fit(fit):
    return (
        (fit.p, fit.d, fit.q),
        tuple(map(float.hex, fit.ar_coeffs)),
        tuple(map(float.hex, fit.ma_coeffs)),
        fit.intercept.hex(), fit.sigma2.hex(), fit.aicc.hex(),
    )


class TestPinnedFits:
    """Fits and forecasts pinned bit for bit: any change to the kernel's arithmetic fails here."""

    @pytest.mark.parametrize("name", PINNED_FITS)
    def test_auto_fit(self, name):
        values, *pinned = PINNED_FITS[name]
        ts.auto_fit.cache_clear()
        assert hex_fit(ts.auto_fit(ts.Series(tuple(map(float, values))))) == tuple(pinned)

    @pytest.mark.parametrize("cell", PINNED_CELLS, ids=lambda cell: "ARIMA%s" % (cell[1],))
    def test_cell_and_its_forecast(self, cell):
        values, order, *pinned, means, std_errs = cell
        s = ts.Series(tuple(map(float, values)))
        fit = ts.fit(s, *order)
        assert hex_fit(fit) == (order, *pinned)
        fc = ts.forecast(fit, s, 3)
        assert tuple(map(float.hex, fc.means)) == means
        assert tuple(map(float.hex, fc.std_errs)) == std_errs
