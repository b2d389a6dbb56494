"""Univariate ARIMA modelling for short integer-valued count series.

Fitting uses conditional sum of squares (CSS) rather than full maximum
likelihood: at the series lengths seen here (typically 15 points) the two
agree to well within forecast noise, and CSS needs no state-space machinery.
Order selection minimises AICc over a fixed (p, d, q) grid.  Predictive
intervals are the usual Gaussian psi-weight approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import norm

MAX_P = 5
MAX_D = 2
MAX_Q = 5

# coordinate-search settings for the CSS optimiser
_SWEEP_CAP = 500
_RSS_TOL = 1e-8
# sum(|phi|) and sum(|theta|) are kept below this: a sufficient condition for
# stationarity and invertibility, without which CSS happily fits explosive or
# non-invertible coefficients that forecast nonsense
_REGION_LIMIT = 0.99


@dataclass(frozen=True)
class Series:
    """An observed time series with a 1-based time index of its first value."""

    values: tuple[float, ...]
    origin_index: int = 1

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("series must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("series values must be finite")
        if self.origin_index < 1:
            raise ValueError("origin_index must be >= 1")

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def from_values(values, origin_index: int = 1) -> "Series":
        return Series(tuple(float(v) for v in values), origin_index)


@dataclass(frozen=True)
class ArimaFit:
    """A fitted ARIMA(p, d, q) model in regression form.

    The d-differenced series w satisfies
    ``w_t = intercept + sum_i ar[i] * w_{t-1-i} + sum_j ma[j] * e_{t-1-j} + e_t``.
    """

    p: int
    d: int
    q: int
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    intercept: float
    sigma2: float
    aicc: float
    n_obs: int

    def __post_init__(self):
        if not (0 <= self.p <= MAX_P and 0 <= self.d <= MAX_D and 0 <= self.q <= MAX_Q):
            raise ValueError("order outside supported bounds")
        if len(self.ar_coeffs) != self.p or len(self.ma_coeffs) != self.q:
            raise ValueError("coefficient length does not match order")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")


@dataclass(frozen=True)
class Forecast:
    """Point forecasts and standard errors for steps 1..h."""

    means: tuple[float, ...]
    std_errs: tuple[float, ...]

    def __post_init__(self):
        if len(self.means) != len(self.std_errs):
            raise ValueError("means and std_errs must have equal length")
        if any(s < 0 for s in self.std_errs):
            raise ValueError("std_errs must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.means)


def difference(series: Series, d: int) -> Series:
    """d-th order forward difference; length shrinks by d."""
    if d < 0:
        raise ValueError("d must be non-negative")
    if len(series) <= d:
        raise ValueError(f"series of length {len(series)} too short to difference {d} times")
    vals = list(series.values)
    for _ in range(d):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return Series(tuple(vals), series.origin_index + d)


def _css_rss_py(w, p, q, params):
    """Conditional sum of squared one-step residuals (pure-Python kernel).

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


def _ols_ar_fit(w, p):
    """Least-squares fit of w_t on an intercept and p lags; exact CSS optimum for q=0."""
    n = len(w)
    if p == 0:
        c = float(np.mean(w))
        resid = w - c
        return np.array([c]), float(resid @ resid)
    y = w[p:]
    cols = [np.ones(n - p)]
    for i in range(p):
        cols.append(w[p - 1 - i : n - 1 - i])
    X = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return beta, float(resid @ resid)


def _project_region(params: np.ndarray, p: int, q: int) -> np.ndarray:
    """Scale AR and MA blocks into the stationary/invertible search region."""
    out = params.copy()
    for lo, size in ((1, p), (1 + p, q)):
        block = out[lo : lo + size]
        total = np.abs(block).sum()
        if total > _REGION_LIMIT:
            block *= (_REGION_LIMIT * 0.98) / total
    return out


def _in_region(params, p, q) -> bool:
    if p and sum(abs(float(v)) for v in params[1 : 1 + p]) > _REGION_LIMIT:
        return False
    if q and sum(abs(float(v)) for v in params[1 + p : 1 + p + q]) > _REGION_LIMIT:
        return False
    return True


def _hannan_rissanen_start(w: np.ndarray, p: int, q: int) -> np.ndarray:
    """Two-stage regression start: residuals of a long AR feed a lagged-error fit."""
    n = len(w)
    L = min(max(p + q, 2), max((n - 1) // 2, 1))
    beta, _ = _ols_ar_fit(w, L)
    e = np.zeros(n)
    for t in range(L, n):
        e[t] = w[t] - beta[0] - sum(beta[1 + i] * w[t - 1 - i] for i in range(L))
    m = max(p, q) + L
    if n - m < p + q + 2:
        return np.concatenate([_ols_ar_fit(w, p)[0], np.zeros(q)])
    y = w[m:]
    cols = [np.ones(n - m)]
    for i in range(p):
        cols.append(w[m - 1 - i : n - 1 - i])
    for j in range(q):
        cols.append(e[m - 1 - j : n - 1 - j])
    X = np.column_stack(cols)
    beta2, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta2


def _coordinate_search(w_list, p, q, params0, rss0):
    """Derivative-free coordinate descent with one restart on the CSS objective.

    Probes stepping outside the stationary/invertible region are rejected.
    """
    params = np.array(params0, dtype=float)

    def evaluate():
        return _css_rss_py(w_list, p, q, params.tolist())

    best = rss0
    nparams = len(params0)
    # |sum of the other coefficients in the same AR/MA block|, per coordinate;
    # lets the region check be a single float comparison per probe
    def block_of(ci):
        if 1 <= ci <= p:
            return 1, 1 + p
        if ci > p:
            return 1 + p, 1 + p + q
        return None

    for phase in range(2):  # second pass restarts the step sizes
        steps = [0.1 if phase == 0 else 0.05] * nparams
        for _ in range(_SWEEP_CAP):
            sweep_start = best
            for ci in range(nparams):
                blk = block_of(ci)
                if blk is None:
                    headroom = math.inf
                else:
                    lo, hi = blk
                    others = sum(abs(float(params[v])) for v in range(lo, hi) if v != ci)
                    headroom = _REGION_LIMIT - others
                step = steps[ci]
                old = float(params[ci])
                moved = False
                for direction in (1.0, -1.0):
                    for _ in range(30):  # doubling chain per visit
                        cand = old + direction * step
                        if abs(cand) > headroom:
                            break
                        params[ci] = cand
                        rss = evaluate()
                        if rss < best - 1e-15:
                            best = rss
                            old = cand
                            moved = True
                            step = min(step * 2.0, 1e3)
                        else:
                            params[ci] = old
                            break
                    if moved:
                        break
                steps[ci] = max(step * 0.5, 1e-10)
            # tolerance scales with the RSS magnitude so large-count series
            # stop once further gains are forecast-irrelevant
            if sweep_start - best < _RSS_TOL * (1.0 + best):
                break
        else:
            raise RuntimeError("CSS optimiser exceeded its sweep cap without converging")
    return params, best


def _aicc(rss: float, n_eff: int, p: int, q: int) -> float:
    k = p + q + 2  # intercept and innovation variance count as parameters
    if n_eff - k - 1 <= 0:
        return math.inf
    sigma2 = rss / n_eff
    loglik_term = n_eff * math.log(max(sigma2, 1e-300))
    return loglik_term + 2 * k + 2 * k * (k + 1) / (n_eff - k - 1)


def fit(series: Series, p: int, d: int, q: int) -> ArimaFit:
    """Fit ARIMA(p, d, q) by conditional sum of squares.

    Raises ValueError when the series is too short for the requested order
    and RuntimeError when the optimiser fails to converge (q > 0 only).
    """
    n = len(series)
    if n < p + q + d + 3:
        raise ValueError(
            f"series of length {n} is too short for ARIMA({p},{d},{q}); need >= {p + q + d + 3}"
        )
    w = np.asarray(difference(series, d).values, dtype=float) if d else np.asarray(
        series.values, dtype=float
    )
    if q == 0:
        params, rss = _ols_ar_fit(w, p)
        if not _in_region(params, p, q):
            w_list = w.tolist()
            params = _project_region(params, p, q)
            rss0 = _css_rss_py(w_list, p, q, list(params))
            params, rss = _coordinate_search(w_list, p, q, params, rss0)
    else:
        params0 = _project_region(_hannan_rissanen_start(w, p, q), p, q)
        w_list = w.tolist()
        rss0 = _css_rss_py(w_list, p, q, list(params0))
        params, rss = _coordinate_search(w_list, p, q, params0, rss0)
    n_eff = len(w) - p
    sigma2 = rss / n_eff
    return ArimaFit(
        p=p,
        d=d,
        q=q,
        ar_coeffs=tuple(float(v) for v in params[1 : 1 + p]),
        ma_coeffs=tuple(float(v) for v in params[1 + p : 1 + p + q]),
        intercept=float(params[0]),
        sigma2=float(sigma2),
        aicc=_aicc(rss, n_eff, p, q),
        n_obs=n,
    )


@lru_cache(maxsize=8192)
def _auto_fit_cached(values: tuple[float, ...]) -> ArimaFit:
    series = Series(values)
    if len(set(values)) == 1:
        # Every grid cell fits a constant series exactly; the AICc tie-break
        # (fewest parameters, least differencing) always lands on (0,0,0).
        return fit(series, 0, 0, 0)
    best = None
    best_key = None
    n = len(series)
    for d in range(MAX_D + 1):
        for p in range(MAX_P + 1):
            for q in range(MAX_Q + 1):
                if n < p + q + d + 3:
                    continue
                if (n - d - p) - (p + q + 2) - 1 <= 0:
                    continue  # AICc undefined: the cell could never be selected
                try:
                    cand = fit(series, p, d, q)
                except (ValueError, RuntimeError):
                    continue
                key = (cand.aicc, p + q, d, p)
                if best_key is None or key < best_key:
                    best, best_key = cand, key
    if best is None:
        raise ValueError("no ARIMA order is fittable for this series")
    return best


def auto_fit(series: Series) -> ArimaFit:
    """Grid-search ARIMA orders (p<=5, d<=2, q<=5) and return the minimal-AICc fit.

    Ties break deterministically: smaller p+q, then smaller d, then smaller p.
    """
    if len(series) < 4:
        raise ValueError(f"auto_fit needs at least 4 observations, got {len(series)}")
    return _auto_fit_cached(series.values)


def _psi_weights(fit_: ArimaFit, h: int) -> np.ndarray:
    """Impulse response weights of the d-integrated ARMA process."""
    # phi(B) * (1-B)^d = 1 - sum_i g_i B^i
    a = np.array([1.0] + [-c for c in fit_.ar_coeffs])
    for _ in range(fit_.d):
        a = np.convolve(a, [1.0, -1.0])
    g = -a[1:]
    psi = np.zeros(h)
    psi[0] = 1.0
    for m in range(1, h):
        acc = fit_.ma_coeffs[m - 1] if m - 1 < fit_.q else 0.0
        for i in range(1, min(m, len(g)) + 1):
            acc += g[i - 1] * psi[m - i]
        psi[m] = acc
    return psi


def forecast(fit_: ArimaFit, series: Series, h: int) -> Forecast:
    """h-step forecast: ARMA recursion on the differenced scale, integrated back."""
    if h < 1:
        raise ValueError("forecast horizon must be >= 1")
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
    psi = _psi_weights(fit_, h)
    variances = fit_.sigma2 * np.cumsum(psi * psi)
    std_errs = np.sqrt(np.maximum(variances, 0.0))
    return Forecast(tuple(float(v) for v in fc), tuple(float(s) for s in std_errs))


def quantile(forecast_: Forecast, step: int, q: float) -> float:
    """Gaussian predictive quantile at the given step (1-based)."""
    if not 1 <= step <= forecast_.horizon:
        raise ValueError(f"step {step} outside forecast horizon 1..{forecast_.horizon}")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    se = forecast_.std_errs[step - 1]
    if se == 0.0 or q == 0.5:
        return forecast_.means[step - 1]
    return forecast_.means[step - 1] + float(norm.ppf(q)) * se


def forecast_with_fallback(series: Series, h: int) -> Forecast:
    """Forecast via auto_fit, or a last-value carry for series shorter than 4.

    The fallback uses the last observation as the mean at every step and the
    sample standard deviation (0 for a single point) as the spread, so young
    vertices with brief histories never fail the pipeline.
    """
    if len(series) >= 4:
        return forecast(auto_fit(series), series, h)
    vals = np.asarray(series.values, dtype=float)
    sd = float(np.std(vals, ddof=1)) if len(vals) >= 2 else 0.0
    return Forecast((float(vals[-1]),) * h, (sd,) * h)
