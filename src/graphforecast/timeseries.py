"""Univariate ARIMA modelling for short integer-valued count series.

Fitting uses conditional sum of squares (CSS) rather than full maximum
likelihood: at the series lengths seen here (typically 15 points) the two
agree to well within forecast noise, and CSS needs no state-space machinery.
On the d-differenced series w, the CSS residuals of ARIMA(p, d, q) solve one
banded triangular system, L(theta) e = y - X beta, where y holds w_t for
t >= p, X the intercept and p lags, and L(theta) = I + sum_j theta_j S^(j+1)
for the down-shift S (residuals before t = p count as zero, the usual CSS
conditioning).  The same system gives the residual Jacobian
-L^-1 [X, S e, ..., S^q e] (Box, Jenkins & Reinsel, Time Series Analysis,
section 7.2), so each (p, d, q) cell is fitted by Levenberg-Marquardt from a
Hannan-Rissanen start, with every step kept inside the stationary and
invertible region sum|phi| <= 0.99, sum|theta| <= 0.99.  Pure AR cells whose
least-squares fit lies in that region take it as is.  Order selection
follows auto.arima: d is the number of differences a KPSS test asks for,
since AICc cannot compare fits of differently differenced data, and (p, q)
is found by a stepwise AICc search at that d.  The search leaves out every
cell with q >= 1 that cannot win, as leaps and bounds does for subset
regression (Furnival & Wilson, Technometrics 16(4), 1974).  The cell's
residuals are e = L(theta)^-1 (y - X beta) on the rows and regressors of the
least-squares AR(p) fit of the same w, so |y - X beta|^2 >= RSS_AR(p), the
least over beta; and |L(theta)|_2 <= 1 + sum|theta_j| < 2 in the region, so
the cell's RSS is at least RSS_AR(p) / 4.  A cell whose AICc at that RSS is
above the least AICc fitted so far is not fitted; the bound is used only where
RSS_AR(p) is above rounding level, and the q = 0 cells, which it never
leaves out, are fitted first (``auto_fit``).  Forecasts continue the ARMA
recursion from the in-sample residuals of the same CSS kernel, and their
predictive intervals are the usual Gaussian psi-weight approximation, whose
quantiles are the standard library's NormalDist.inv_cdf (Wichura's AS241).
``upper_bound`` turns a count series into its forecast quantile clamped at
0, the one form every count forecast of the prediction takes.

Each quantity is computed once per series, which hashes by value.
``auto_fit`` is memoised by the series; within its search the d-differenced
array is built once per (series, d) and the least-squares AR(p) fit solved
once per (series, d, p).  ``forecast_with_fallback`` forecasts each count
series once, at the longest horizon asked of it, and returns a shorter
horizon as the prefix of that forecast, so a sweep's cells and a protocol's
horizons fit and forecast each distinct series once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from statistics import NormalDist

import numpy as np
from numpy.linalg import _umath_linalg

from . import _extensions

log = logging.getLogger(__name__)

# BLAS trsm, the one scipy routine the fit calls, without scipy.linalg's start-up
dtrsm = _extensions.load("scipy.linalg._fblas").dtrsm

MAX_P = 5
MAX_D = 2
MAX_Q = 5

# sum(|phi|) and sum(|theta|) are kept below this: a sufficient condition for
# stationarity and invertibility, without which CSS happily fits explosive or
# non-invertible coefficients that forecast nonsense
_REGION_LIMIT = 0.99
_REGION_INNER = _REGION_LIMIT * (1.0 - 1e-12)

# Levenberg-Marquardt settings for the CSS fit of one (p, d, q) cell
_MAX_ITER = 500  # trial steps, accepted or rejected, before the cell is given up
_RSS_TOL = 1e-8
_DAMPING_START = 1e-3
_DAMPING_MAX = 1e10  # no damped step lowers the RSS: a minimum, or one on the region's edge

# 5% critical value of the KPSS level-stationarity statistic (Kwiatkowski,
# Phillips, Schmidt & Shin, J. Econometrics 54, 1992, table 1)
_KPSS_CRITICAL = 0.463

_STANDARD_NORMAL = NormalDist()
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Series:
    """An observed time series of finite values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("series must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)


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
    return Series(tuple(vals))


@lru_cache(maxsize=MAX_D + 1)  # every level one series' fits and forecast ask for
def _differenced(series: Series, d: int) -> np.ndarray:
    """difference(series, d) as a read-only float array, memoised by (series, d)."""
    w = np.asarray(difference(series, d).values, dtype=float)
    w.flags.writeable = False
    return w


def _regressors(w: np.ndarray, p: int) -> np.ndarray:
    """The CSS equations of w as columns [y, 1, w_{t-1}, ..., w_{t-p}] over t = p..n-1."""
    n = len(w)
    yX = np.ones((n - p, 2 + p))
    yX[:, 0] = w[p:]
    for i in range(p):
        yX[:, 2 + i] = w[p - 1 - i : n - 1 - i]
    return yX


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of A x = b, as np.linalg.lstsq(A, b, rcond=None) gives it.

    LAPACK gelsd through numpy's own kernel, without lstsq's checks and
    reshaping: 9 us against 12 us for a 12 x 4 system on a 2-core Xeon.
    """
    rcond = _EPS * max(A.shape)
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(A, b[:, None], rcond, signature="ddd->ddid")[0][:, 0]


@lru_cache(maxsize=MAX_P + MAX_Q + 1)  # every AR order one search can ask for
def _ols_ar_fit(series: Series, d: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of w_t on an intercept and p lags, with its residuals
    over t = p..n-1, for w the d-differenced series; the exact CSS optimum for
    q=0.  Memoised by (series, d, p): the (p, 0) cell, the RSS floor of the
    (p, q) cells and the Hannan-Rissanen start share one solve."""
    w = _differenced(series, d)
    if p == 0:
        c = float(np.mean(w))
        beta, resid = np.array([c]), w - c
    else:
        yX = _regressors(w, p)
        beta = _lstsq(yX[:, 1:], yX[:, 0])
        resid = yX[:, 0] - yX[:, 1:] @ beta
    beta.flags.writeable = resid.flags.writeable = False
    return beta, resid


def _project_region(params: np.ndarray, p: int, q: int) -> np.ndarray:
    """Scale AR and MA blocks into the stationary/invertible search region."""
    out = params.copy()
    for lo, size in ((1, p), (1 + p, q)):
        block = out[lo : lo + size]
        total = np.abs(block).sum()
        if total > _REGION_LIMIT:
            block *= (_REGION_LIMIT * 0.98) / total
    return out


def _hannan_rissanen_start(series: Series, d: int, p: int, q: int) -> np.ndarray:
    """Two-stage regression start on the d-differenced series: residuals of a
    long AR feed a lagged-error fit."""
    w = _differenced(series, d)
    n = len(w)
    L = min(max(p + q, 2), max((n - 1) // 2, 1))
    m = max(p, q) + L
    if n - m < p + q + 2:
        return np.concatenate([_ols_ar_fit(series, d, p)[0], np.zeros(q)])
    e = np.zeros(n)
    e[L:] = _ols_ar_fit(series, d, L)[1]
    yX = _regressors(w, p)[m - p :]
    X = np.hstack([yX[:, 1:], _regressors(e, q)[m - q :, 2:]])
    return _lstsq(X, yX[:, 0])


@lru_cache(maxsize=None)
def _band(m: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x m identity, the flat indices of its sub-diagonals 1..q and their lengths."""
    eye = np.eye(m)
    eye.flags.writeable = False
    lengths = np.array([max(m - 1 - j, 0) for j in range(q)])
    flat = np.concatenate([(j + 1) * m + (m + 1) * np.arange(n) for j, n in enumerate(lengths)])
    return eye, flat, lengths


def _css_residuals(yX: np.ndarray, params: np.ndarray, q: int):
    """CSS residuals e = L(theta)^-1 (y - X beta) of one parameter vector.

    params is (intercept, phi..., theta...); L(theta) = I + sum_j theta_j S^(j+1)
    for the down-shift S.  Returns e with L and L^-1 X, which the Jacobian reuses.
    """
    k = yX.shape[1] - 1
    if q:
        eye, flat, lengths = _band(len(yX), q)
        L = eye.copy()
        L.ravel()[flat] = params[k:].repeat(lengths)
        # BLAS trsm rather than scipy.linalg.solve_triangular, whose LAPACK trtrs
        # OpenBLAS threads even at this size: on a 2-core host with the other
        # core busy a 14 x 14 solve took 2.5 ms that way and 3 us this way
        Z = dtrsm(1.0, L, yX, lower=1, diag=1)
    else:
        L, Z = None, yX
    return Z[:, 0] - Z[:, 1:] @ params[:k], L, Z[:, 1:]


def _css_jacobian(e: np.ndarray, L, LinvX: np.ndarray, q: int) -> np.ndarray:
    """Residual Jacobian -L^-1 [X, S e, ..., S^q e] in (intercept, phi, theta).

    L^-1 is a polynomial in S and commutes with it, so the theta columns are
    shifts of the one solve L^-1 e.
    """
    m, k = LinvX.shape
    J = np.zeros((m, k + q))
    np.negative(LinvX, out=J[:, :k])
    if q:
        u = dtrsm(1.0, L, e[:, None], lower=1, diag=1)[:, 0]
        for j in range(q):
            np.negative(u[: m - 1 - j], out=J[j + 1 :, k + j])
    return J


def _abs_sum(values) -> float:
    """sum |v| added left to right, as numpy adds arrays of fewer than 8 entries.

    Not the builtin sum, which compensates rounding from Python 3.12 on.
    """
    total = 0.0
    for v in values:
        total += abs(v)
    return total


def _step_limit(x: list[float], dx: list[float]) -> float:
    """Largest t in [0, 1] that keeps sum|x + t dx| within the region.

    The limit sits a hair inside _REGION_LIMIT, so rounding never leaves the
    region, or at sum|x| if x is already past it by rounding.
    sum|x + t dx| is convex and piecewise linear in t, with a breakpoint
    wherever a coordinate crosses zero; the crossing of the limit is
    interpolated on the first segment that ends above it.  A block holds at
    most 5 entries, so Python floats cost less here than numpy calls.
    """
    t0, f0 = 0.0, _abs_sum(x)
    limit = max(_REGION_INNER, f0)
    if _abs_sum([a + b for a, b in zip(x, dx)]) <= limit:
        return 1.0
    roots = sorted(r for r in (-a / b for a, b in zip(x, dx) if b != 0.0) if 0.0 < r < 1.0)
    for t1 in roots + [1.0]:
        f1 = _abs_sum([a + t1 * b for a, b in zip(x, dx)])
        if f1 > limit:
            break
        t0, f0 = t1, f1
    return max(t0 + (limit - f0) * (t1 - t0) / (f1 - f0), 0.0)


def _solve(M: np.ndarray, g: np.ndarray, free: np.ndarray | None = None):
    """h solving M h = -g for the free parameters (all by default), 0 for the others.

    None when M is singular, which the kernel flags as invalid: call it under
    np.errstate(invalid="raise").
    """
    A, b = (M, -g) if free is None else (M[free][:, free], -g[free])
    # LAPACK gesv through numpy's own kernel: np.linalg.solve's checks cost 5 us around
    # its 1.5 us solve, and scipy's dgesv links another OpenBLAS, which rounds differently
    try:
        x = _umath_linalg.solve1(A, b)
    except FloatingPointError:
        return None
    if free is None:
        return x
    h = np.zeros_like(g)
    h[free] = x
    return h


def _damped_step(M: np.ndarray, g: np.ndarray, params: np.ndarray, blocks) -> np.ndarray:
    """The step solving M h = -g, shortened to stay in the region.

    A block on its region edge that the step would push further out is held
    where it is, and the step re-solved for the other parameters.  The step
    is then scaled by the largest t in (0, 1] that keeps every block inside.
    """
    x = params.tolist()
    free = None  # every parameter, until a block is held
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        while (step := _solve(M, g, free)) is not None:
            dx = step.tolist()
            limits = [_step_limit(x[b], dx[b]) for b in blocks]
            if all(limits):
                return min(limits, default=1.0) * step
            if free is None:
                free = np.ones(len(g), dtype=bool)
            for b, t in zip(blocks, limits):
                if t == 0.0:
                    free[b] = False
    return np.zeros_like(g)  # M is singular: rejected like any step that does not lower the RSS


def _lm_fit(w: np.ndarray, p: int, q: int, params: np.ndarray):
    """Levenberg-Marquardt CSS fit of one cell from a start inside the region.

    The damping follows the gain ratio of actual to predicted RSS reduction
    (Madsen, Nielsen & Tingleff, Methods for Non-Linear Least Squares
    Problems, 2004, section 3.2).  Stops when an accepted step lowers the RSS
    by less than _RSS_TOL * (1 + RSS), or when no damping lowers it at all.
    """
    yX = _regressors(w, p)
    blocks = [b for b in (slice(1, 1 + p), slice(1 + p, 1 + p + q)) if b.stop > b.start]
    e, L, LinvX = _css_residuals(yX, params, q)
    rss = float(e @ e)
    damping, growth = _DAMPING_START, 2.0
    J = None
    for _ in range(_MAX_ITER):
        if J is None:
            J = _css_jacobian(e, L, LinvX, q)
            A, g = J.T @ J, J.T @ e
            diag = A.diagonal()
            scale = np.maximum(diag, 1e-12 * diag.max())
        damped = A.copy()
        damped.ravel()[:: len(diag) + 1] = diag + damping * scale
        h = _damped_step(damped, g, params, blocks)
        e1, L1, LinvX1 = _css_residuals(yX, params + h, q)
        rss1 = float(e1 @ e1)
        if rss1 < rss:
            gain = (rss - rss1) / -(2.0 * (g @ h) + h @ A @ h)
            done = rss - rss1 < _RSS_TOL * (1.0 + rss1)
            params, e, L, LinvX, rss = params + h, e1, L1, LinvX1, rss1
            if done:
                return params, rss
            J = None
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0
            if damping > _DAMPING_MAX:
                return params, rss
    raise RuntimeError(f"CSS fit did not converge in {_MAX_ITER} Levenberg-Marquardt steps")


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
    and RuntimeError when Levenberg-Marquardt has not converged within
    _MAX_ITER steps (only cells with q > 0, or whose AR fit leaves the region).
    """
    n = len(series)
    if n < p + q + d + 3:
        raise ValueError(
            f"series of length {n} is too short for ARIMA({p},{d},{q}); need >= {p + q + d + 3}"
        )
    w = _differenced(series, d)
    if q == 0:
        params, resid = _ols_ar_fit(series, d, p)
        rss = float(resid @ resid)
        start = _project_region(params, p, q)
        if not np.array_equal(start, params):
            params, rss = _lm_fit(w, p, q, start)
    else:
        start = _hannan_rissanen_start(series, d, p, q)
        params, rss = _lm_fit(w, p, q, _project_region(start, p, q))
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


def _kpss(w: np.ndarray) -> float:
    """KPSS level-stationarity statistic of w (Kwiatkowski, Phillips, Schmidt & Shin 1992).

    The partial sums of the demeaned series over n^2 times a Newey-West
    long-run variance, with Bartlett weights to lag trunc(12 (n/100)^(1/4)),
    capped at n - 1.  The shorter lag trunc(4 (n/100)^(1/4)) rejects white
    noise too often at the series lengths seen here.
    """
    n = len(w)
    e = w - w.mean()
    s = np.cumsum(e)
    lags = min(int(12.0 * (n / 100.0) ** 0.25), n - 1)
    lrv = e @ e + sum(2.0 * (1.0 - j / (lags + 1)) * (e[j:] @ e[:-j]) for j in range(1, lags + 1))
    return float(s @ s / (n * lrv))


def _kpss_d(values: tuple[float, ...]) -> int:
    """Differences taken while KPSS rejects level stationarity at 5%.

    Stops at MAX_D, at a constant series, and at n - 4 differences, past which
    no cell's AICc is defined.
    """
    w = np.asarray(values, dtype=float)
    d = 0
    while d < min(MAX_D, len(values) - 4) and np.ptp(w) > 0 and _kpss(w) > _KPSS_CRITICAL:
        w = np.diff(w)
        d += 1
    return d


@lru_cache(maxsize=8192)
def auto_fit(series: Series) -> ArimaFit:
    """Select an ARIMA order as auto.arima does and return its fit.

    d is the number of differences KPSS asks for (``_kpss_d``).  At that d,
    the search starts from the best of (2,2), (0,0), (1,0) and (0,1) and
    moves to the best neighbouring (p +- 1, q +- 1) cell while one lowers
    the key (AICc, p+q, d, p) (Hyndman & Khandakar, J. Stat. Softw. 27(3),
    2008).  Cells whose fit does not converge are skipped.

    A cell with q >= 1 is not fitted when its AICc at the RSS floor
    RSS_AR(p) / 4 is above the least AICc fitted so far (see the module
    docstring): its key could only be above the best one.  RSS_AR(p) is the
    RSS of ``_ols_ar_fit`` on the cell's own differenced series and rows, so
    the floor holds at any d, and with any column added to X that the AR fit
    takes too, such as a drift term.  It is asked for only when a q >= 1
    cell is reached, and the search solves each AR(p) once: the (p, 0) cell,
    the floor and the Hannan-Rissanen starts share the memoised solve.  The
    floor is used only above the rounding level, RSS_AR(p) > _RSS_TOL * (w . w), since an exact AR fit
    leaves rounding residuals that a cell's RSS can fall below.  The cells
    are tried in order of q, (0,0), (1,0), (0,1), (2,2) first and then the
    neighbours from q - 1 to q + 1, so that the floor has a least AICc to
    beat; the minimum over distinct keys is the same in any order.  The
    cells fitted and left out are logged at DEBUG.  The fit is memoised by
    the series' values.
    """
    if len(series) < 4:
        raise ValueError(f"auto_fit needs at least 4 observations, got {len(series)}")
    values = series.values
    if len(set(values)) == 1:
        # Every cell fits a constant series exactly, and (0,0,0), with the
        # fewest parameters, has the least AICc.
        return fit(series, 0, 0, 0)
    n, d = len(series), _kpss_d(values)
    fits: dict[tuple[int, int], ArimaFit | None] = {}
    fitted: list[tuple[int, int]] = []
    left_out: list[tuple[int, int]] = []
    least = math.inf  # the least AICc fitted so far

    def rss_floor(p: int) -> float:
        """RSS_AR(p) / 4, under the RSS of every cell (p, q); 0 where RSS_AR(p) is rounding."""
        w, resid = _differenced(series, d), _ols_ar_fit(series, d, p)[1]
        rss = float(resid @ resid)
        return rss / 4.0 if rss > _RSS_TOL * float(w @ w) else 0.0

    def key(cell: tuple[int, int]) -> tuple:
        """The cell's (aicc, p+q, d, p), or (inf,) if it cannot be selected or cannot win."""
        nonlocal least
        p, q = cell
        if cell not in fits:
            fits[cell] = None
            if 0 <= p <= MAX_P and 0 <= q <= MAX_Q and (n - d - p) - (p + q + 2) - 1 > 0:
                if q and (floor := rss_floor(p)) and _aicc(floor, n - d - p, p, q) > least:
                    left_out.append(cell)
                else:
                    fitted.append(cell)
                    try:
                        fits[cell] = fit(series, p, d, q)
                        least = min(least, fits[cell].aicc)
                    except RuntimeError:
                        log.warning(
                            "skipped ARIMA(%d,%d,%d), which did not converge on a series of length %d",
                            p, d, q, n,
                        )
        f = fits[cell]
        return (math.inf,) if f is None else (f.aicc, p + q, d, p)

    best = min([(0, 0), (1, 0), (0, 1), (2, 2)], key=key)  # (0, 0) is always selectable
    while True:
        p, q = best
        step = min([(p + i, q + j) for j in (-1, 0, 1) for i in (-1, 0, 1) if i or j], key=key)
        if key(step) >= key(best):
            log.debug(
                "ARIMA search at d=%d on a series of length %d fitted (p, q) %s; "
                "the RSS bound left out %s",
                d, n, fitted, left_out,
            )
            return fits[best]
        best = step


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
    """h-step forecast: ARMA recursion on the differenced scale, integrated back.

    The in-sample residuals are the fit's CSS residuals, zero before t = p.
    """
    if h < 1:
        raise ValueError("forecast horizon must be >= 1")
    p, q, c = fit_.p, fit_.q, fit_.intercept
    ar, ma = fit_.ar_coeffs, fit_.ma_coeffs
    w = _differenced(series, fit_.d)
    n = len(w)
    e = np.zeros(n)
    e[p:] = _css_residuals(_regressors(w, p), np.array([c, *ar, *ma]), q)[0]
    wext, eext = w.tolist(), e.tolist()
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
        # a running sum from the level's last value, added left to right
        fc = list(accumulate(fc, initial=float(_differenced(series, level)[-1])))[1:]
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
    return forecast_.means[step - 1] + _STANDARD_NORMAL.inv_cdf(q) * forecast_.std_errs[step - 1]


# the longest forecast made of each count series, oldest series first
_longest: dict[Series, Forecast] = {}
_LONGEST_KEPT = 8192


def _forecast_or_carry(series: Series, h: int) -> Forecast:
    """The h-step forecast of auto_fit's model, or a last-value carry for series shorter than 4."""
    if len(series) >= 4:
        return forecast(auto_fit(series), series, h)
    vals = np.asarray(series.values, dtype=float)
    sd = float(np.std(vals, ddof=1)) if len(vals) >= 2 else 0.0
    return Forecast((float(vals[-1]),) * h, (sd,) * h)


def forecast_with_fallback(series: Series, h: int) -> Forecast:
    """Forecast via auto_fit, or a last-value carry for series shorter than 4.

    The fallback uses the last observation as the mean at every step and the
    sample standard deviation (0 for a single point) as the spread, so young
    vertices with brief histories never fail the pipeline.  Each series is
    forecast once, at the longest horizon asked of it so far: a shorter
    horizon is the first h steps of that forecast, which are the h-step
    forecast bit for bit (the ARMA recursion, the integration and the psi
    weights all run step by step).  So a sweep's cells, vertices with equal
    degree histories, and a protocol that asks its longest horizon first
    forecast each distinct series once.  The memo holds the latest
    _LONGEST_KEPT series.
    """
    if h < 1:
        raise ValueError("forecast horizon must be >= 1")
    longest = _longest.get(series)
    if longest is None or longest.horizon < h:
        if longest is None and len(_longest) == _LONGEST_KEPT:
            del _longest[next(iter(_longest))]
        longest = _longest[series] = _forecast_or_carry(series, h)
    if longest.horizon == h:
        return longest
    return Forecast(longest.means[:h], longest.std_errs[:h])


def upper_bound(series: Series, h: int, q: float) -> float:
    """The q-quantile of the h-step forecast of a count series, clamped at 0.

    It gives n_hat from the vertex count (at gamma) and the LP bounds from the
    edge count and each existing vertex's degree (at u).
    """
    return max(quantile(forecast_with_fallback(series, h), h, q), 0.0)
