"""Binomial shot counts for the noisy backend; the one module that loads scipy.

An estimate's shot count is the exact binomial quantile of its Philox uniform:
binom_quantile inverts boost's binomial CDF in scipy, at about one evaluation
per estimate, and returns what scipy's binom.ppf returns, bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import ndtri
# The binomial CDF and quantile ufuncs behind scipy's binom._cdf and
# binom._ppf; importing them from scipy.special skips the slow stats import.
from scipy.special._ufuncs import _binom_cdf, _binom_ppf

# binom_quantile hands an entry to boost's own quantile when u lies within
# _NEAR of a CDF value that decides it, which includes every u within _NEAR of
# 0 or 1.  Only there did boost's root finder settle on a neighbouring k in a
# sweep over shots 1 to 10**4: on the flat top of the CDF, and elsewhere
# within about 2.3e-13 of a step (3e-11 * c for a small CDF value c).
_NEAR = 2.0**-32
# binom_quantile's bound on cdf(k - 1) (see its docstring) holds within
# _SLACK up to _TABLE_MAX_SHOTS shots; above that every entry takes boost's.
_SLACK = 2.0**-32
_TABLE_MAX_SHOTS = 10_000


@functools.lru_cache(maxsize=8)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, from math.lgamma."""
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table = lg[n] - lg - lg[::-1]
    table.flags.writeable = False
    return table


def binom_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Smallest k with binomial CDF(k; n, p) >= u, for u in (0, 1).

    Equals scipy's binom.ppf(u, n, p) bit for bit, NaN for p outside
    [0, 1] included, as checked on scipy 1.17.1: the guarantee rests on the
    private boost ufuncs _binom_cdf/_binom_ppf and on the root finder behind
    the latter, so re-run tests/test_backend.py before trusting another
    scipy version.  A Cornish-Fisher guess for k is checked against
    cdf(k - 1) < u <= cdf(k), and only the entries that fail step up or down
    until they pass: about one CDF evaluation per entry instead of boost's
    root search.

    The one evaluation is boost's cdf(k).  For cdf(k - 1) the check takes
    lo = cdf(k) - pmf(k), with the pmf from a log-binomial table.  lo is
    within _SLACK = 2**-32 (2.3e-10) of boost's cdf(k - 1): the two differ by
    at most 3.1e-14 at 150 shots and 3.6e-12 at 10**4.  So where
    u > lo + _NEAR + _SLACK, boost's cdf(k - 1) would also lie below u and
    more than _NEAR from it, and the check and the _NEAR hand-off decide as
    they would on boost's value; every other entry, and every entry whose pmf
    is not finite, gets boost's cdf(k - 1).
    """
    u, p = np.asarray(u, dtype=float), np.asarray(p, dtype=float)
    if u.shape != p.shape:
        u, p = np.broadcast_arrays(u, p)
    z = ndtri(u)
    sd = np.sqrt(np.maximum(n * p * (1.0 - p), 0.0))
    k = np.clip(np.ceil(n * p + sd * z + (z * z - 1.0) * (1.0 - 2.0 * p) / 6.0 - 0.5),
                0, n)
    hi = _binom_cdf(k, n, p)
    lo = _lower_cdf(u, k, n, p, hi)
    todo = np.flatnonzero((u > hi) | (u <= lo))
    while todo.size:
        up = u[todo] > hi[todo]
        i, j = todo[up], todo[~up]
        k[i] += 1
        lo[i] = hi[i]
        hi[i] = _binom_cdf(k[i], n, p[i])
        k[j] -= 1
        hi[j] = lo[j]
        lo[j] = np.where(k[j] > 0, _binom_cdf(k[j] - 1, n, p[j]), 0.0)
        todo = todo[(u[todo] > hi[todo]) | (u[todo] <= lo[todo])]
    near = (np.abs(u - hi) <= _NEAR) | (np.abs(u - lo) <= _NEAR)
    if near.any():
        k[near] = _binom_ppf(u[near], n, p[near])
    return np.where((p >= 0.0) & (p <= 1.0), k, np.nan)


def _table_pmf(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Binomial pmf(k; n, p) from the log-binomial table, for n up to
    _TABLE_MAX_SHOTS; NaN where the logs meet 0 * inf or a p outside [0, 1]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = _log_binomials(n).take(k.astype(np.intp), mode="clip")
        log_pmf += k * np.log(p)
        log_pmf += (n - k) * np.log1p(-p)
    return np.exp(log_pmf, out=log_pmf)


def _lower_cdf(u: np.ndarray, k: np.ndarray, n: int, p: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """binom_quantile's lo: boost's cdf(k - 1) (0 at k = 0), or
    cdf(k) - pmf(k) where u lies more than _NEAR + _SLACK above that."""
    if n > _TABLE_MAX_SHOTS:
        return np.where(k > 0, _binom_cdf(k - 1, n, p), 0.0)
    lo = _table_pmf(k, n, p)
    np.subtract(hi, lo, out=lo)
    # At p = 0 or 1 the pmf is 0, making lo = cdf(k) exact, or else it is 1
    # (k = 0 at p = 0, k = n at p = 1) and comes out NaN; a NaN lo, as from a
    # NaN k or p or a p outside [0, 1], fails the test below.
    keep = u > lo + (_NEAR + _SLACK)
    if not keep.all():
        i = np.flatnonzero(~keep)
        lo[i] = np.where(k[i] > 0, _binom_cdf(k[i] - 1, n, p[i]), 0.0)
    return lo


def estimates(u: np.ndarray, shots: int, o: np.ndarray, residual_sigma: float) -> np.ndarray:
    """Shot frequencies of u[:, 0] at probabilities o plus a residual floor from u[:, 1]."""
    est = binom_quantile(u[:, 0], shots, o) / shots
    if residual_sigma > 0:
        est = est + ndtri(u[:, 1]) * residual_sigma
    return np.clip(est, 0.0, 1.0)
