"""Binomial shot counts for the noisy backend, in numpy alone.

An estimate's shot count is the binomial quantile of its first Philox uniform;
its residual floor is ndtri of the second.  The quantile inverts _cdf, which
differs from boost's binomial CDF (behind scipy's binom.ppf) by at most 4.5e-13
over shots 1 to 10**4 and 7e-12 at 10**5 (backend.MAX_SHOTS), so a uniform
draw gets binom.ppf's answer unless it lies within that of a CDF step.  ndtri
repeats Cephes' operations in order, so it equals scipy's ndtri except where
numpy's log rounds otherwise than the C library's: by a few ulps, in the tails
(u below exp(-2) or above 1 - exp(-2)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuits import aligned_empty

# Cephes ndtri, highest power first: numerator and denominator for the centre
# (u within 1/2 - exp(-2) of 1/2), for the tail to exp(-32) and for the far
# tail, with zeros padding and the denominators' leading 1 explicit: eight
# Horner steps each.
_NDTRI_CENTRE = np.array([
    (0.0, 0.0, 0.0, 0.0, -59.96335010141079, 98.00107541859997, -56.67628574690703,
     13.931260938727968, -1.2391658386738125),
    (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
     200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133),
]).T[..., None].copy()                      # (Horner step, row, 1)
_NDTRI_TAIL = np.array([
    (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008,
     14.684956192885803, 2.1866330685079025, -0.1402560791713545, -0.03504246268278482,
     -0.0008574567851546854),
    (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075,
     2.504649462083094, -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574),
]).T[..., None].copy()
_NDTRI_FAR = np.array([
    (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755,
     0.20148538954917908, 0.012371663481782003, 0.00030158155350823543,
     2.6580697468673755e-06, 6.239745391849833e-09),
    (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
     0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06,
     6.790194080099813e-09),
]).T[..., None].copy()
_EXP_M2 = 0.1353352832366127
# binom_quantile decides an entry from its block of pmf terms unless u lies
# within _MARGIN, plus a bound on the terms left out, of a CDF value it reads
# there; _MARGIN is far above the block's error against _cdf (6e-13 at 10**4
# shots, 8e-12 at backend.MAX_SHOTS = 10**5).
_MARGIN = 2.0**-32
_P_MIN = 2.0**-53       # at or below: CDF taken as 1 (off by n p at most), so k = 0
_WINDOW = 7             # values of k that one block decides
_BLOCK_SDS = 5.0        # standard deviations that one block spans
# Work-array elements per block, at most: a block's pmf terms take 1 MiB, half
# the 2 MiB per-core L2 of the Xeon it was sized on (4,228 entries of 31 terms
# at 150 shots, 370 of 354 at 20,000), so 12,500 estimates at 150 shots run
# as 3 blocks; ndtri takes _CHUNK // 8 entries a pass, 12,500 in one.
_CHUNK = 1 << 17


def _horner(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """x * P(x) / Q(x) for each pair of rows (P, Q), by Horner's rule as
    Cephes' polevl runs it; x has a row per pair, or one row for every pair."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    ratio = np.multiply(acc[0::2], x[0::2], out=acc[0::2])
    ratio /= acc[1::2]
    return ratio


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for u in (0, 1), as Cephes computes it.

    An entry takes the centre rational function where u lies within
    1/2 - exp(-2) of 1/2, else the tail one, never both; the far tail's
    replaces the tail's where sqrt(-2 log) of u's distance from the nearer end
    reaches 8.  Each runs Cephes' operations in order on that entry alone, so
    its bits do not depend on the other entries of the call."""
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if flat.size > _CHUNK // 8:     # bounds the work arrays, as _quantile does
        size = _CHUNK // 8
        return np.concatenate([ndtri(flat[i:i + size]) for i in range(0, flat.size, size)]
                              ).reshape(u.shape)
    y = np.greater(flat, 1.0 - _EXP_M2).astype(float)
    np.abs(np.subtract(y, flat, out=y), out=y)      # 1 - u where flipped, exactly
    centre = y > _EXP_M2
    inner, outer = np.flatnonzero(centre), np.flatnonzero(~centre)
    out = np.empty(flat.size)
    c = np.subtract(y[inner], 0.5)
    x = np.multiply(c, c)[None]
    mid = _horner(x, _NDTRI_CENTRE)[0]
    mid *= c
    mid += c
    mid *= 2.5066282746310007
    out[inner] = mid
    w = y[outer]
    np.sqrt(np.multiply(np.log(w, out=w), -2.0, out=w), out=w)
    x = np.divide(1.0, w)[None]
    ratio = _horner(x, _NDTRI_TAIL)[0]
    far = np.flatnonzero(w >= 8.0)
    if far.size:
        ratio[far] = _horner(x[:, far], _NDTRI_FAR)[0]
    tail = np.log(w)
    np.divide(tail, w, out=tail)
    np.subtract(w, tail, out=tail)
    tail -= ratio
    out[outer] = np.copysign(tail, np.subtract(flat[outer], 0.5), out=tail)
    return out.reshape(u.shape)


@functools.lru_cache(maxsize=8)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n: sums of log((n + 1 - j) / j) in long double,
    which round to the nearest double where long double has 64 bits."""
    j = np.arange(1, n + 1, dtype=np.longdouble)
    table = np.concatenate([[0.0], np.cumsum(np.log((n + 1 - j) / j)).astype(float)])
    table.flags.writeable = False
    return table


def _rows(n: int, sds: float) -> int:
    """pmf terms spanning `sds` standard deviations at p = 1/2, at least _WINDOW."""
    return max(_WINDOW, min(n + 1, math.ceil(sds / 2.0 * math.sqrt(n))))


def _terms(k: np.ndarray, n: int, p: np.ndarray, odds: np.ndarray, rows: int) -> np.ndarray:
    """pmf(k - i; n, p) for i < rows, shape (rows, entries), for k >= 0 and
    odds = (1 - p) / p: row 0 from the log-binomial table, each later row the
    one above times the ratio ((n + 1) / (n - k + i) - 1) * odds."""
    t, rest = aligned_empty((rows, k.size)), n - k
    np.add(rest, np.arange(1.0, rows)[:, None], out=t[1:])
    np.divide(n + 1.0, t[1:], out=t[1:])
    t[1:] -= 1.0
    t[1:] *= odds
    _log_binomials(n).take(k.astype(np.intp), out=t[0], mode="clip")
    t[0] += k * np.log(p)
    t[0] += np.multiply(rest, np.log1p(-p), out=rest)
    np.exp(t[0], out=t[0])
    for prev, row in zip(t, t[1:]):
        row *= prev
    return t


def _cdf(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """The binomial CDF that binom_quantile inverts, for p in (0, 1): with the
    terms of _terms over 9.5 standard deviations, added in order, the sum of
    pmf(k), pmf(k - 1), ... where k < n p, else 1 minus that of pmf(k + 1),
    pmf(k + 2), ... (the terms from n - k - 1 down at 1 - p)."""
    down = k < n * p
    head, p = np.where(down, k, n - 1.0 - k), np.where(down, p, 1.0 - p)
    terms = _terms(np.maximum(head, 0.0), n, p, (1.0 - p) / p, _rows(n, 9.5))
    tail = np.where(head < 0, 0.0, np.cumsum(terms, axis=0)[-1])
    return np.where(down, tail, 1.0 - tail)


def _exact(u: np.ndarray, k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """binom_quantile from k: a bracket a < b with _cdf(a) <= u < _cdf(b), with
    a = -1 or b = n while that side is open (_cdf(-1) = 0, _cdf(n) = 1), narrows
    by steps away from k of 1, 2, 4, ... on the open side, then by halving, one
    _cdf call a step; then b, less one where _cdf(b - 1) == u."""
    lo, hi = _cdf(np.concatenate([k - 1.0, k]), n, np.concatenate([p, p])).reshape(2, -1)
    up, down = hi <= u, lo > u
    a = np.where(up, k, np.where(down, -1.0, k - 1.0))
    b = np.where(up, float(n), np.where(down, k - 1.0, k))
    low, step = np.where(up, hi, np.where(down, 0.0, lo)), 1.0     # low = _cdf(a)
    todo = np.flatnonzero(up | down)
    while todo.size:
        at, bt = a[todo], b[todo]
        c = np.where(bt == n, at + step, np.where(at < 0, bt - step, np.floor((at + bt) / 2.0)))
        c = np.clip(c, at + 1.0, bt - 1.0)
        new = _cdf(c, n, p[todo])
        over = new > u[todo]
        a[todo], b[todo] = np.where(over, at, c), np.where(over, c, bt)
        low[todo] = np.where(over, low[todo], new)
        step *= 2.0
        todo = todo[b[todo] - a[todo] > 1.0]
    return b - (low == u)


def _guess(u: np.ndarray) -> np.ndarray:
    """The normal quantile of u up to sign, by Abramowitz & Stegun 26.2.23."""
    t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def binom_quantile(u: np.ndarray, n: int, p: np.ndarray, z=None) -> np.ndarray:
    """Smallest k with _cdf(k; n, p) >= u, for u in (0, 1), or the largest of
    several with _cdf(k) == u (boost's choice, seen where _cdf(k) is the largest
    double below 1 for several k); 0 at p = 0, n at p = 1, NaN for p outside
    [0, 1].

    Entries with u >= 1/2 are mirrored (k -> n - k, p -> 1 - p, u -> 1 - u),
    so all read a lower tail.  From a normal-quantile guess, a block of pmf
    terms over _BLOCK_SDS standard deviations at and below head = guess + 3 is
    summed toward 0 and the rest bounded geometrically; the CDF at head - j,
    j < _WINDOW, is that sum less the terms above it.  An entry with u within
    _MARGIN plus the bound of one of these values, or with its answer outside
    them, takes _exact.  As the guess only positions the block, z is _guess(u)
    (error below 4.5e-4, if the caller did not make it ahead), not ndtri(u).
    """
    u, p = np.asarray(u, dtype=float), np.asarray(p, dtype=float)
    z = _guess(u) if z is None else z
    # every p inside (_P_MIN, 1), told by its extremes (a NaN fails both tests)
    if p.size and _P_MIN < np.minimum.reduce(p, None) and np.maximum.reduce(p, None) < 1.0:
        return _quantile(u.ravel(), z.ravel(), n, p.ravel()).reshape(u.shape)
    inner = (p > _P_MIN) & (p < 1.0)
    k = np.where(p == 1.0, float(n), np.where((p >= 0.0) & (p <= _P_MIN), 0.0, np.nan))
    if inner.any():
        k[inner] = _quantile(u[inner], z[inner], n, p[inner])
    return k


def _quantile(u: np.ndarray, z: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """binom_quantile of 1-D entries with p in (_P_MIN, 1), in chunks of at
    most _CHUNK block terms."""
    size = _CHUNK // _rows(n, _BLOCK_SDS)
    if u.size <= size:
        return _block(u, z, n, p)
    return np.concatenate([_block(u[i:i + size], z[i:i + size], n, p[i:i + size])
                           for i in range(0, u.size, size)])


def _block(u: np.ndarray, z: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    up, v, pm, odds, head = aligned_empty((5, u.size))
    np.greater_equal(u, 0.5, out=up)
    np.minimum(np.subtract(1.0, u, out=v), u, out=v)
    np.abs(np.subtract(up, p, out=pm), out=pm)      # 1 - p where mirrored, exactly
    np.subtract(1.0, pm, out=odds)
    # head = ceil(n pm - sd |z| + 2.5): three steps above the normal guess
    np.sqrt(np.multiply(odds, pm, out=head), out=head)
    odds /= pm
    np.abs(np.multiply(head, z, out=head), out=head)
    head *= -math.sqrt(n)
    head += n * pm + 2.5
    np.minimum(np.maximum(np.ceil(head, out=head), 0.0, out=head), n, out=head)
    t = _terms(head, n, pm, odds, _rows(n, _BLOCK_SDS))
    cdf = aligned_empty((_WINDOW, u.size))
    np.add.reduce(t, axis=0, out=cdf[0])
    for j in range(1, _WINDOW):     # a row at a time: accumulate runs element by element
        np.subtract(cdf[j - 1], t[j - 1], out=cdf[j])
    # the terms past the block sum to at most last * r / (1 - r): r, the last
    # ratio, bounds each later one and is below 1 (head <= n pm + 3.5, so the
    # block's end is below the mode)
    r = np.divide(t[-1], t[-2] + 1e-300, out=odds)
    slack = t[-1] * r
    slack /= np.subtract(1.0, r, out=r)
    slack += _MARGIN
    count, low = _reaching(cdf, v + _MARGIN), _reaching(cdf, v - slack)
    sure = (low == count) & (count >= 1) & (count < _WINDOW)
    k = np.abs(up * n - (head + 1.0 - count))   # n - k where mirrored
    if not sure.all():
        k[~sure] = _exact(u[~sure], np.clip(k[~sure], 0.0, n), n, p[~sure])
    return k


def _reaching(cdf: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Per column, the window's CDF values at or above level, counted in
    uint8, which holds _WINDOW and adds bools faster than int64 does."""
    return np.add.reduce(cdf >= level, axis=0, dtype=np.uint8)


def draws(u: np.ndarray, residual_sigma: float) -> np.ndarray:
    """Read-only rows u[:, 0], its _guess and ndtri(u[:, 1]) * residual_sigma (or 0)."""
    floor = ndtri(u[:, 1]) * residual_sigma if residual_sigma > 0 else np.zeros(len(u))
    d = np.array([u[:, 0], _guess(u[:, 0]), floor])
    d.flags.writeable = False
    return d


def estimates(d: np.ndarray, shots: int, o: np.ndarray) -> np.ndarray:
    """Shot frequencies at probabilities o plus the floor, in [0, 1], from draws() d."""
    est = binom_quantile(d[0], shots, o, d[1]) / shots + d[2]   # a count is never -0.0
    return np.minimum(np.maximum(est, 0.0, out=est), 1.0, out=est)
