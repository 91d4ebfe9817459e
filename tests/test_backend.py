"""Backend behavior: accounting, noise determinism, timing, and the binomial
sampler behind the noisy backend."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from oracles import two_branch_ndtri
from reupsim import binomial
from reupsim.backend import (DEFAULT_CONFUSION, DRAW_BLOCK, HARDWARE_STEPS, MAX_SHOTS,
                             IdealBackend, MeasurementLedger, NoiseModel, NoisyBackend,
                             estimate_time)
from reupsim.binomial import binom_quantile
from reupsim.circuits import CircuitSpec, measure_batch
from reupsim.config import _archived
from reupsim.data import generate
from reupsim.seeding import counter_uniforms

BELOW_ONE = np.nextafter(1.0, 0.0)
UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([2.0**-54, BELOW_ONE, 0.5]),
    st.floats(0.0, 1e-15, exclude_min=True),
    st.floats(2.0**-53, 1e-15).map(lambda d: 1.0 - d),
)
SUCCESS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1e-6),
    st.floats(0.0, 1e-6).map(lambda d: 1.0 - d),
    st.floats(0.0, 1.0),
)

# boost warns when its root search for the quantile does not converge
BOOST_QUANTILE_WARNING = pytest.mark.filterwarnings("ignore:Error in function boost")
SHOTS = [1, 2, 7, 150, 151, 1000, 10_000]


def band(n):
    """How far binomial._cdf may lie from boost's binomial CDF at n shots.  The
    most measured over test_the_table_pmf_bounds_the_lower_cdf_within_the_slack's
    grid: 4.2e-15 at 150 shots, 4.7e-14 at 1000, 4.5e-13 at 10**4; and n 2**-53
    at p up to 2**-53, where _cdf is 1 from k = 0 on."""
    return 2e-16 * n + 1e-15


def assert_same_quantiles(u, n, p):
    u = np.asarray(u, dtype=float)
    p = np.broadcast_to(np.asarray(p, dtype=float), u.shape)
    np.testing.assert_array_equal(binom_quantile(u, n, p), stats.binom.ppf(u, n, p))


def assert_inverts_the_cdf(u, n, p):
    """binom_quantile's k is the smallest with _cdf(k) >= u, or the last of a
    run with _cdf(k) == u; as _cdf increases with k, it is enough that
    _cdf(k - 1) < u < _cdf(k) or _cdf(k) == u < _cdf(k + 1)."""
    u, p = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(p, dtype=float))
    k = binom_quantile(u, n, p)
    inner = (p > binomial._P_MIN) & (p < 1.0)
    np.testing.assert_array_equal(k[~inner], np.where(p[~inner] == 1.0, n, 0.0))
    below, at, above = binomial._cdf(np.concatenate([k[inner] + d for d in (-1.0, 0.0, 1.0)]),
                                     n, np.tile(p[inner], 3)).reshape(3, -1)
    u = u[inner]
    assert (((below < u) & (u < at)) | ((at == u) & (u < above))).all()
    return k


def assert_ppf_away_from_boosts_steps(u, n, p, k):
    """k equals binom.ppf wherever u lies farther than band(n) from boost's
    CDF at k and k - 1, the values that decide binom.ppf's answer there.
    Where binom.ppf passes the first step of boost's own CDF that reaches u
    (at n=101, p=1e-15, u=1-4.4e-14 it gives 2 though binom.cdf(1) is 1.0),
    k is checked against that CDF instead: binom.cdf(k - 1) < u <= binom.cdf(k)."""
    ppf = stats.binom.ppf(u, n, p)
    below, at = (stats.binom.cdf(k + d, n, p) for d in (-1.0, 0.0))
    away = (np.abs(u - below) > band(n)) & (np.abs(u - at) > band(n))
    astray = stats.binom.cdf(ppf - 1.0, n, p) >= u
    np.testing.assert_array_equal(k[away & ~astray], ppf[away & ~astray])
    assert ((below < u) & (u <= at))[away & astray].all()


def test_ledger_counts_estimates_and_shots():
    ledger = MeasurementLedger()
    assert ledger.reserve(5, 100) == 0
    assert ledger.reserve(3, 100) == 5
    assert ledger.snapshot() == (8, 800)


def test_ledger_reserve_is_atomic_under_threads():
    ledger = MeasurementLedger()
    starts = []

    def worker():
        for _ in range(200):
            starts.append(ledger.reserve(3, 1))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.total_estimates == 8 * 200 * 3
    # blocks are disjoint and tile the index range
    assert sorted(starts) == list(range(0, 8 * 200 * 3, 3))


def test_noise_model_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        NoiseModel(confusion=((0.9, 0.2), (0.1, 0.9)))
    with pytest.raises(ValueError, match="2x2"):
        NoiseModel(confusion=((1.0,), (0.0,)))
    with pytest.raises(ValueError, match="shots"):
        NoiseModel(shots=0)
    with pytest.raises(ValueError, match="residual_sigma"):
        NoiseModel(residual_sigma=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_noise_model_rejects_a_non_finite_residual_sigma(value):
    """A NaN sigma fails no `< 0` test and would sample as sigma 0."""
    with pytest.raises(ValueError, match=f"^residual_sigma must be >= 0 and finite, got {value}$"):
        NoiseModel(residual_sigma=value)


@pytest.mark.parametrize("row", [0, 1])
def test_noise_model_rejects_a_nan_confusion_entry(row):
    confusion = [list(r) for r in DEFAULT_CONFUSION]
    confusion[row][row] = float("nan")
    with pytest.raises(ValueError, match=r"^confusion entries must lie in \[0, 1\]$"):
        NoiseModel(confusion=tuple(map(tuple, confusion)))


def test_observed_probability_endpoints():
    nm = NoiseModel()
    m = np.asarray(DEFAULT_CONFUSION)
    # true state certainly |1>, asking for outcome 1: the diagonal survives
    assert nm.observed_probability(np.array([1.0]), np.array([1]))[0] == m[1, 1]
    # true state certainly |0>, asking for outcome 1: pure misread
    assert nm.observed_probability(np.array([0.0]), np.array([1]))[0] == m[0, 1]
    assert nm.observed_probability(np.array([1.0]), np.array([0]))[0] == m[0, 0]
    mid = nm.observed_probability(np.array([0.5]), np.array([1]))[0]
    np.testing.assert_allclose(mid, 0.5 * (m[1, 1] + m[0, 1]), atol=1e-15)


def test_noise_model_config_round_trip():
    nm = NoiseModel(confusion=((0.9, 0.1), (0.3, 0.7)), shots=320, residual_sigma=0.002,
                    seed=5)
    archived = _archived(nm)
    assert archived["confusion"] == [[0.9, 0.1], [0.3, 0.7]]
    assert NoiseModel.from_config(archived) == nm
    with pytest.raises(ValueError, match=r"^backend\.noise\.bogus: unknown key"):
        NoiseModel.from_config({"shots": 10, "bogus": 1})


def test_noisy_sampling_is_a_function_of_the_estimate_index():
    p = np.linspace(0.05, 0.95, 40)
    y = np.tile([0, 1], 20)
    one_call = NoisyBackend(NoiseModel(seed=9)).sample(p, y)
    chunked = NoisyBackend(NoiseModel(seed=9))
    parts = [chunked.sample(p[:13], y[:13]), chunked.sample(p[13:], y[13:])]
    np.testing.assert_array_equal(np.concatenate(parts), one_call)
    assert chunked.sample(p[:0], y[:0]).shape == (0,)


def _per_call_estimates(noise, start, o):
    """What binomial makes of the Philox words of one call's own index range."""
    u = counter_uniforms(noise.seed, "readout", start, o.size, words=2)
    est = binom_quantile(u[:, 0], noise.shots, o) / noise.shots
    if noise.residual_sigma > 0:
        est += binomial.ndtri(u[:, 1]) * noise.residual_sigma
    return np.minimum(np.maximum(est, 0.0), 1.0)


SIZES = st.one_of(st.integers(0, 300), st.integers(0, 3 * DRAW_BLOCK),
                  st.sampled_from([DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1]))


@given(st.sampled_from([1, 150, MAX_SHOTS]), st.sampled_from([0.0, 0.006]),
       st.lists(st.tuples(SIZES, st.one_of(st.just(0), SIZES)), min_size=1, max_size=4),
       st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_sampling_in_blocks_equals_drawing_each_calls_range(shots, sigma, calls, seed):
    """Calls below, at and above DRAW_BLOCK, with charged gaps between some:
    each call's estimates are those of its own range's Philox words, bit for bit."""
    noise = NoiseModel(shots=shots, residual_sigma=sigma, seed=seed)
    backend, rng = NoisyBackend(noise), np.random.default_rng(seed)
    for size, gap in calls:
        p, y = rng.random(size), rng.integers(0, 2, size)
        start = backend.ledger.total_estimates
        got = backend.sample(p, y)
        want = _per_call_estimates(noise, start, noise.observed_probability(p, y))
        assert got.tobytes() == want.tobytes()
        backend.charge(gap)


def test_threads_sharing_a_noisy_backend_get_each_index_its_own_estimate():
    """Four threads, more than the cores, sample one backend at once with thread
    switches forced often; each index's estimate is what one sequential call gets."""
    noise = NoiseModel(seed=4)
    backend, mine = NoisyBackend(noise), threading.local()
    reserve = backend.ledger.reserve

    def recording_reserve(count, shots):
        start = reserve(count, shots)
        mine.starts.append(start)
        return start

    backend.ledger.reserve = recording_reserve
    sizes = [170, 250, 1, DRAW_BLOCK + 3, 0, 40, 170, 2 * DRAW_BLOCK, 250, 9]
    rng = np.random.default_rng(4)
    calls = [(rng.random(n), rng.integers(0, 2, n)) for n in sizes]
    orders = [list(np.random.default_rng(t).permutation(len(calls))) for t in range(4)]
    starts, results = [[] for _ in orders], [[] for _ in orders]
    together = threading.Barrier(len(orders))

    def run(t):
        mine.starts = starts[t]
        together.wait()
        results[t].extend(backend.sample(*calls[i]) for i in orders[t])

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = backend.ledger.total_estimates
    p, y = np.full(total, np.nan), np.zeros(total, dtype=int)
    for order, begun in zip(orders, starts):
        for i, start in zip(order, begun, strict=True):
            p[start:start + sizes[i]], y[start:start + sizes[i]] = calls[i]
    assert not np.isnan(p).any()
    sequential = NoisyBackend(noise).sample(p, y)
    for order, begun, got in zip(orders, starts, results):
        for i, start, estimates in zip(order, begun, got, strict=True):
            assert estimates.tobytes() == sequential[start:start + sizes[i]].tobytes()


def test_a_call_of_a_block_or_more_keeps_no_more_than_a_block():
    backend = NoisyBackend()
    for size in (10, DRAW_BLOCK, 3 * DRAW_BLOCK, 20, 2 * DRAW_BLOCK + 1):
        backend.sample(np.full(size, 0.5), np.ones(size, dtype=int))
        arrays = [v for v in vars(backend).values() if isinstance(v, np.ndarray)]
        arrays += [a for v in vars(backend).values() if isinstance(v, tuple)
                   for a in v if isinstance(a, np.ndarray)]
        assert arrays and max(a.shape[-1] for a in arrays) <= DRAW_BLOCK


@pytest.mark.parametrize("held", [0, DRAW_BLOCK - 300, DRAW_BLOCK - 100])
@pytest.mark.parametrize("noisy", [False, True])
def test_a_charged_prefix_and_a_later_charge_equal_two_samples(noisy, held):
    """sample(p, y, prefix) charges the prefix alone; charge(rest) then leaves
    the ledger, and every later estimate, where a sample of the prefix and one
    of the rest would, and the values are theirs: inside a block of DRAW_BLOCK
    indices, with the rest across its end, and with the prefix across it."""
    def backend():
        made = NoisyBackend(NoiseModel(seed=3)) if noisy else IdealBackend()
        made.charge(held)
        return made

    rng = np.random.default_rng(held)
    p, y = rng.random(420), rng.integers(0, 2, 420)
    fused, apart = backend(), backend()
    got = fused.sample(p, y, 250)
    assert fused.ledger.snapshot() == (held + 250, (held + 250) * 150)
    fused.charge(170)
    want = np.concatenate([apart.sample(p[:250], y[:250]), apart.sample(p[250:], y[250:])])
    assert got.tobytes() == want.tobytes()
    assert fused.ledger.snapshot() == apart.ledger.snapshot()
    assert fused.sample(p, y).tobytes() == apart.sample(p, y).tobytes()


def test_noisy_estimates_are_clipped_and_unbiased():
    nm = NoiseModel(shots=400, residual_sigma=0.0, seed=3)
    be = NoisyBackend(nm)
    p = np.full(4000, 0.3)
    y = np.ones(4000, dtype=int)
    est = be.sample(p, y)
    assert (est >= 0.0).all() and (est <= 1.0).all()
    target = nm.observed_probability(np.array([0.3]), np.array([1]))[0]
    assert abs(est.mean() - target) < 0.002


def test_residual_floor_widens_the_spread():
    p = np.full(2000, 0.5)
    y = np.ones(2000, dtype=int)
    tight = NoisyBackend(NoiseModel(shots=100_000, residual_sigma=0.0, seed=1))
    loose = NoisyBackend(NoiseModel(shots=100_000, residual_sigma=0.02, seed=1))
    assert loose.sample(p, y).std() > 4 * tight.sample(p, y).std()


def test_ideal_backend_passes_values_through_but_charges():
    be = IdealBackend(shots=150)
    ds = generate(20, seed=4)
    spec = CircuitSpec()
    p = measure_batch(spec, np.zeros(spec.n_params), ds.x, ds.y)
    out = be.sample(p, ds.y)
    assert be.ledger.snapshot() == (20, 3000)
    out2 = IdealBackend().sample(p, ds.y)
    np.testing.assert_array_equal(out, out2)


@BOOST_QUANTILE_WARNING
@given(st.integers(1, 10_000), SUCCESS, st.lists(UNIFORMS, min_size=1, max_size=40),
       st.integers(0, 10_000), st.integers(-64, 64), st.integers(4, 52))
@settings(max_examples=300, deadline=None)
@example(101, 1e-15, [0.5], 0, 0, 44)     # an edge where binom.ppf passes its own CDF's step
def test_binom_quantile_equals_binom_ppf_exactly(n, p, uniforms, k, ulps, rel_exp):
    """Random uniforms, plus uniforms a few ulps or a small relative step away
    from a value of binomial._cdf, where a search is most likely to go wrong:
    binom_quantile inverts _cdf exactly, and equals binom.ppf away from the
    band in which _cdf and boost's CDF differ."""
    u = np.array(uniforms, dtype=float)
    if binomial._P_MIN < p < 1.0:
        c = float(binomial._cdf(np.array([float(min(k, n))]), n, np.array([p]))[0])
        edges = np.array([c + ulps * np.spacing(c), c * (1.0 + 2.0**-rel_exp),
                          c * (1.0 - 2.0**-rel_exp), c + 2.0**-rel_exp * (1.0 - c),
                          c - 2.0**-rel_exp * (1.0 - c)])
        u = np.concatenate([u, edges[(edges > 0.0) & (edges < 1.0)]])
    assert_ppf_away_from_boosts_steps(u, n, np.full(u.size, p), assert_inverts_the_cdf(u, n, p))


@BOOST_QUANTILE_WARNING
@pytest.mark.parametrize("n", SHOTS)
def test_binom_quantile_equals_binom_ppf_on_philox_draws(n):
    u = counter_uniforms(n, "quantile-test", 0, 20_000)[:, 0]
    rng = np.random.default_rng(n)
    p = np.concatenate([rng.uniform(0.16, 0.84, 14_000), rng.random(2000),
                        rng.random(1000) * 1e-6, 1.0 - rng.random(1000) * 1e-6,
                        np.zeros(1000), np.ones(1000)])
    assert_same_quantiles(u, n, p)
    # the flat top of the CDF, where boost's own quantile decides
    assert_same_quantiles(np.full(p.size, BELOW_ONE), n, p)


@BOOST_QUANTILE_WARNING
@pytest.mark.parametrize("n", SHOTS)
def test_the_blocks_uint8_counts_equal_int64_counts(monkeypatch, n):
    """On the binom.ppf oracle grid of Philox draws, every count that the
    block makes of the CDF values reaching a level, in uint8, equals the int64
    count, and the quantiles stay binom.ppf's."""
    calls = []

    def checked(cdf, level):
        count = reaching(cdf, level)
        assert count.dtype == np.uint8
        np.testing.assert_array_equal(count, np.count_nonzero(cdf >= level, axis=0))
        calls.append(count.size)
        return count

    reaching = binomial._reaching
    monkeypatch.setattr(binomial, "_reaching", checked)
    test_binom_quantile_equals_binom_ppf_on_philox_draws(n)
    assert sum(calls) >= 2 * 2 * 18_000       # two counts of each inner entry, twice


@BOOST_QUANTILE_WARNING
@pytest.mark.parametrize("n", SHOTS)
def test_binom_quantile_equals_binom_ppf_next_to_cdf_steps(n):
    """Uniforms a few ulps, _MARGIN and twice _MARGIN away from values of
    binomial._cdf near the mean, where binom_quantile's block hands entries to
    its exact search: it inverts _cdf exactly, and equals binom.ppf away from
    the band of boost's CDF."""
    rng = np.random.default_rng(n)
    p = np.concatenate([rng.uniform(0.16, 0.84, 40), rng.random(10), [1e-6, 1.0 - 1e-6]])
    sd = np.sqrt(n * p * (1.0 - p))
    k = np.clip(np.round(n * p + sd * rng.standard_normal(p.size)), 0, n)
    c = binomial._cdf(k, n, p)[:, None]
    offsets = [s * binomial._MARGIN for s in (-2.0, -1.0, 1.0, 2.0)]
    u = np.hstack([c + j * np.spacing(c) for j in range(-3, 4)] + [c + d for d in offsets])
    p = np.broadcast_to(p[:, None], u.shape)
    inside = (u > 0.0) & (u < 1.0)
    u, p = u[inside], p[inside]
    assert_ppf_away_from_boosts_steps(u, n, p, assert_inverts_the_cdf(u, n, p))


def test_binom_quantile_gives_nan_where_binom_ppf_does():
    p = np.array([-0.1, 1.1, np.nan, 1.0 + 2.0**-52, -2.0**-1074])
    assert np.isnan(binom_quantile(np.full(p.size, 0.3), 150, p)).all()
    assert_same_quantiles(np.full(p.size, 0.3), 150, p)


@pytest.mark.parametrize("n", SHOTS)
def test_the_table_pmf_bounds_the_lower_cdf_within_the_slack(n):
    """binomial._cdf increases with k, lies within band(n) of boost's CDF, and
    _cdf(k) less the table pmf at k is within band(n) of _cdf(k - 1): the block
    in binom_quantile reads the CDF at k - 1 so, and its _MARGIN is far wider."""
    p = np.concatenate([[2.0**-52, 1e-12, 1e-6, 0.01, 0.16, 0.24, 0.5, 0.76, 0.84, 0.99,
                         1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53],
                        np.random.default_rng(n).random(6)])
    for p in p:
        # the CDF is within 1e-30 of 0 or 1 beyond 12 standard deviations
        spread = 12.0 * np.sqrt(n * p * (1.0 - p)) + 5.0
        k = np.arange(max(0.0, np.floor(n * p - spread)), min(n, np.ceil(n * p + spread)) + 1)
        p = np.full(k.size, p)
        cdf = binomial._cdf(k, n, p)
        assert (np.diff(cdf) >= 0.0).all()
        assert np.abs(cdf - stats.binom.cdf(k, n, p)).max() <= band(n)
        pmf = binomial._terms(k, n, p, (1.0 - p) / p, 1)[0]
        assert np.abs(cdf - pmf - binomial._cdf(k - 1.0, n, p))[k > 0].max() <= band(n)
    assert band(n) < binomial._MARGIN / 100


def test_binom_quantile_evaluates_about_one_cdf_per_entry(monkeypatch):
    """One block of pmf terms per entry decides almost every entry; a full
    _cdf sum is left for a handful in a thousand at most."""
    evaluations = []

    def counting_cdf(k, n, p):
        evaluations.append(np.size(k))
        return cdf(k, n, p)

    cdf = binomial._cdf
    monkeypatch.setattr(binomial, "_cdf", counting_cdf)
    u = counter_uniforms(150, "quantile-count", 0, 20_000)
    p = NoiseModel().observed_probability(u[:, 1], (u[:, 2] < 0.5).astype(int))
    assert_same_quantiles(u[:, 0], 150, p)
    assert sum(evaluations) <= 0.005 * u.shape[0]


@pytest.mark.parametrize("n", [1, 7, 150, 1000])
def test_the_block_and_the_exact_search_give_the_same_k(monkeypatch, n):
    """binom_quantile's block, over a whole call and in chunks of 40 entries,
    and its exact search from the mean agree, on Philox draws and next to the
    CDF's steps."""
    rng = np.random.default_rng(n)
    p = np.concatenate([rng.uniform(0.16, 0.84, 1500), rng.uniform(1e-6, 1.0, 500)])
    k = np.clip(np.round(n * p + 3.0 * rng.standard_normal(p.size)), 0, n)
    steps = binomial._cdf(k, n, p) + rng.integers(-2, 3, p.size) * np.spacing(0.5)
    u = np.concatenate([counter_uniforms(n, "block-test", 0, p.size)[:, 0], steps])
    p = np.concatenate([p, p])
    u, p = u[(u > 0.0) & (u < 1.0)], p[(u > 0.0) & (u < 1.0)]
    exact = binomial._exact(u, np.floor(n * p), n, p)
    small = binomial._quantile(u, binomial.ndtri(u), n, p)
    monkeypatch.setattr(binomial, "_CHUNK", 40 * binomial._rows(n, binomial._BLOCK_SDS))
    large = binomial._quantile(u, binomial.ndtri(u), n, p)
    np.testing.assert_array_equal(small, exact)
    np.testing.assert_array_equal(large, exact)


def test_the_sampler_work_is_bounded_at_20000_shots(monkeypatch):
    """12,500 estimates at 20,000 shots: every array of pmf terms stays
    within a few times _CHUNK, and the counts are binom.ppf's."""
    sizes = []

    def recording_terms(*args):
        t = terms(*args)
        sizes.append(t.size)
        return t

    terms = binomial._terms
    monkeypatch.setattr(binomial, "_terms", recording_terms)
    u = counter_uniforms(20_000, "big-test", 0, 12_500)
    o = NoiseModel().observed_probability(u[:, 1], (u[:, 2] < 0.5).astype(int))
    est = binomial.estimates(binomial.draws(u, 0.0), 20_000, o)
    assert max(sizes) <= 4 * binomial._CHUNK
    np.testing.assert_array_equal(est, stats.binom.ppf(u[:, 0], 20_000, o) / 20_000)


@pytest.mark.parametrize("shots", [1, 7, 150, 1000, 20_000, MAX_SHOTS])
def test_the_block_size_moves_no_byte(monkeypatch, shots):
    """estimates(draws(u, sigma)) gives the same bytes whether a call runs as
    one block or many: _CHUNK from 1 << 10 (a block of one entry at MAX_SHOTS)
    to 1 << 20, over call sizes about a block of 1 << 17 at 150 shots (4,228
    entries), with p from Philox draws and at and beyond the ends of (0, 1).
    Blocks of 1 << 10 run calls of 170 entries at most from 20,000 shots on,
    where they hold one or two entries at about a millisecond a block."""
    for size in (1, 170, 4096, 4229, 12_500):
        u = counter_uniforms(shots, "chunk-test", 0, size)
        o = u[:, 2].copy()
        o[::7] = np.resize([0.0, 1e-17, 0.5, 1.0 - 1e-16, 1.0, np.nan], o[::7].size)
        smallest = 10 if shots <= 1000 or size <= 170 else 16
        for sigma in (0.0, 0.006):
            outs = []
            for chunk in (1 << smallest, 1 << 16, 1 << 17, 1 << 20):
                monkeypatch.setattr(binomial, "_CHUNK", chunk)
                outs.append(binomial.estimates(binomial.draws(u, sigma), shots, o))
            for out in outs[1:]:
                np.testing.assert_array_equal(out.view(np.int64), outs[0].view(np.int64))


def test_the_sampler_at_the_shot_ceiling_equals_binom_ppf():
    """At MAX_SHOTS, _cdf stays within band(n) of boost's CDF, and the counts
    of Philox draws are binom.ppf's and the exact search's; one shot more is
    an error."""
    n = MAX_SHOTS
    rng = np.random.default_rng(9)
    for p in (0.5, 0.03, 0.97, 1e-4):
        sd = np.sqrt(n * p * (1.0 - p))
        k = np.unique(np.clip(np.round(n * p + sd * np.linspace(-8.0, 8.0, 81)), 0, n))
        assert np.abs(binomial._cdf(k, n, np.full(k.size, p))
                      - stats.binom.cdf(k, n, p)).max() <= band(n)
    u = counter_uniforms(n, "ceiling-test", 0, 2000)[:, 0]
    p = rng.uniform(1e-3, 1.0 - 1e-3, u.size)
    k = binom_quantile(u, n, p)
    np.testing.assert_array_equal(k, stats.binom.ppf(u, n, p))
    np.testing.assert_array_equal(k[:300], binomial._exact(u[:300], np.floor(n * p[:300]),
                                                           n, p[:300]))
    assert NoiseModel(shots=n).shots == n
    with pytest.raises(ValueError, match=f"shots must be <= {n}, got {n + 1}"):
        NoiseModel(shots=n + 1)


def test_ndtri_equals_scipys_but_for_a_few_ulps_in_the_tails():
    """binomial.ndtri repeats Cephes' operations; numpy's log can round
    otherwise than the C library's, which moves a tail value by up to three
    ulps, for about one value in 10**4 (219 of 3 * 10**6 measured with numpy
    2.4 on an AVX-512 host; numpy picks its log kernel by CPU)."""
    rng = np.random.default_rng(5)
    u = np.concatenate([counter_uniforms(5, "ndtri-test", 0, 50_000).ravel(),
                        rng.random(50_000) ** 8, 1.0 - rng.random(50_000) ** 8 / 2,
                        [2.0**-54, BELOW_ONE, 0.5, 1e-300, 1e-15, 1.0 - binomial._EXP_M2,
                         binomial._EXP_M2, np.nextafter(binomial._EXP_M2, 1.0)]])
    u = u[(u > 0.0) & (u < 1.0)]
    ours, theirs = binomial.ndtri(u), special.ndtri(u)
    differ = ours != theirs
    tail = (u <= binomial._EXP_M2) | (u > 1.0 - binomial._EXP_M2)
    assert not (differ & ~tail).any()
    assert differ.sum() <= 1e-3 * u.size
    assert (np.abs(ours - theirs) <= 4 * np.spacing(np.abs(theirs))).all()
    assert binomial.ndtri(u.reshape(-1, 2)).shape == (u.size // 2, 2)


def test_the_one_branch_ndtri_equals_the_two_branch_one_bit_for_bit():
    """binomial.ndtri runs only each uniform's own branch; it gives the bits of
    the two-branch ndtri it replaced (oracles.two_branch_ndtri) about the
    centre's ends, where the far tail starts (sqrt(-2 log y) = 8 near
    exp(-32)), at the extremes, on Philox draws, in calls where one branch is
    empty and in calls about the chunk size."""
    def same_bits(u):
        np.testing.assert_array_equal(binomial.ndtri(u).view(np.int64),
                                      two_branch_ndtri(u).view(np.int64))

    def ulp_grid(x):
        return x + np.arange(-64, 65) * np.spacing(x)

    far = np.concatenate([ulp_grid(np.exp(-32.0)), 1.0 - np.arange(100, 130) * 2.0**-53])
    w = np.sqrt(-2.0 * np.log(np.minimum(far, 1.0 - far)))
    assert (w >= 8.0).any() and (w < 8.0).any()
    draws = counter_uniforms(5, "ndtri-branch-test", 0, 50_000)[:, 0]
    same_bits(np.concatenate([ulp_grid(binomial._EXP_M2), ulp_grid(1.0 - binomial._EXP_M2),
                              far, [2.0**-54, 1e-300, BELOW_ONE, 0.5]]))
    same_bits(draws)
    same_bits(draws[(draws > 0.2) & (draws < 0.8)])         # centre alone
    same_bits(draws[(draws < 0.1) | (draws > 0.9)])         # tail alone
    same_bits(far[w >= 8.0])                                # far tail alone
    for size in (binomial._CHUNK // 8 - 1, binomial._CHUNK // 8, binomial._CHUNK // 8 + 1):
        same_bits(counter_uniforms(6, "ndtri-size-test", 0, size)[:, 0])


def test_an_ndtri_entry_does_not_depend_on_the_others():
    """A NaN in the call leaves the far-tail entries' values as they are (the
    two-branch ndtri sent a whole chunk to the near-tail polynomial then)."""
    u = np.array([1e-300, 0.3, 1.0 - 2.0**-53, 0.05])
    np.testing.assert_array_equal(binomial.ndtri(np.append(u, np.nan))[:-1], binomial.ndtri(u))


@pytest.mark.parametrize("size", [5, 100])
def test_sampling_edge_probabilities_raises_no_warning(size):
    p = np.resize([0.0, 1.0, np.nan, -0.1, 1.1], size)
    u = counter_uniforms(3, "edge-test", 0, size)
    identity = NoisyBackend(NoiseModel(confusion=((1.0, 0.0), (0.0, 1.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = binom_quantile(u[:, 0], 150, p)
        est = identity.sample(np.resize([0.0, 1.0, np.nan], size),
                              (u[:, 1] < 0.5).astype(int))
        NoisyBackend().sample(p, (u[:, 2] < 0.5).astype(int))
    np.testing.assert_array_equal(k, stats.binom.ppf(u[:, 0], 150, p))
    assert np.isnan(est[2::3]).all() and np.isfinite(np.delete(est, np.s_[2::3])).all()


def test_time_budget_arithmetic():
    ledger = MeasurementLedger()
    ledger.reserve(10, 150)
    count = {"estimate": 10, "shot": 1500}
    want = sum(seconds * count[per] for _, seconds, per in HARDWARE_STEPS)
    # 0.8 s of upload and hand-off per estimate, 5.2 ms of cycle per shot
    assert want == pytest.approx(10 * 0.8 + 1500 * 0.0052)
    assert estimate_time(*ledger.snapshot()) == pytest.approx(want)
