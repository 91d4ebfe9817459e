"""Seed-derivation and counter-based RNG stream properties."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim import seeding
from reupsim.seeding import (counter_uniforms, derive_key, derive_seed,
                              unit_interval)


def test_derive_seed_is_stable_and_context_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")
    assert 0 <= derive_seed(0, "a") < 2**63


def test_derive_seed_rejects_negative_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(-1, "x")


def test_derive_key_shape():
    key = derive_key(3, "stream")
    assert key.dtype == np.uint64
    assert key.shape == (2,)
    np.testing.assert_array_equal(key, derive_key(3, "stream"))
    assert not np.array_equal(key, derive_key(3, "other"))


def test_counter_uniforms_values_are_open_interval():
    u = counter_uniforms(0, "t", 0, 10_000)
    assert u.shape == (10_000, 4)
    assert (u > 0.0).all()
    assert (u < 1.0).all()


@given(st.integers(0, 500), st.integers(0, 60), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_counter_uniforms_are_chunk_invariant(start, head, tail):
    """Splitting a counter range into pieces yields the same rows as one call."""
    whole = counter_uniforms(7, "chunks", start, head + tail)
    first = counter_uniforms(7, "chunks", start, head)
    second = counter_uniforms(7, "chunks", start + head, tail)
    np.testing.assert_array_equal(np.vstack([first, second]), whole)


def test_counter_uniforms_validation():
    with pytest.raises(ValueError):
        counter_uniforms(0, "t", -1, 5)
    with pytest.raises(ValueError):
        counter_uniforms(0, "t", 0, -5)
    assert counter_uniforms(0, "t", 0, 0).shape == (0, 4)
    for words in (6, -1, 0):
        with pytest.raises(ValueError, match=f"words in 1..4, got 0, 5, {words}$"):
            counter_uniforms(0, "t", 0, 5, words=words)


def _fresh_uniforms(seed, context, start, count):
    """What counter_uniforms draws, from a generator made for this call alone."""
    philox = np.random.Philox(key=derive_key(seed, context), counter=[start, 0, 0, 0])
    return unit_interval(philox.random_raw(4 * count).reshape(count, 4))


# (seed, context, start, count): streams revisited at lower and higher
# counters, 70 contexts, an empty draw, a counter past 2**32
INTERLEAVED = [(s % 5, f"c{s % 70}", (s * 7919) % 3000 + (2**40 if s % 13 == 0 else 0),
                (s * 31) % 60) for s in range(300)]


def test_a_reused_generator_draws_what_a_fresh_one_does():
    for seed, context, start, count in INTERLEAVED:
        expected = _fresh_uniforms(seed, context, start, count)
        np.testing.assert_array_equal(counter_uniforms(seed, context, start, count), expected)
        np.testing.assert_array_equal(counter_uniforms(seed, context, start, count, words=2),
                                      expected[:, :2])


# The top 53 bits of the first Philox words of the readout stream of noise
# seed 0, three counters from each start, as integers: the uniform of k is
# k * 2**-53 + 2**-54 in doubles, which IEEE arithmetic rounds alike on every CPU.
READOUT_WORDS = {
    0: [[8083351381561086, 6181299031119988, 8127196727750266, 4458911614602299],
        [4119781562739291, 7836473032708258, 5609350026131390, 6815839967385064],
        [6061519343021772, 7566239750313370, 649756417738371, 3481642431984406]],
    2**40 + 5: [[4622707777209674, 575619837356473, 5862373188473956, 4272349227754985],
                [5665782682156470, 3697858503030296, 4949089998004184, 3043789843184589],
                [5968145617785930, 2506482615801749, 1994950824534071, 6124126315205168]],
}


@pytest.mark.parametrize("start", sorted(READOUT_WORDS))
@pytest.mark.parametrize("words", [2, 4])
def test_the_readout_stream_has_its_known_values(start, words):
    """Pinned values: a change in the key, in where the counter goes, or in
    the word-to-uniform map moves the noise of every archived run."""
    k = np.array(READOUT_WORDS[start], dtype=np.uint64)[:, :words]
    expected = k * 2.0**-53 + 2.0**-54
    np.testing.assert_array_equal(counter_uniforms(0, "readout", start, 3, words=words),
                                  expected)


def test_threads_never_share_a_generator():
    """Four threads, more than the cores, draw from the same streams at once,
    each in its own order, with thread switches forced often; a generator
    shared between them would hand one thread another's counter."""
    expected = [_fresh_uniforms(*call) for call in INTERLEAVED]
    start = threading.Barrier(4)
    wrong = []

    def draw(order):
        start.wait()
        for _ in range(3):
            for i in order:
                if not np.array_equal(counter_uniforms(*INTERLEAVED[i]), expected[i]):
                    wrong.append(INTERLEAVED[i])

    orders = [list(np.random.default_rng(t).permutation(len(INTERLEAVED))) for t in range(4)]
    threads = [threading.Thread(target=draw, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("start", [0, 1, 37, 2**40 + 3])
@pytest.mark.parametrize("count", [0, 1, 24, 12_500])
def test_counter_uniforms_reads_the_words_generator_integers_gives(monkeypatch, start, count):
    """The words behind the uniforms are Philox's raw output, which
    Generator.integers over the full uint64 range returns unchanged."""
    monkeypatch.setattr(seeding, "unit_interval", lambda bits: bits)
    words = counter_uniforms(5, "words", start, count)
    philox = np.random.Philox(key=derive_key(5, "words"), counter=[start, 0, 0, 0])
    expected = np.random.Generator(philox).integers(0, 2**64, size=(count, 4),
                                                    dtype=np.uint64, endpoint=False)
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(words, expected)


def test_unit_interval_on_the_extreme_words():
    """(k + 1/2) * 2**-53 rounds to 1.0 for the top word alone; it is clamped
    to the largest double below 1, and every other word keeps its value."""
    words = np.array([0, 1 << 11, 2**64 - 2**12, 2**64 - 2**11 - 1, 2**64 - 1],
                     dtype=np.uint64)
    u = unit_interval(words.copy())
    assert u[0] == 2.0**-54
    assert u[-1] == np.nextafter(1.0, 0.0)
    assert ((u > 0.0) & (u < 1.0)).all()
    top = (2**53 - 1) * 2.0**-53 + 2.0**-54
    assert top == 1.0       # the rounding the clamp guards against
    unclamped = (words[:-1] >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    np.testing.assert_array_equal(u[:-1], unclamped)
    assert u[-1] not in unclamped


@given(st.lists(st.integers(0, 2**64 - 2**11 - 1), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_unit_interval_changes_no_word_below_the_top(values):
    words = np.array(values, dtype=np.uint64)
    expected = (words >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    np.testing.assert_array_equal(unit_interval(words.copy()), expected)
