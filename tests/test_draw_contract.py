"""The CPython draw contract the simulator's bulk draws rely on.

``_event_starts`` and ``_gauss_draws`` read a ``random.Random`` as a stream
of 32-bit Mersenne Twister words instead of calling ``randrange`` or
``gauss`` once per value, and ``_gauss_draws`` reads and sets the second
value that ``gauss`` keeps pending in ``gauss_next``.
``RapidToggle.windows`` and the channel walk of the random-hop scanners
call ``getrandbits`` themselves where ``randrange`` and ``choice`` would.
``_event_starts`` may draw words past the end of a run, then sets the
generator back with ``setstate`` and draws the used words again in one call.
Each only gives the same numbers if the interpreter draws those values in
the way checked here.  ``substream`` seeds ``random.Random(text)`` in the
constructor, which must give the state of ``Random()`` then ``.seed(text)``.
Standard library and hypothesis only, so it runs on any interpreter without
numpy:

    python tests/test_draw_contract.py
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

SEEDS = (0, 1, 7, 2**40 + 3, "scan:11")


def clones(seed):
    """Two generators in the same state."""
    a = random.Random(seed)
    a.getrandbits(7)  # start mid-stream, not at a fresh seed
    b = random.Random()
    b.setstate(a.getstate())
    return a, b


def words_below(rng, n):
    """``_randbelow(n)`` by hand: k-bit candidates from whole words until one is below n.

    A candidate takes w words, least significant first, the last shifted
    right by 32*w - k (k = n.bit_length()).
    """
    k = n.bit_length()
    w = (k - 1) // 32 + 1
    while True:
        words = [rng.getrandbits(32) for _ in range(w)]
        words[-1] >>= 32 * w - k
        cand = sum(word << (32 * j) for j, word in enumerate(words))
        if cand < n:
            return cand


def first_below(rng, n):
    """The first ``getrandbits(n.bit_length())`` below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def test_short_getrandbits_is_the_top_of_one_word():
    for seed in SEEDS:
        for k in range(1, 33):
            a, b = clones(seed)
            assert [a.getrandbits(k) for _ in range(50)] == [
                b.getrandbits(32) >> (32 - k) for _ in range(50)
            ]
            assert a.getstate() == b.getstate()


def test_long_getrandbits_is_words_least_significant_first():
    for seed in SEEDS:
        for n in (1, 2, 3, 17):
            a, b = clones(seed)
            got = a.getrandbits(32 * n)
            assert got == sum(b.getrandbits(32) << (32 * j) for j in range(n))
            assert a.getstate() == b.getstate()


def test_randrange_rejects_whole_candidates():
    widths = (1, 2, 3, 5, 2**31, 2**31 + 1, 100_000_001, 2**32, 2**32 + 1, 2**33 + 1, 2**54)
    for seed in SEEDS:
        for width in widths:
            a, b = clones(seed)
            lo = 100_000_000
            got = [a.randrange(lo, lo + width) for _ in range(40)]
            assert got == [lo + words_below(b, width) for _ in range(40)]
            assert a.getstate() == b.getstate()


def test_choice_of_two_or_three_rejects_whole_words():
    for seed in SEEDS:
        for items in ((38, 39), (37, 38, 39)):
            a, b = clones(seed)
            got = [a.choice(items) for _ in range(200)]
            assert got == [items[words_below(b, len(items))] for _ in range(200)]
            assert a.getstate() == b.getstate()


def test_randrange_is_the_first_short_draw_below_the_width():
    # every width from 1 to 55 bits, so one- and two-word draws alike
    widths = sorted({2**j + d for j in range(54) for d in (0, 1)} | {5, 100_000_001, 2**54})
    for seed in SEEDS:
        for width in widths:
            a, b = clones(seed)
            lo = 100_000_000
            got = [a.randrange(lo, lo + width) for _ in range(40)]
            assert got == [lo + first_below(b, width) for _ in range(40)]
            assert a.getstate() == b.getstate()


def test_choice_of_two_is_the_first_two_bit_draw_below_two():
    for seed in SEEDS:
        a, b = clones(seed)
        items = (38, 39)
        got = [a.choice(items) for _ in range(200)]
        assert got == [items[first_below(b, 2)] for _ in range(200)]
        assert a.getstate() == b.getstate()


def test_random_takes_two_words():
    for seed in SEEDS:
        a, b = clones(seed)
        want = []
        for _ in range(50):
            hi, lo = b.getrandbits(32) >> 5, b.getrandbits(32) >> 6
            want.append((hi * 2**26 + lo) / 2**53)
        assert [a.random() for _ in range(50)] == want
        assert a.getstate() == b.getstate()


def box_muller(rng):
    """One ``gauss`` pair by hand: the cosine is returned, the sine kept."""
    x2pi = rng.random() * random.TWOPI
    g2rad = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
    return math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad


def test_gauss_returns_box_muller_pairs_and_keeps_the_sine_pending():
    for seed in SEEDS:
        a, b = clones(seed)
        want = [z for _ in range(20) for z in box_muller(b)]
        assert [a.gauss(0.0, 1.0) for _ in range(40)] == want
        assert a.getstate() == b.getstate()
        cos, sin = box_muller(b)
        assert a.gauss(0.0, 1.0) == cos and a.gauss_next == sin
        # a pending value, carried over in the state or set by hand, comes first
        c = random.Random()
        c.setstate(a.getstate())
        assert [c.gauss(0.0, 1.0) for _ in range(3)] == [sin, *box_muller(b)]
        words = a.getstate()[1]
        a.gauss_next = 0.25
        assert a.gauss(0.0, 1.0) == 0.25 and a.gauss_next is None
        assert a.getstate()[1] == words


def test_set_back_then_one_long_draw_stands_where_single_words_stand():
    for seed in SEEDS:
        for pending in (False, True):
            for ahead in (0, 1, 5, 624, 1500):
                for m in (1, 2, 623, 624, 625, 2000):
                    a, b = clones(seed)
                    if pending:
                        a.gauss(0.0, 1.0)
                        b.gauss(0.0, 1.0)
                    saved = a.getstate()
                    if ahead:
                        a.getrandbits(32 * ahead)  # a block drawn past the run's end
                    a.setstate(saved)
                    a.getrandbits(32 * m)
                    for _ in range(m):
                        b.getrandbits(32)
                    assert a.getstate() == b.getstate()
                    assert (a.gauss_next is not None) == pending


@settings(max_examples=200, deadline=None)
@given(seed=st.text())
def test_seeding_in_the_constructor_is_seeding_after_it(seed):
    after = random.Random()
    after.seed(seed)
    assert random.Random(seed).getstate() == after.getstate()


if __name__ == "__main__":
    import sys

    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
