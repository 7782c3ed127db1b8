import hashlib
import random
from collections import Counter

import pytest

from vitalcode.stats import (ConfigError, report_json, run_trials,
                             trial_rng, wilson_interval)

# Each bin's Wilson interval at 3.89 sigma (two-sided p ~ 1e-4).
Z = 3.89


def stream_bits(key: bytes, blocks: int) -> int:
    # The first `blocks` counter blocks, block n the 64-byte BLAKE2b of
    # key + n as 8 little-endian bytes, concatenated least significant
    # first.
    return sum(int.from_bytes(hashlib.blake2b(
        key + n.to_bytes(8, "little"), digest_size=64).digest(), "little")
        << (512 * n) for n in range(blocks))


def sample(draw, count=20_000, per_trial=10):
    """`count` draws, `per_trial` from each of consecutive trials."""
    out = []
    for i in range(count // per_trial):
        rng = trial_rng("sample", i)
        out.extend(draw(rng) for _ in range(per_trial))
    return out


def assert_even_bins(values, n, bins=10):
    """Each of `bins` equal slices of [0, n) holds its share of `values`."""
    bins = min(n, bins)
    counts = Counter(v * bins // n for v in values)
    for b in range(bins):
        # Slice b holds ceil((b+1) n / bins) - ceil(b n / bins) values.
        share = (-(-(b + 1) * n // bins) + (-b * n // bins)) / n
        lo, hi = wilson_interval(counts[b], len(values), z=Z)
        assert lo <= share <= hi, (b, counts[b], share)


class TestEngine:
    def test_trial_rng_stable(self):
        # A trial's generator depends only on its (stream, index): not on
        # which other trials ran, nor in which order.
        first = [trial_rng("s", i).random() for i in range(5)]
        random.seed(99)
        later = [trial_rng("s", i).random() for i in reversed(range(5))]
        assert first == later[::-1]
        assert first == [(stream_bits(f"s:{i}".encode(), 1) & (1 << 53) - 1)
                         * 2 ** -53 for i in range(5)]
        assert trial_rng("s", 2).random() != trial_rng("s", 3).random()
        assert trial_rng("s", 2).random() != trial_rng("t", 2).random()

    def test_trial_rng_known_answers(self):
        # Draws consume the counter blocks' bits least significant first,
        # across block boundaries.
        bits = stream_bits(b"vitalcode:7:12", 3)
        rng = trial_rng("vitalcode:7", 12)
        expected = []
        for k in (53, 0, 8, 64, 200, 300, 400):
            expected.append(bits & ((1 << k) - 1))
            bits >>= k
        assert rng.random() == expected[0] * 2 ** -53
        assert [rng.getrandbits(k) for k in (0, 8, 64, 200, 300, 400)] \
            == expected[1:]
        last = bits & (1 << 40) - 1
        assert rng.randbytes(5) == last.to_bytes(5, "little")

    def test_same_key_same_draws(self):
        def draws(index):
            rng = trial_rng("twin", index)
            return (rng.random(), rng.randrange(-100, 101),
                    rng.randbytes(70), rng.getrandbits(1000),
                    rng.randrange(1, 1 << 20))

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)

    def test_getrandbits_bounds(self):
        rng = trial_rng("bounds", 0)
        assert rng.getrandbits(0) == 0
        with pytest.raises(ValueError):
            rng.getrandbits(-1)
        assert all(0 <= rng.getrandbits(k) < 1 << k for k in range(1, 1200))

    def test_random_uniform_in_ten_bins(self):
        draws = sample(lambda rng: rng.random())
        assert all(0.0 <= u < 1.0 for u in draws)
        assert_even_bins([int(u * 10) for u in draws], 10)

    @pytest.mark.parametrize("n", [2, 3, 7, 251, 2**31 - 1])
    def test_randrange_unbiased(self, n):
        draws = sample(lambda rng: rng.randrange(n))
        assert all(0 <= v < n for v in draws)
        assert_even_bins(draws, n)

    @pytest.mark.parametrize("start, stop", [(-100, 101), (1, 1 << 20)])
    def test_randrange_with_start(self, start, stop):
        draws = sample(lambda rng: rng.randrange(start, stop))
        assert all(start <= v < stop for v in draws)
        assert_even_bins([v - start for v in draws], stop - start)
        if stop - start <= 1000:
            assert min(draws) == start and max(draws) == stop - 1

    @pytest.mark.parametrize("args", [(0,), (-3,), (5, 5), (3, 1)])
    def test_randrange_empty_range(self, args):
        with pytest.raises(ValueError):
            trial_rng("empty", 0).randrange(*args)

    def test_randbytes_length_and_bit_balance(self):
        rng = trial_rng("bytes", 0)
        assert rng.randbytes(0) == b""
        assert [len(rng.randbytes(n)) for n in (1, 63, 64, 65, 200)] \
            == [1, 63, 64, 65, 200]
        data = b"".join(sample(lambda rng: rng.randbytes(9), 2_000, 4))
        ones = [sum(b >> bit & 1 for b in data) for bit in range(8)]
        for bit, k in enumerate(ones):
            lo, hi = wilson_interval(k, len(data), z=Z)
            assert lo <= 0.5 <= hi, bit

    def test_run_trials_tallies_outcomes(self):
        tally = run_trials(10, lambda i: i % 3)
        assert tally == {0: 4, 1: 3, 2: 3}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_run_trials_rejects_no_trials(self, trials):
        calls = []
        with pytest.raises(ConfigError,
                           match=r"^--trials: trial count must be >= 1"):
            run_trials(trials, calls.append)
        assert calls == []
        assert issubclass(ConfigError, ValueError)

    def test_report_json_is_sorted_and_indented(self):
        text = report_json({"b": 1}, 2, a=(0.5, 1.0))
        assert text == ('{\n  "a": [\n    0.5,\n    1.0\n  ],\n'
                        '  "config": {\n    "b": 1\n  },\n  "seed": 2\n}')


@pytest.mark.parametrize("z", [1.96, Z])
def test_wilson_endpoints_exact(z):
    # lo is 0.0 exactly when nothing succeeded and hi is 1.0 exactly
    # when everything did, so a rate of 0 or 1 lies inside its interval.
    for n in [*range(1, 2000), 10_000, 20_000, 100_000, 10**6, 10**7]:
        for k in {0, 1, n // 2, n - 1, n}:
            lo, hi = wilson_interval(k, n, z)
            assert 0.0 <= lo <= k / n <= hi <= 1.0, (n, k)
            assert (lo == 0.0) == (k == 0), (n, k, lo)
            assert (hi == 1.0) == (k == n), (n, k, hi)
    assert wilson_interval(0, 0, z) == (0.0, 1.0)
