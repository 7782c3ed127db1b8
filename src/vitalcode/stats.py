"""Monte Carlo engine shared by the campaign modules.

A campaign is `trials` independent trials.  Trial i of a stream draws
only from `trial_rng(stream, i)`, so its outcome depends on nothing but
the stream name and its index, never on execution order.  That generator
is counter-mode BLAKE2b keyed by `"{stream}:{i}"` (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), not a seeded
Mersenne Twister: deriving it costs one hash, not a 624-word seeding,
and any trial can be computed alone, on any worker.  The campaign
modules keep only their trial bodies: `run_trials` rejects a count below
one and tallies the outcome each body returns, `Outcomes` groups keep
and write the counts, and `report_json` writes a report as JSON with
sorted keys, so a fixed seed gives a byte-identical report.
`ConfigError` lives here because every campaign module imports this
one; the command line turns it into exit code 2.
"""

from __future__ import annotations

import json
import math
from collections import Counter

# The built-in module, not hashlib: hashlib loads OpenSSL's _hashlib.
from _blake2 import blake2b


class ConfigError(ValueError):
    """Bad outside input: a config field, a file or a command-line value.

    `path` names where it entered: a file's path as given, a flag such
    as `--key`, a config field such as `config.threats[0].rate`, or
    `$VITALCODE_MAC_KEY`.
    """

    def __init__(self, message, path):
        super().__init__(f"{path}: {message}")
        self.path = path


_BLOCK_0 = bytes(8)  # the counter of block 0


class TrialStream:
    """The random bits of one trial: BLAKE2b in counter mode.

    Block n is the 64-byte BLAKE2b digest of the key followed by n as
    8 little-endian bytes.  The stream is the blocks' bits in order, each
    block read as a little-endian integer, and draws take them least
    significant first.  The methods are the subset of `random.Random`
    that the campaigns call, with CPython's conversions for `random` and
    `randbytes`, so functions taking an rng accept either.
    """

    __slots__ = ("_key", "_counter", "_pool", "_bits")

    def __init__(self, key: bytes):
        # Every trial draws, so block 0 is hashed up front.  The digest
        # size is left at blake2b's default, 64 bytes: passing it as a
        # keyword nearly doubles the cost of a block.
        self._key = key
        self._counter = 1
        self._pool = int.from_bytes(blake2b(key + _BLOCK_0).digest(),
                                    "little")
        self._bits = 512

    def getrandbits(self, k: int) -> int:
        """The next k bits of the stream as an integer in [0, 2**k)."""
        pool, bits = self._pool, self._bits
        if not 0 <= k <= bits:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            key, n = self._key, self._counter
            while bits < k:
                block = blake2b(key + n.to_bytes(8, "little")).digest()
                pool |= int.from_bytes(block, "little") << bits
                bits += 512
                n += 1
            self._counter = n
        self._pool = pool >> k
        self._bits = bits - k
        return pool & ((1 << k) - 1)

    def random(self) -> float:
        """Uniform float in [0, 1) from the next 53 bits."""
        return self.getrandbits(53) * 2 ** -53

    def randrange(self, start: int, stop: int | None = None) -> int:
        """Uniform integer in [start, stop), or [0, start) given one bound.

        Rejection sampling on (stop - start - 1).bit_length() bits keeps
        every value equally likely.
        """
        if stop is None:
            start, stop = 0, start
        n = stop - start
        if n <= 0:
            raise ValueError(f"empty range in randrange({start}, {stop})")
        k = (n - 1).bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return start + r

    def randbytes(self, n: int) -> bytes:
        """The next 8 * n bits as n little-endian bytes."""
        return self.getrandbits(8 * n).to_bytes(n, "little")


def trial_rng(stream: str, index: int) -> TrialStream:
    return TrialStream(f"{stream}:{index}".encode())


def run_trials(trials: int, body) -> Counter:
    """Tally `body(i)` over trials 0..trials-1."""
    if trials < 1:
        raise ConfigError(f"trial count must be >= 1, got {trials}",
                          "--trials")
    return Counter(body(i) for i in range(trials))


class Outcomes:
    """A group of trials: `trials` and one count per outcome in `names`.

    A subclass declares its outcomes and labels as `__slots__`, e.g.
    `names + ("scheme",)`, so it keeps no instance dict and no rates.
    """

    __slots__ = ("trials",)
    names: tuple[str, ...] = ()

    def __init__(self, trials: int, counts, **labels):
        self.trials = trials
        for name in self.names:
            setattr(self, name, counts[name])
        for label, value in labels.items():
            setattr(self, label, value)

    def predicted(self) -> dict[str, float]:
        """Outcome -> rate where the theory gives one; none by default."""
        return {}

    def row(self) -> dict:
        """`trials`, and per outcome its count, rate, 95% Wilson interval
        and any predicted rate: the only writer of a group."""
        n, predicted = self.trials, self.predicted()
        row = {"trials": n}
        for name in self.names:
            count = getattr(self, name)
            row[name] = entry = {"count": count,
                                 "rate": count / n if n else None,
                                 "ci": wilson_interval(count, n)}
            if name in predicted:
                entry["predicted"] = predicted[name]
        return row


def report_json(config: dict, seed: int, **groups) -> str:
    """Deterministic JSON of a report: its configuration echo, its seed
    and the rows of its named groups."""
    return json.dumps({"config": config, "seed": seed, **groups}, indent=2,
                      sort_keys=True)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion; its ends
    are exactly 0.0 with no successes and 1.0 with no failures."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    centre = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = (centre - spread) / denom if successes else 0.0
    hi = (centre + spread) / denom if successes < trials else 1.0
    return (lo, hi)


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of the observed proportion."""
    return math.sqrt(p * (1 - p) / trials)
