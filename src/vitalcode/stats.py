"""Monte Carlo engine shared by the campaign modules.

A campaign is `trials` independent trials.  Trial i of a stream draws
only from `trial_rng(stream, i)`, so its outcome depends on nothing but
the stream name and its index, never on execution order.  The campaign
modules keep only their trial bodies: `run_trials` rejects a count below
one and tallies the outcome each body returns, and `report_json` writes
a report as JSON with sorted keys, so a fixed seed gives a
byte-identical report.  `ConfigError` lives here because every campaign
module imports this one; the command line turns it into exit code 2.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter


class ConfigError(ValueError):
    """Bad outside input: a config field, a file or a command-line value.

    `path` names where it entered, e.g. `config.threats[0].rate`.
    """

    def __init__(self, message, path="config"):
        super().__init__(f"{path}: {message}")
        self.path = path


class TrialCountError(ConfigError):
    """A campaign was asked for fewer than one trial."""


def check_trials(trials: int) -> int:
    if trials < 1:
        raise TrialCountError(f"trial count must be >= 1, got {trials}",
                              "trials")
    return trials


def trial_rng(stream: str, index: int) -> random.Random:
    # String seeding hashes deterministically across runs and processes.
    return random.Random(f"{stream}:{index}")


def run_trials(trials: int, body) -> Counter:
    """Tally `body(i)` over trials 0..trials-1."""
    return Counter(body(i) for i in range(check_trials(trials)))


def report_json(doc: dict) -> str:
    """Deterministic JSON of a report document, e.g. `asdict(report)`."""
    return json.dumps(doc, indent=2, sort_keys=True)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    centre = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = max(0.0, (centre - spread) / denom)
    hi = min(1.0, (centre + spread) / denom)
    return (lo, hi)


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of the observed proportion."""
    return math.sqrt(p * (1 - p) / trials)
