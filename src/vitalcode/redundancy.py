"""Replicated-execution voting: unanimity (2oo2) and majority (2oo3),
with a Monte Carlo model of independent and common-mode faults.

Independent corruptions draw uniform wrong 32-bit values, so two wrong
replicas agreeing is a ~2^-32 event; any undetected wrong result the
campaign observes is therefore attributable to common-mode faults, which
corrupt all replicas identically.  Heterogeneous (diverse) redundancy is
modeled as a lower common-mode rate q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import ConfigError, Outcomes, report_json, run_trials, trial_rng

UNANIMITY = "unanimity"
MAJORITY = "majority"

POLICIES = (UNANIMITY, MAJORITY)

_VALUE_BITS = 32
_UNIFORM_BITS = 53  # as `random.random()`


@dataclass(frozen=True)
class VoteConfig:
    policy: str
    p: float  # independent fault probability per replica per cycle
    q: float  # common-mode fault probability per cycle

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"must be one of {POLICIES}", "policy")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ConfigError(f"must be probabilities, got p={self.p}, "
                              f"q={self.q}", "p, q")

    @property
    def replicas(self) -> int:
        return 2 if self.policy == UNANIMITY else 3


def vote(outputs, policy: str):
    """Agreement check over replica outputs.

    Returns the agreed value, or None for a safe halt (no agreement).
    Unanimity needs all replicas equal; majority needs at least 2 of 3.
    """
    outputs = list(outputs)
    if policy == UNANIMITY:
        if len(outputs) != 2:
            raise ValueError("unanimity vote needs exactly 2 outputs")
        return outputs[0] if outputs[0] == outputs[1] else None
    if policy == MAJORITY:
        if len(outputs) != 3:
            raise ValueError("majority vote needs exactly 3 outputs")
        a, b, c = outputs
        if a == b or a == c:
            return a
        if b == c:
            return b
        return None
    raise ValueError(f"unknown policy {policy!r}")


class RedundancyReport(Outcomes):
    """How each voted cycle ended, with the vote configuration."""

    names = ("correct", "safe_halt", "undetected_wrong")
    __slots__ = names + ("policy", "p", "q", "seed")

    def predicted(self) -> dict[str, float]:
        # Agreement between independently wrong replicas (~2^-32 per pair)
        # is neglected; these are the leading-order rates.
        p, q = self.p, self.q
        if self.policy == UNANIMITY:
            correct = (1 - q) * (1 - p) ** 2
        else:
            # Majority tolerates one independent wrong replica.
            correct = (1 - q) * ((1 - p) ** 3 + 3 * p * (1 - p) ** 2)
        return {"correct": correct, "undetected_wrong": q,
                "safe_halt": 1 - correct - q}

    def to_json(self) -> str:
        return report_json({"policy": self.policy, "p": self.p, "q": self.q},
                           self.seed, totals=self.row())


def redundancy_campaign(cfg: VoteConfig, trials: int,
                        seed: int = 0) -> RedundancyReport:
    """Monte Carlo over `trials` cycles with reference value 0.

    Per trial: with probability q a common-mode event corrupts every
    replica to one identical wrong value; independently, each replica is
    corrupted with probability p to a uniform wrong 32-bit value.  Trial
    i draws from the engine stream `vitalcode-redundancy:{seed}`, so
    sweeps over p or q with a shared seed reuse the same randomness.
    Its header is one `getrandbits` of 53 bits per uniform, least
    significant first: the common-mode one, then one per replica.  A
    53-bit chunk k stands for the uniform k * 2**-53, and `k < x * 2**53`
    compares it with a probability x exactly, as `random()` would; the
    wrong values are drawn after it in the same order.
    """
    reference = 0
    n = cfg.replicas
    stream = f"vitalcode-redundancy:{seed}"
    q_cut = cfg.q * 2.0 ** _UNIFORM_BITS
    p_cut = cfg.p * 2.0 ** _UNIFORM_BITS
    mask = (1 << _UNIFORM_BITS) - 1

    def trial(i):
        rng = trial_rng(stream, i)
        u = rng.getrandbits(_UNIFORM_BITS * (n + 1))
        if u & mask < q_cut:
            values = [1 + rng.getrandbits(_VALUE_BITS)] * n
        else:
            values = [reference] * n
        for j in range(n):
            u >>= _UNIFORM_BITS
            if u & mask < p_cut:
                values[j] = 1 + rng.getrandbits(_VALUE_BITS)
        agreed = vote(values, cfg.policy)
        if agreed is None:
            return "safe_halt"
        return "correct" if agreed == reference else "undetected_wrong"

    return RedundancyReport(trials, run_trials(trials, trial),
                            policy=cfg.policy, p=cfg.p, q=cfg.q, seed=seed)
