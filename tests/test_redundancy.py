import json
from itertools import product

import pytest

from vitalcode import redundancy
from vitalcode.redundancy import (MAJORITY, UNANIMITY, RedundancyReport,
                                  VoteConfig, redundancy_campaign, vote)
from vitalcode.stats import ConfigError, binomial_sigma, run_trials, trial_rng


class TestVote:
    def test_unanimity_truth_table(self):
        # Exhaustive over pairs of three distinct symbols: agree iff equal.
        for a, b in product(range(3), repeat=2):
            expected = a if a == b else None
            assert vote([a, b], UNANIMITY) == expected

    def test_majority_truth_table(self):
        # Exhaustive over triples: any value held by >= 2 replicas wins,
        # three-way disagreement is a safe halt.
        for triple in product(range(3), repeat=3):
            winners = [v for v in triple if triple.count(v) >= 2]
            expected = winners[0] if winners else None
            assert vote(list(triple), MAJORITY) == expected, triple

    def test_majority_can_outvote_one_wrong_replica(self):
        assert vote([7, 7, 99], MAJORITY) == 7
        assert vote([99, 7, 7], MAJORITY) == 7
        assert vote([7, 99, 7], MAJORITY) == 7

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            vote([1, 1, 1], UNANIMITY)
        with pytest.raises(ValueError):
            vote([1, 1], MAJORITY)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            vote([1, 1], "plurality")


class TestVoteConfig:
    def test_replica_counts(self):
        assert VoteConfig(UNANIMITY, 0.0, 0.0).replicas == 2
        assert VoteConfig(MAJORITY, 0.0, 0.0).replicas == 3

    def test_invalid_policy(self):
        with pytest.raises(ConfigError, match="^--policy: "):
            VoteConfig("2oo4", 0.0, 0.0)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError, match=r"^--p: .* -0\.1$"):
            VoteConfig(MAJORITY, -0.1, 0.0)
        with pytest.raises(ConfigError, match=r"^--q: .* 1\.5$"):
            VoteConfig(MAJORITY, 0.0, 1.5)


class TestCampaign:
    def test_fault_free_is_all_correct(self):
        for policy in (UNANIMITY, MAJORITY):
            report = redundancy_campaign(VoteConfig(policy, 0.0, 0.0),
                                         trials=1000, seed=1)
            assert report.correct == 1000
            assert report.safe_halt == 0
            assert report.undetected_wrong == 0

    def test_counts_conserved(self):
        report = redundancy_campaign(VoteConfig(MAJORITY, 0.05, 0.01),
                                     trials=5000, seed=2)
        assert report.correct + report.safe_halt + report.undetected_wrong \
            == report.trials

    def test_independent_faults_never_undetected(self):
        # p > 0, q = 0: two independently wrong replicas agreeing is a
        # ~2^-32 event, so no undetected wrong results are expected.
        for policy in (UNANIMITY, MAJORITY):
            report = redundancy_campaign(VoteConfig(policy, 0.05, 0.0),
                                         trials=50_000, seed=3)
            assert report.undetected_wrong == 0, policy

    def test_common_mode_rate_matches_q(self):
        q = 1e-2
        for policy in (UNANIMITY, MAJORITY):
            report = redundancy_campaign(VoteConfig(policy, 0.0, q),
                                         trials=100_000, seed=4)
            sigma = binomial_sigma(q, report.trials)
            assert abs(report.undetected_wrong / report.trials - q) \
                < 3 * sigma, policy

    def test_majority_outvotes_single_faults(self):
        # With small p the 2oo3 voter mostly still delivers the correct
        # value, while 2oo2 halts on every single-replica fault.
        p = 0.05
        maj = redundancy_campaign(VoteConfig(MAJORITY, p, 0.0),
                                  trials=50_000, seed=5)
        una = redundancy_campaign(VoteConfig(UNANIMITY, p, 0.0),
                                  trials=50_000, seed=5)
        rate_maj = maj.correct / maj.trials
        rate_una = una.correct / una.trials
        assert rate_maj > rate_una
        pred_maj = maj.predicted()["correct"]
        pred_una = una.predicted()["correct"]
        assert abs(rate_maj - pred_maj) \
            < 3 * binomial_sigma(pred_maj, maj.trials)
        assert abs(rate_una - pred_una) \
            < 3 * binomial_sigma(pred_una, una.trials)

    def test_undetected_monotone_in_q(self):
        # Shared seed + per-trial generators align the random streams, so
        # raising q can only convert outcomes toward undetected-wrong.
        counts = [redundancy_campaign(VoteConfig(MAJORITY, 0.0, q),
                                      trials=20_000, seed=6).undetected_wrong
                  for q in (0.0, 1e-3, 1e-2, 1e-1)]
        assert counts == sorted(counts)
        assert counts[0] == 0

    def test_reports_reproducible(self):
        cfg = VoteConfig(UNANIMITY, 0.01, 1e-3)
        a = redundancy_campaign(cfg, trials=2000, seed=7)
        b = redundancy_campaign(cfg, trials=2000, seed=7)
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        report = redundancy_campaign(VoteConfig(MAJORITY, 0.01, 1e-3),
                                     trials=1000, seed=8)
        doc = json.loads(report.to_json())
        assert doc["config"]["policy"] == MAJORITY
        totals = doc["totals"]
        assert totals["trials"] == 1000
        assert sum(totals[name]["count"] for name in
                   ("correct", "safe_halt", "undetected_wrong")) == 1000
        lo, hi = totals["undetected_wrong"]["ci"]
        assert 0.0 <= lo <= totals["undetected_wrong"]["rate"] <= hi <= 1.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            redundancy_campaign(VoteConfig(MAJORITY, 0.0, 0.0), trials=0)

    def test_wilson_interval_covers_q(self):
        report = redundancy_campaign(VoteConfig(MAJORITY, 0.0, 1e-2),
                                     trials=100_000, seed=9)
        lo, hi = report.row()["undetected_wrong"]["ci"]
        assert lo <= 1e-2 <= hi


# 53-bit chunks on every side of each probability's cut k < x * 2**53:
# 0.01 * 2**53 is not an integer, the others are.
EDGES = (0, 1, 2, 90071992547409, 90071992547410, 2**52 - 1, 2**52,
         2**52 + 1, 2**53 - 2, 2**53 - 1)
PROBABILITIES = (0.0, 5e-324, 2.0**-53, 0.01, 0.5, 1 - 2.0**-53, 1.0)


def edge_rng(stream, i):
    """Trial i's stream with EDGES[i % 10] as its header chunk
    (i // 10) % 4 and the stream's own bits everywhere else."""
    rng = trial_rng(stream, i)
    shift = 53 * (i // len(EDGES) % 4)
    rng._pool ^= (((rng._pool >> shift) ^ EDGES[i % len(EDGES)])
                  & (2**53 - 1)) << shift
    return rng


def four_uniform_campaign(cfg, trials, seed):
    """The reference trial: one `random()` call per uniform, compared as
    a float."""
    n = cfg.replicas
    stream = f"vitalcode-redundancy:{seed}"

    def trial(i):
        rng = redundancy.trial_rng(stream, i)
        u_common = rng.random()
        u_replica = [rng.random() for _ in range(n)]
        if u_common < cfg.q:
            values = [1 + rng.getrandbits(32)] * n
        else:
            values = [0] * n
        for j in range(n):
            if u_replica[j] < cfg.p:
                values[j] = 1 + rng.getrandbits(32)
        agreed = vote(values, cfg.policy)
        if agreed is None:
            return "safe_halt"
        return "correct" if agreed == 0 else "undetected_wrong"

    return RedundancyReport(trials, run_trials(trials, trial),
                            policy=cfg.policy, p=cfg.p, q=cfg.q, seed=seed)


class TestOneDrawHeader:
    @pytest.mark.parametrize("policy", [UNANIMITY, MAJORITY])
    @pytest.mark.parametrize("rng", [trial_rng, edge_rng])
    def test_equals_four_uniforms(self, monkeypatch, policy, rng):
        # edge_rng puts every edge chunk in every header slot; both
        # campaigns read the same patched streams.
        monkeypatch.setattr(redundancy, "trial_rng", rng)
        trials = 4 * len(EDGES)
        for p, q in product(PROBABILITIES, repeat=2):
            cfg = VoteConfig(policy, p, q)
            assert redundancy_campaign(cfg, trials, seed=12).to_json() \
                == four_uniform_campaign(cfg, trials, seed=12).to_json(), \
                (p, q)
