import random

import pytest

from vitalcode.stats import (TrialCountError, report_json, run_trials,
                             trial_rng)


class TestEngine:
    def test_trial_rng_stable(self):
        # A trial's generator depends only on its (stream, index): not on
        # which other trials ran, nor in which order.
        first = [trial_rng("s", i).random() for i in range(5)]
        random.seed(99)
        later = [trial_rng("s", i).random() for i in reversed(range(5))]
        assert first == later[::-1]
        assert trial_rng("s", 2).random() != trial_rng("s", 3).random()
        assert trial_rng("s", 2).random() != trial_rng("t", 2).random()

    def test_run_trials_tallies_outcomes(self):
        tally = run_trials(10, lambda i: i % 3)
        assert tally == {0: 4, 1: 3, 2: 3}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_run_trials_rejects_no_trials(self, trials):
        calls = []
        with pytest.raises(TrialCountError):
            run_trials(trials, calls.append)
        assert calls == []
        assert issubclass(TrialCountError, ValueError)

    def test_report_json_is_sorted_and_indented(self):
        text = report_json({"b": 1, "a": (0.5, 1.0)})
        assert text == '{\n  "a": [\n    0.5,\n    1.0\n  ],\n  "b": 1\n}'
