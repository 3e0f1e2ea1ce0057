import numpy as np
import pytest

from driftscope.events import Event, EventSequence
from driftscope.synth import (
    CREATININE,
    HOUR,
    URINE_RATE,
    ScenarioConfig,
    aki_label,
    episode_metadata,
    first_positive_checkpoint,
    generate_corpus,
    generate_patient,
    ground_truth_set,
)


def seq_of(events):
    return EventSequence("e", tuple(events), 0, "train")


class TestLabeler:
    def test_creatinine_rise_at_threshold(self):
        seq = seq_of([Event(8 * HOUR, CREATININE, 1.0), Event(47 * HOUR, CREATININE, 1.3)])
        assert aki_label(seq, 48 * HOUR)

    def test_decrease_not_labeled(self):
        seq = seq_of([
            Event(8 * HOUR, CREATININE, 1.4),
            Event(20 * HOUR, URINE_RATE, 80.0),
            Event(47 * HOUR, CREATININE, 1.0),
        ])
        assert not aki_label(seq, 48 * HOUR)

    def test_rise_must_be_time_ordered(self):
        # max - min is 0.4 but the high value comes first
        seq = seq_of([Event(8 * HOUR, CREATININE, 1.4), Event(40 * HOUR, CREATININE, 1.0)])
        assert not aki_label(seq, 48 * HOUR)

    def test_rise_outside_lookback_ignored(self):
        seq = seq_of([Event(1 * HOUR, CREATININE, 1.0), Event(60 * HOUR, CREATININE, 1.4)])
        assert not aki_label(seq, 60 * HOUR)  # first value is 59h back, outside 48h

    def test_sustained_low_urine(self):
        t = 20 * HOUR
        seq = seq_of([
            Event(t - 6 * HOUR, URINE_RATE, 20.0),
            Event(t - 3 * HOUR, URINE_RATE, 20.0),
            Event(t - 0.5 * HOUR, URINE_RATE, 20.0),
        ])
        assert aki_label(seq, t)

    def test_normal_value_breaks_the_run(self):
        t = 20 * HOUR
        seq = seq_of([
            Event(t - 8 * HOUR, URINE_RATE, 20.0),
            Event(t - 5 * HOUR, URINE_RATE, 30.0),
            Event(t - 4 * HOUR, URINE_RATE, 20.0),
            Event(t - 1 * HOUR, URINE_RATE, 20.0),
        ])
        assert not aki_label(seq, t)  # run spans only 4h after the normal value

    def test_single_low_observation_insufficient(self):
        t = 20 * HOUR
        seq = seq_of([Event(t - 7 * HOUR, URINE_RATE, 20.0)])
        assert not aki_label(seq, t)

    def test_monotone_in_later_creatinine(self):
        t = 48 * HOUR
        base = [Event(8 * HOUR, CREATININE, 1.0), Event(40 * HOUR, CREATININE, 1.35)]
        assert aki_label(seq_of(base), t)
        for higher in (1.5, 2.0, 5.0):
            seq = seq_of([base[0], Event(40 * HOUR, CREATININE, higher)])
            assert aki_label(seq, t)


class TestGenerator:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["duration_hours", "onset_low_hours", "onset_high_hours"])
    def test_non_finite_hours_rejected(self, field, value):
        # An infinite duration would generate events without end.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioConfig(**{field: value})

    def test_deterministic(self):
        config = ScenarioConfig(seed=7, n_episodes=4)
        assert generate_patient(config, 2) == generate_patient(config, 2)

    def test_different_indices_differ(self):
        config = ScenarioConfig(seed=7, n_episodes=4)
        assert generate_patient(config, 0) != generate_patient(config, 1)

    def test_deteriorating_episode_labels_positive_after_onset(self):
        config = ScenarioConfig(seed=21, n_episodes=60, deterioration_fraction=1.0)
        for i in range(25):
            seq = generate_patient(config, i)
            meta = episode_metadata(config, i)
            assert seq.outcome == 1
            c = first_positive_checkpoint(seq)
            assert c is not None
            assert c >= meta["onset_s"] - 3 * HOUR  # checkpoint grid straddles onset

    def test_clean_episode_never_positive(self):
        config = ScenarioConfig(seed=22, n_episodes=60, deterioration_fraction=0.0)
        for i in range(25):
            seq = generate_patient(config, i)
            assert seq.outcome == 0
            for k in range(1, int(config.duration_hours // 3) + 1):
                assert not aki_label(seq, k * 3 * HOUR)

    def test_base_rate_near_fraction(self):
        config = ScenarioConfig(seed=5, n_episodes=500, deterioration_fraction=0.4)
        outcomes = [generate_patient(config, i).outcome for i in range(500)]
        assert abs(np.mean(outcomes) - 0.4) < 0.05

    def test_splits_partition(self):
        config = ScenarioConfig(seed=5, n_episodes=20)
        corpus = generate_corpus(config)
        splits = [s.split for s in corpus]
        assert splits.count("validation") == 2
        assert splits.count("test") == 2
        assert splits.count("train") == 16

    def test_metadata_consistent_with_sequence(self):
        config = ScenarioConfig(seed=9, n_episodes=30, deterioration_fraction=0.5)
        for i in range(30):
            seq = generate_patient(config, i)
            meta = episode_metadata(config, i)
            assert seq.outcome == int(meta["deteriorated"])

    def test_catalog_has_signal_and_distractors(self):
        config = ScenarioConfig()
        ids = config.catalog().ids
        assert CREATININE in ids and URINE_RATE in ids
        assert len(ids) >= 10


class TestGroundTruth:
    def _seq(self):
        return seq_of([
            Event(1 * HOUR, "heart_rate", 80.0),
            Event(2 * HOUR, CREATININE, 1.0),
            Event(3 * HOUR, "glucose", 100.0),
            Event(4 * HOUR, URINE_RATE, 50.0),
            Event(5 * HOUR, CREATININE, 1.2),
        ])

    def test_collects_signal_steps(self):
        truth = ground_truth_set(self._seq(), 1, 5)
        assert truth == {(2, CREATININE), (4, URINE_RATE), (5, CREATININE)}

    def test_window_with_only_distractors_empty(self):
        assert ground_truth_set(self._seq(), 2, 3) == set()

    def test_brute_force_scan_oracle(self):
        config = ScenarioConfig(seed=3, n_episodes=5, deterioration_fraction=0.5)
        for i in range(5):
            seq = generate_patient(config, i)
            T = len(seq.events)
            for t0, t1 in ((0, T), (T // 3, 2 * T // 3), (T - 1, T)):
                truth = ground_truth_set(seq, t0, t1)
                scan = {
                    (j + 1, e.feature)
                    for j, e in enumerate(seq.events)
                    if t0 < j + 1 <= t1 and e.feature in (CREATININE, URINE_RATE)
                }
                assert truth == scan

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ground_truth_set(self._seq(), 3, 99)
