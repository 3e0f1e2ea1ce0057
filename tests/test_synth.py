import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from driftscope.events import EventSequence
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
    _labels,
)
from conftest import events_of


def seq_of(events):
    return EventSequence("e", events_of(events), 0, "train")


class TestLabeler:
    def test_creatinine_rise_at_threshold(self):
        seq = seq_of([(8 * HOUR, CREATININE, 1.0), (47 * HOUR, CREATININE, 1.3)])
        assert aki_label(seq, 48 * HOUR)

    def test_decrease_not_labeled(self):
        seq = seq_of([
            (8 * HOUR, CREATININE, 1.4),
            (20 * HOUR, URINE_RATE, 80.0),
            (47 * HOUR, CREATININE, 1.0),
        ])
        assert not aki_label(seq, 48 * HOUR)

    def test_rise_must_be_time_ordered(self):
        # max - min is 0.4 but the high value comes first
        seq = seq_of([(8 * HOUR, CREATININE, 1.4), (40 * HOUR, CREATININE, 1.0)])
        assert not aki_label(seq, 48 * HOUR)

    def test_rise_outside_lookback_ignored(self):
        seq = seq_of([(1 * HOUR, CREATININE, 1.0), (60 * HOUR, CREATININE, 1.4)])
        assert not aki_label(seq, 60 * HOUR)  # first value is 59h back, outside 48h

    def test_sustained_low_urine(self):
        t = 20 * HOUR
        seq = seq_of([
            (t - 6 * HOUR, URINE_RATE, 20.0),
            (t - 3 * HOUR, URINE_RATE, 20.0),
            (t - 0.5 * HOUR, URINE_RATE, 20.0),
        ])
        assert aki_label(seq, t)

    def test_normal_value_breaks_the_run(self):
        t = 20 * HOUR
        seq = seq_of([
            (t - 8 * HOUR, URINE_RATE, 20.0),
            (t - 5 * HOUR, URINE_RATE, 30.0),
            (t - 4 * HOUR, URINE_RATE, 20.0),
            (t - 1 * HOUR, URINE_RATE, 20.0),
        ])
        assert not aki_label(seq, t)  # run spans only 4h after the normal value

    def test_single_low_observation_insufficient(self):
        t = 20 * HOUR
        seq = seq_of([(t - 7 * HOUR, URINE_RATE, 20.0)])
        assert not aki_label(seq, t)

    def test_monotone_in_later_creatinine(self):
        t = 48 * HOUR
        base = [(8 * HOUR, CREATININE, 1.0), (40 * HOUR, CREATININE, 1.35)]
        assert aki_label(seq_of(base), t)
        for higher in (1.5, 2.0, 5.0):
            seq = seq_of([base[0], (40 * HOUR, CREATININE, higher)])
            assert aki_label(seq, t)


class TestGenerator:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["duration_hours"])
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
            (1 * HOUR, "heart_rate", 80.0),
            (2 * HOUR, CREATININE, 1.0),
            (3 * HOUR, "glucose", 100.0),
            (4 * HOUR, URINE_RATE, 50.0),
            (5 * HOUR, CREATININE, 1.2),
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
                    (j + 1, f)
                    for j, f in enumerate(seq.events.feature)
                    if t0 < j + 1 <= t1 and f in (CREATININE, URINE_RATE)
                }
                assert truth == scan

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ground_truth_set(self._seq(), 3, 99)


def reference_label(seq, t):
    """The per-event loop that came before ``aki_label``'s array form."""
    lo = t - 48.0 * HOUR
    running_min = math.inf
    triples = list(zip(seq.events.time.tolist(), seq.events.feature, seq.events.value.tolist()))
    for time, feature, value in triples:
        if feature != CREATININE or time > t or time <= lo:
            continue
        if value - running_min >= 0.3:
            return True
        running_min = min(running_min, value)
    run = []
    for time, feature, value in triples:
        if feature != URINE_RATE or time > t:
            continue
        run = run + [time] if value < 25.0 else []
    return len(run) >= 2 and t - run[0] >= 6.0 * HOUR - 1e-9


def reference_first_positive(seq):
    t_last = float(seq.events.time[-1])
    k = 1
    while True:
        c = k * 3.0 * HOUR
        if c > t_last + 3.0 * HOUR:
            return None
        if reference_label(seq, c):
            return c
        k += 1


def probe_times(seq):
    """Every half hour, and each event time with its neighbouring floats and
    the edges of the lookback and sustain windows."""
    t = seq.events.time
    edges = np.concatenate([t, t + 48.0 * HOUR, t + 6.0 * HOUR - 1e-9, t + 6.0 * HOUR])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    grid = np.arange(0.0, t[-1] + 50 * HOUR, 0.5 * HOUR)
    return np.concatenate([grid, near[near >= 0]]).tolist()


@pytest.mark.parametrize("seed, hours, positive", [(0, 36.0, 0.5), (1, 72.0, 1.0), (2, 36.0, 0.0)])
def test_labels_match_the_per_event_loops(seed, hours, positive):
    corpus = generate_corpus(ScenarioConfig(seed=seed, n_episodes=16, duration_hours=hours,
                                            deterioration_fraction=positive))
    for seq in corpus:
        assert first_positive_checkpoint(seq) == reference_first_positive(seq)
        for t in probe_times(seq):
            assert aki_label(seq, t) == reference_label(seq, t), (seq.episode_id, t)
        T = len(seq)
        for t0, t1 in [(0, T), (0, 0), (T, T), (T // 4, 3 * T // 4), (T - 2, T), (1, 2)]:
            scan = {(j + 1, f) for j, f in enumerate(seq.events.feature)
                    if t0 < j + 1 <= t1 and f in (CREATININE, URINE_RATE)}
            assert ground_truth_set(seq, t0, t1) == scan


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=80), st.sampled_from([CREATININE, URINE_RATE]),
                          st.sampled_from([0.9, 1.0, 1.2, 1.3, 1.31, 20.0, 24.99, 25.0, 30.0])),
                min_size=1, max_size=14))
def test_label_of_hand_made_episodes_matches_the_loops(triples):
    triples = sorted((h * HOUR, f, v) for h, f, v in triples)
    seq = seq_of(triples)
    assert first_positive_checkpoint(seq) == reference_first_positive(seq)
    for t in probe_times(seq):
        assert aki_label(seq, t) == reference_label(seq, t)


def test_checkpoint_three_hours_after_the_last_event_counts():
    # The last event is at 6 h; the run turns positive at the 9 h checkpoint.
    seq = seq_of([(1 * HOUR, URINE_RATE, 20.0), (6 * HOUR, URINE_RATE, 20.0)])
    assert first_positive_checkpoint(seq) == 9 * HOUR == reference_first_positive(seq)


def test_late_last_event_labels_in_bounded_chunks():
    # 100,000 checkpoints before the last event; the labels run a chunk at a time.
    seq = seq_of([(1 * HOUR, URINE_RATE, 80.0), (300_000 * HOUR, URINE_RATE, 80.0)])
    assert first_positive_checkpoint(seq) is None
    seq = seq_of([(1 * HOUR, URINE_RATE, 80.0), (200_000 * HOUR, URINE_RATE, 20.0),
                  (200_004 * HOUR, URINE_RATE, 20.0), (300_000 * HOUR, URINE_RATE, 80.0)])
    assert first_positive_checkpoint(seq) == 200_007 * HOUR


def chunked_first_positive(seq):
    """Every checkpoint up to the last event labelled 256 at a time, as
    first_positive_checkpoint did before it skipped stretches where the label
    cannot change."""
    last = seq.events.time[-1] + 3.0 * HOUR
    for k in itertools.count(1, 256):
        checkpoints = np.arange(k, k + 256) * 3.0 * HOUR
        checkpoints = checkpoints[checkpoints <= last]
        if not len(checkpoints):
            return None
        positive = np.flatnonzero(_labels(seq.events, checkpoints))
        if len(positive):
            return float(checkpoints[positive[0]])


# Offsets at which an event can change the label: the creatinine lookback, the
# urine sustain time and its tolerance, and one checkpoint interval.
LABEL_OFFSETS = [48.0 * HOUR, 6.0 * HOUR, 6.0 * HOUR - 1e-9, 3.0 * HOUR, 0.0]
event_times = (st.integers(0, 9000).map(lambda h: h * HOUR)  # up to about 12 chunks
               | st.floats(0.0, 3.3e7, allow_nan=False))
signal_events = st.tuples(event_times, st.sampled_from([CREATININE, URINE_RATE]),
                          st.sampled_from([0.9, 1.0, 1.3, 1.31, 20.0, 24.99, 25.0, 30.0]))


@given(st.lists(signal_events, min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(LABEL_OFFSETS),
                          st.sampled_from([CREATININE, URINE_RATE]),
                          st.sampled_from([1.0, 1.3, 1.31, 20.0, 25.0])), max_size=6))
@example([(0.0, URINE_RATE, 20.0), (2000 * HOUR, URINE_RATE, 20.0),
          (3000 * HOUR, CREATININE, 1.0)],
         [(1, 0.0, URINE_RATE, 20.0), (2, 48.0 * HOUR, CREATININE, 1.31)])
@example([(10.0, CREATININE, 1.0), (5000 * HOUR, URINE_RATE, 20.0)],
         [(1, 6.0 * HOUR - 1e-9, URINE_RATE, 20.0), (0, 48.0 * HOUR, CREATININE, 1.3)])
@example([(5.0, "heart_rate", 80.0)], [])  # no event at which the label can change
def test_first_positive_checkpoint_matches_the_chunked_scan(events, derived):
    # Far-apart events, and events placed exactly where the label can change.
    triples = list(events)
    for i, offset, feature, value in derived:
        triples.append((triples[i % len(events)][0] + offset, feature, value))
    seq = seq_of(sorted(triples))
    assert first_positive_checkpoint(seq) == chunked_first_positive(seq)


def test_first_positive_checkpoint_time_follows_events_not_last_time():
    # The chunked scan would label about 9e10 checkpoints here.
    for late in (1e15, 1e300):  # at 1e300 s a checkpoint's index is far past int64
        seq = seq_of([(0.0, CREATININE, 1.0), (late, CREATININE, 1.0)])
        start = time.perf_counter()
        assert first_positive_checkpoint(seq) is None
        assert time.perf_counter() - start < 1.0
    seq = seq_of([(0.0, CREATININE, 1.0), (1e15, CREATININE, 1.0), (1e15 + HOUR, CREATININE, 1.3)])
    assert first_positive_checkpoint(seq) == math.ceil((1e15 + HOUR) / (3 * HOUR)) * 3 * HOUR
