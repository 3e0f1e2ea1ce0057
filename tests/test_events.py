import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import driftscope as ds
from driftscope.events import (
    Event,
    EventFormatError,
    EventSequence,
    FeatureCatalog,
    catalog_from_sequences,
    encode_steps,
    fit_feature_stats,
    parse_event_log,
)
from conftest import identity_stats


def line(episode="e1", time_s=0.0, feature="f", value=1.0, outcome=0, split="train"):
    return json.dumps({"episode": episode, "time_s": time_s, "feature": feature,
                       "value": value, "outcome": outcome, "split": split})


class TestParse:
    def test_sorts_events_within_episode(self):
        text = "\n".join([line(time_s=7200.0), line(time_s=3600.0)])
        seqs = parse_event_log(text)
        assert len(seqs) == 1
        assert [e.time for e in seqs[0].events] == [3600.0, 7200.0]

    def test_empty_stream(self):
        assert parse_event_log("") == []

    def test_negative_time_rejected(self):
        with pytest.raises(EventFormatError, match="negative time"):
            parse_event_log(line(time_s=-5))

    def test_malformed_line_carries_line_number(self):
        text = "\n".join([line(), "{not json"])
        with pytest.raises(EventFormatError, match="line 2"):
            parse_event_log(text)

    @pytest.mark.parametrize("field, value", [
        ("value", float("nan")), ("value", float("inf")), ("value", float("-inf")),
        ("value", "1e400"), ("time_s", float("nan")), ("time_s", float("inf")),
    ])
    def test_non_finite_number_rejected_with_line(self, field, value):
        text = "\n".join([line(), line(**{"time_s": 10.0, field: value})])
        with pytest.raises(EventFormatError, match="line 2: time_s and value must be finite"):
            parse_event_log(text)

    def test_missing_key_rejected(self):
        with pytest.raises(EventFormatError, match="missing key"):
            parse_event_log('{"episode": "e", "time_s": 0}')

    def test_unknown_feature_named_in_error(self):
        catalog = FeatureCatalog.from_ids(["known"])
        with pytest.raises(EventFormatError, match="mystery"):
            parse_event_log(line(feature="mystery"), catalog=catalog)

    def test_conflicting_outcome_rejected(self):
        text = "\n".join([line(outcome=0), line(outcome=1, time_s=10.0)])
        with pytest.raises(EventFormatError, match="conflicting"):
            parse_event_log(text)

    def test_tie_break_catalog_then_input_order(self):
        catalog = FeatureCatalog.from_ids(["a", "b"])
        text = "\n".join([
            line(feature="b", time_s=5.0, value=1.0),
            line(feature="a", time_s=5.0, value=2.0),
            line(feature="b", time_s=5.0, value=3.0),
        ])
        seqs = parse_event_log(text, catalog=catalog)
        got = [(e.feature, e.value) for e in seqs[0].events]
        assert got == [("a", 2.0), ("b", 1.0), ("b", 3.0)]

    def test_deterministic(self):
        text = "\n".join([line(time_s=float(i), value=float(i)) for i in range(5)])
        assert parse_event_log(text) == parse_event_log(text)


class TestFeatureStats:
    def test_degenerate_feature_normalizes_to_zero(self):
        seq = EventSequence("e", tuple(Event(float(i), "f", 1.0) for i in range(3)), 0, "train")
        stats = fit_feature_stats([seq])
        st_ = stats.by_feature["f"]
        assert st_.mean == 1.0 and st_.degenerate
        assert stats.normalize_value("f", 1.0) == 0.0
        assert stats.normalize_value("f", 99.0) == 0.0

    def test_two_point_statistics_unclamped(self):
        seq = EventSequence("e", (Event(0.0, "f", 0.0), Event(1.0, "f", 10.0)), 0, "train")
        stats = fit_feature_stats([seq])
        st_ = stats.by_feature["f"]
        assert st_.mean == 5.0 and st_.std == 5.0

    def test_recovers_known_distribution_mean(self):
        # Oracle: direct sample statistics on 1000 draws from N(5, 2).
        rng = np.random.default_rng(42)
        vals = rng.normal(5.0, 2.0, size=1000)
        events = tuple(Event(float(i), "f", float(v)) for i, v in enumerate(vals))
        stats = fit_feature_stats([EventSequence("e", events, 0, "train")])
        assert abs(stats.by_feature["f"].mean - 5.0) < 3 * 2.0 / math.sqrt(1000)

    def test_only_train_split_used(self):
        train = EventSequence("a", (Event(0.0, "f", 0.0), Event(1.0, "f", 2.0)), 0, "train")
        test = EventSequence("b", (Event(0.0, "f", 100.0),), 0, "test")
        stats = fit_feature_stats([train, test])
        assert stats.by_feature["f"].mean == 1.0

    def test_feature_absent_from_train_maps_to_zero(self):
        train = EventSequence("a", (Event(0.0, "f", 0.0), Event(1.0, "f", 2.0)), 0, "train")
        stats = fit_feature_stats([train])
        assert stats.normalize_value("ghost", 123.0) == 0.0

    def test_requires_train_split(self):
        seq = EventSequence("a", (Event(0.0, "f", 1.0),), 0, "test")
        with pytest.raises(ValueError, match="train"):
            fit_feature_stats([seq])


class TestNormalize:
    def _stats(self):
        rng = np.random.default_rng(0)
        events = tuple(Event(float(i), "f", float(v))
                       for i, v in enumerate(rng.normal(10, 3, size=500)))
        corpus = [EventSequence("e", events, 0, "train")]
        return corpus, fit_feature_stats(corpus)

    def test_mean_maps_to_zero_and_unit_scaling(self):
        _, stats = self._stats()
        st_ = stats.by_feature["f"]
        assert stats.normalize_value("f", st_.mean) == pytest.approx(0.0)
        assert stats.normalize_value("f", st_.mean + st_.std) == pytest.approx(1.0)

    def test_clamp_matches_clamp_first_oracle(self):
        _, stats = self._stats()
        st_ = stats.by_feature["f"]
        above = st_.hi + 7.5
        assert stats.normalize_value("f", above) == stats.normalize_value("f", st_.hi)

    def test_raw_value_retained(self):
        corpus, stats = self._stats()
        steps = encode_steps(corpus[0], FeatureCatalog.from_ids(["f"]), stats)
        assert steps.step_raw.tolist() == [e.value for e in corpus[0].events]

    def test_double_normalize_centers_train_values(self):
        corpus, stats = self._stats()
        catalog = FeatureCatalog.from_ids(["f"])
        values = np.concatenate([encode_steps(s, catalog, stats).x[:, 0]
                                 for s in corpus if s.split == "train"])
        assert abs(np.mean(values)) < 1e-9


class TestEncode:
    def test_single_event_vector(self):
        catalog = FeatureCatalog.from_ids(["temp", "hr"])
        seq = EventSequence("e", (Event(3600.0, "temp", 0.5),), 0, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        assert steps.T == 1
        np.testing.assert_allclose(steps.x[0], [0.5, 0.0, 1.0, 0.0, math.log(2.0)])
        assert steps.step_feature[0] == 0

    def test_simultaneous_events_zero_gap(self):
        catalog = FeatureCatalog.from_ids(["a", "b"])
        seq = EventSequence(
            "e", (Event(100.0, "a", 1.0), Event(100.0, "b", 2.0)), 0, "train"
        )
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        assert steps.T == 2
        assert steps.x[1, -1] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        catalog = FeatureCatalog.from_ids(["a", "b", "c"])
        events = tuple(
            Event(float(i) * 60.0, catalog.ids[rng.integers(3)], float(rng.normal()))
            for i in range(40)
        )
        seq = EventSequence("e", events, 1, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        feats = [catalog.index(e.feature) for e in events]
        values = np.zeros((40, 3))
        values[np.arange(40), feats] = [e.value for e in events]
        np.testing.assert_array_equal(steps.x[:, :3], values)
        np.testing.assert_array_equal(steps.x[:, 3:6], np.eye(3)[feats])
        times = np.array([e.time for e in events])
        gaps = np.diff(times, prepend=0.0)
        np.testing.assert_array_equal(steps.x[:, 6], [math.log1p(g / 3600.0) for g in gaps])
        assert steps.step_feature.tolist() == feats
        assert steps.step_raw.tolist() == [e.value for e in events]
        assert steps.step_time.tolist() == times.tolist()


@st.composite
def small_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    features = ["a", "b", "c"]
    times = sorted(draw(st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=n, max_size=n)))
    events = tuple(
        Event(times[i], draw(st.sampled_from(features)),
              draw(st.floats(min_value=-50, max_value=50, allow_nan=False)))
        for i in range(n)
    )
    return EventSequence("e", events, draw(st.sampled_from([0, 1])), "train")


@given(small_sequences())
def test_encoding_invariants(seq):
    catalog = FeatureCatalog.from_ids(["a", "b", "c"])
    steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
    d_f = catalog.d_features
    indicators = steps.x[:, d_f : 2 * d_f]
    assert np.all(indicators.sum(axis=1) == 1.0)
    for j in range(steps.T):
        values = steps.x[j, :d_f].copy()
        values[steps.step_feature[j]] = 0.0
        assert np.all(values == 0.0)
    assert np.all(steps.x[:, -1] >= 0.0)
    assert np.all(np.diff(steps.step_time) >= 0.0)


def test_catalog_from_sequences_sorted():
    seqs = [EventSequence("e", (Event(0.0, "z", 1.0), Event(1.0, "a", 1.0)), 0, "train")]
    assert catalog_from_sequences(seqs).ids == ("a", "z")


def test_catalog_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        FeatureCatalog.from_ids(["x", "x"])


def test_stats_json_round_trip():
    seq = EventSequence("e", (Event(0.0, "f", 0.0), Event(1.0, "f", 10.0)), 0, "train")
    stats = fit_feature_stats([seq])
    again = ds.FeatureStats.from_json(json.loads(json.dumps(stats.to_json())))
    assert again.by_feature == stats.by_feature
