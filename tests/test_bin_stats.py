import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftscope.bin_stats import (
    LAPLACE_ALPHA,
    BinTable,
    FeatureBins,
    bin_statistic,
    fit_bins,
    stat_weights,
)
from driftscope.events import Event, EventSequence, FeatureCatalog, encode_steps
from conftest import identity_stats


def corpus_from_values(values, outcomes, feature="f"):
    """One single-event episode per value, outcome per episode."""
    return [
        EventSequence(f"e{i}", (Event(0.0, feature, float(v)),), int(o), "train")
        for i, (v, o) in enumerate(zip(values, outcomes))
    ]


def table(pos, neg, cuts=None, mean_bin=0):
    fb = FeatureBins(
        cuts=np.asarray(cuts if cuts is not None else range(1, len(pos)), dtype=float),
        pos=np.asarray(pos), neg=np.asarray(neg), mean_bin=mean_bin,
    )
    return BinTable({"f": fb})


def odds_ratio(t, b, alpha=LAPLACE_ALPHA):
    """Odds ratio of bin ``b`` of feature "f", read from the per-bin function."""
    return bin_statistic(t.by_feature["f"], "odds_ratio", alpha)[b]


def rothman_index(t, b, alpha=LAPLACE_ALPHA):
    """Rothman index of bin ``b`` of feature "f", read from the per-bin function."""
    return bin_statistic(t.by_feature["f"], "rothman", alpha)[b]


class TestFitBins:
    def test_two_bins_split_at_median(self):
        corpus = corpus_from_values(range(1, 11), [i % 2 for i in range(10)])
        bt = fit_bins(corpus, bins_per_feature=2)
        fb = bt.by_feature["f"]
        np.testing.assert_array_equal(fb.cuts, [5.5])
        np.testing.assert_array_equal(fb.pos + fb.neg, [5, 5])

    def test_constant_feature_single_bin(self):
        corpus = corpus_from_values([3.0] * 8, [1, 0] * 4)
        bt = fit_bins(corpus, bins_per_feature=10)
        fb = bt.by_feature["f"]
        assert fb.n_bins == 1
        assert fb.pos[0] == 4 and fb.neg[0] == 4

    def test_counts_match_recount_oracle(self):
        # Oracle: independent single-pass scan over (value, outcome) pairs.
        rng = np.random.default_rng(0)
        values = rng.normal(size=300)
        outcomes = rng.integers(0, 2, size=300)
        corpus = corpus_from_values(values, outcomes)
        bt = fit_bins(corpus, bins_per_feature=5)
        fb = bt.by_feature["f"]
        pos = np.zeros(fb.n_bins, dtype=int)
        neg = np.zeros(fb.n_bins, dtype=int)
        for v, o in zip(values, outcomes):
            b = fb.bin_of(v)
            if o:
                pos[b] += 1
            else:
                neg[b] += 1
        np.testing.assert_array_equal(fb.pos, pos)
        np.testing.assert_array_equal(fb.neg, neg)

    def test_every_train_value_in_exactly_one_bin(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(size=50), [7.7] * 30])  # heavy ties
        corpus = corpus_from_values(values, rng.integers(0, 2, size=80))
        bt = fit_bins(corpus, bins_per_feature=10)
        fb = bt.by_feature["f"]
        assert fb.pos.sum() + fb.neg.sum() == 80
        assert np.all(np.diff(fb.cuts) > 0)

    def test_mean_bin_contains_train_mean(self):
        rng = np.random.default_rng(2)
        values = rng.normal(5.0, 1.0, size=200)
        corpus = corpus_from_values(values, rng.integers(0, 2, size=200))
        bt = fit_bins(corpus)
        fb = bt.by_feature["f"]
        assert fb.bin_of(values.mean()) == fb.mean_bin


class TestOddsRatio:
    def test_count_arithmetic_oracle(self):
        t = table(pos=[30, 10], neg=[70, 90], cuts=[0.0])
        assert odds_ratio(t, 0, alpha=1e-12) == pytest.approx(27 / 7, rel=1e-6)

    def test_proportional_counts_give_one(self):
        t = table(pos=[20, 40], neg=[10, 20], cuts=[0.0])
        assert odds_ratio(t, 0, alpha=1e-12) == pytest.approx(1.0, rel=1e-6)

    def test_label_swap_inverts(self):
        t = table(pos=[30, 10], neg=[70, 90], cuts=[0.0])
        swapped = table(pos=[70, 90], neg=[30, 10], cuts=[0.0])
        a = odds_ratio(t, 0, alpha=1e-12)
        b = odds_ratio(swapped, 0, alpha=1e-12)
        assert a == pytest.approx(1 / b, rel=1e-6)

    def test_zero_cells_survive_smoothing(self):
        t = table(pos=[5, 0], neg=[0, 5], cuts=[0.0])
        v = odds_ratio(t, 0)
        assert np.isfinite(v) and v > 0

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_monotone_in_positive_count(self, pi, ni, po, no):
        # Reference bin for the risk ratio is the other bin, so the increment
        # only moves the numerator for both statistics.
        t1 = table(pos=[pi, po], neg=[ni, no], cuts=[0.0], mean_bin=1)
        t2 = table(pos=[pi + 1, po], neg=[ni, no], cuts=[0.0], mean_bin=1)
        assert odds_ratio(t2, 0) > odds_ratio(t1, 0)
        assert rothman_index(t2, 0) > rothman_index(t1, 0)


class TestRothman:
    def test_ratio_arithmetic_oracle(self):
        # bin risk 0.4 vs mean-bin risk 0.1 with negligible smoothing
        t = table(pos=[4000, 1000], neg=[6000, 9000], cuts=[0.0], mean_bin=1)
        assert rothman_index(t, 0, alpha=1e-9) == pytest.approx(4.0, rel=1e-4)

    def test_mean_bin_self_ratio(self):
        t = table(pos=[4, 10], neg=[6, 90], cuts=[0.0], mean_bin=1)
        assert rothman_index(t, 1) == 1.0

    def test_empty_bin_smoothing_floor(self):
        t = table(pos=[0, 10], neg=[0, 90], cuts=[0.0], mean_bin=1)
        avg_risk = (10 + 0.5) / (100 + 1.0)
        assert rothman_index(t, 0) == pytest.approx(0.5 / avg_risk)


class TestStatWeights:
    def _fixture(self):
        rng = np.random.default_rng(3)
        catalog = FeatureCatalog.from_ids(["f", "g"])
        episodes = []
        for i in range(40):
            outcome = i % 2
            shift = 3.0 if outcome else 0.0
            events = (
                Event(0.0, "f", float(rng.normal() + shift)),
                Event(60.0, "g", float(rng.normal())),
            )
            episodes.append(EventSequence(f"e{i}", events, outcome, "train"))
        bt = fit_bins(episodes, bins_per_feature=4)
        return catalog, episodes, bt

    def test_lookup_places_weight_on_active_feature(self):
        catalog, episodes, bt = self._fixture()
        seq = episodes[0]
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        for statistic in ("odds_ratio", "rothman"):
            a = stat_weights(steps, catalog, bt, statistic)
            assert a.method == statistic
            for j, e in enumerate(seq.events):
                fi = catalog.index(e.feature)
                fb = bt.by_feature[e.feature]
                want = bin_statistic(fb, statistic)[fb.bin_of(e.value)]
                assert a.a[fi, j] == pytest.approx(want)

    def test_same_bin_events_have_equal_weights(self):
        catalog, _, bt = self._fixture()
        seq = EventSequence("e", (Event(0.0, "f", 0.2), Event(60.0, "f", 0.21)), 0, "train")
        fb = bt.by_feature["f"]
        assert fb.bin_of(0.2) == fb.bin_of(0.21)
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, "odds_ratio")
        assert a.a[0, 0] == a.a[0, 1]

    @pytest.mark.parametrize("statistic", ["odds_ratio", "rothman"])
    def test_feature_absent_from_table_gets_one(self, statistic):
        _, _, bt = self._fixture()
        catalog = FeatureCatalog.from_ids(["f", "g", "h"])  # "h" never seen in train
        seq = EventSequence("e", (Event(0.0, "h", 5.0), Event(60.0, "f", 4.0)), 0, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, statistic)
        assert a.a[2, 0] == 1.0
        assert a.a[0, 1] != 1.0

    def test_value_at_cut_lands_in_upper_bin(self):
        catalog, _, bt = self._fixture()
        fb = bt.by_feature["f"]
        cut = float(fb.cuts[0])
        assert fb.bin_of(cut) == 1
        per_bin = bin_statistic(fb, "odds_ratio")
        assert per_bin[0] != per_bin[1]
        below = float(np.nextafter(cut, -np.inf))
        seq = EventSequence("e", (Event(0.0, "f", cut), Event(60.0, "f", below)), 0, "train")
        a = stat_weights(encode_steps(seq, catalog, identity_stats(catalog.ids)),
                         catalog, bt, "odds_ratio")
        assert a.a[0, 0] == per_bin[1]
        assert a.a[0, 1] == per_bin[0]

    def test_unknown_statistic_rejected(self):
        _, _, bt = self._fixture()
        with pytest.raises(ValueError, match="unknown statistic"):
            bin_statistic(bt.by_feature["f"], "lift")

    def test_out_of_range_values_clamp_to_edge_bins(self):
        catalog, _, bt = self._fixture()
        fb = bt.by_feature["f"]
        assert fb.bin_of(-1e9) == 0
        assert fb.bin_of(1e9) == fb.n_bins - 1

    def test_matches_spreadsheet_recount_oracle(self):
        # Oracle: recompute one weight from nothing but raw counts.
        catalog, episodes, bt = self._fixture()
        seq = episodes[1]
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, "odds_ratio")
        value = seq.events[0].value
        in_pos = in_neg = out_pos = out_neg = 0
        fb = bt.by_feature["f"]
        target_bin = fb.bin_of(value)
        for ep in episodes:
            for e in ep.events:
                if e.feature != "f":
                    continue
                if fb.bin_of(e.value) == target_bin:
                    in_pos += ep.outcome
                    in_neg += 1 - ep.outcome
                else:
                    out_pos += ep.outcome
                    out_neg += 1 - ep.outcome
        want = ((in_pos + 0.5) / (in_neg + 0.5)) / ((out_pos + 0.5) / (out_neg + 0.5))
        assert a.a[0, 0] == pytest.approx(want)

    def test_duplicated_corpus_shrinks_smoothing_effect(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=1200)
        outcomes = rng.integers(0, 2, size=1200)
        corpus = [
            EventSequence(f"e{i}", (Event(0.0, "f", float(v)),), int(o), "train")
            for i, (v, o) in enumerate(zip(values, outcomes))
        ]
        doubled = corpus + [
            EventSequence(f"d{i}", s.events, s.outcome, s.split)
            for i, s in enumerate(corpus)
        ]
        bt1 = fit_bins(corpus, bins_per_feature=5)
        bt2 = fit_bins(doubled, bins_per_feature=5)
        for b in range(bt1.by_feature["f"].n_bins):
            v1 = odds_ratio(bt1, b)
            v2 = odds_ratio(bt2, b)
            exact = odds_ratio(bt1, b, alpha=1e-12)
            assert abs(v2 - exact) <= abs(v1 - exact) + 1e-12

    def test_json_round_trip(self):
        _, _, bt = self._fixture()
        again = BinTable.from_json(json.loads(json.dumps(bt.to_json())))
        for fid, fb in bt.by_feature.items():
            fb2 = again.by_feature[fid]
            np.testing.assert_array_equal(fb.cuts, fb2.cuts)
            np.testing.assert_array_equal(fb.pos, fb2.pos)
            np.testing.assert_array_equal(fb.neg, fb2.neg)
            assert fb.mean_bin == fb2.mean_bin
