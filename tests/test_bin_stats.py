import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import driftscope as ds
from driftscope.bin_stats import (
    LAPLACE_ALPHA,
    BinTable,
    FeatureBins,
    bin_statistic,
    fit_bins,
    stat_weights,
)
from driftscope.events import EventSequence, FeatureCatalog, encode_steps
from conftest import events_of, identity_stats, json_values, mutate


def corpus_from_values(values, outcomes, feature="f"):
    """One single-event episode per value, outcome per episode."""
    return [
        EventSequence(f"e{i}", events_of([(0.0, feature, float(v))]), int(o), "train")
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
        assert len(fb.pos) == 1
        assert fb.pos[0] == 4 and fb.neg[0] == 4

    def test_counts_match_recount_oracle(self):
        # Oracle: independent single-pass scan over (value, outcome) pairs.
        rng = np.random.default_rng(0)
        values = rng.normal(size=300)
        outcomes = rng.integers(0, 2, size=300)
        corpus = corpus_from_values(values, outcomes)
        bt = fit_bins(corpus, bins_per_feature=5)
        fb = bt.by_feature["f"]
        pos = np.zeros(len(fb.pos), dtype=int)
        neg = np.zeros(len(fb.pos), dtype=int)
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


    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=16)
                    | st.sampled_from([0.0, 1.0, 1e300, -1e300]), min_size=1, max_size=40),
           st.integers(min_value=2, max_value=12))
    @example([1.0, 1.0, 2.0], 10)
    @example([5.0], 4)
    @example([1.0, 1.0, -0.0, 0.0, 0.0, -0.0, 0.0], 4)
    @example([1.049001171530397, 6.40422650443282], 2)  # the two lerp forms differ at 0.5
    def test_cuts_are_those_of_quantile_and_unique(self, values, bins_per_feature):
        """fit_bins's cuts are np.unique(np.quantile(...)) bit for bit, but for the
        sign of a zero cut: np.quantile's depends on its partition's order."""
        vals = np.asarray(values, dtype=float)
        qs = np.linspace(0, 1, bins_per_feature + 1)[1:-1]
        want = np.unique(np.quantile(vals, qs))
        want = want[(want > vals.min()) & (want <= vals.max())] + 0.0
        got = fit_bins(corpus_from_values(vals, [0] * len(vals)), bins_per_feature)
        assert got.by_feature["f"].cuts.tobytes() == want.tobytes()

    def test_fit_bins_does_not_load_numpy_ma(self):
        # np.quantile and np.unique import numpy.ma, which costs 1.7 MB per run.
        code = ("import sys; import driftscope as ds; "
                "ds.fit_bins(ds.generate_corpus(ds.ScenarioConfig(n_episodes=20))); "
                "print('numpy.ma' in sys.modules)")
        src = pathlib.Path(ds.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False"


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
                (0.0, "f", float(rng.normal() + shift)),
                (60.0, "g", float(rng.normal())),
            )
            episodes.append(EventSequence(f"e{i}", events_of(events), outcome, "train"))
        bt = fit_bins(episodes, bins_per_feature=4)
        return catalog, episodes, bt

    def test_lookup_places_weight_on_active_feature(self):
        catalog, episodes, bt = self._fixture()
        seq = episodes[0]
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        for statistic in ("odds_ratio", "rothman"):
            a = stat_weights(steps, catalog, bt, statistic)
            assert a.method == statistic
            assert a.a.shape == (steps.T,)
            for j, (f, v) in enumerate(zip(seq.events.feature, seq.events.value)):
                fb = bt.by_feature[f]
                want = bin_statistic(fb, statistic)[fb.bin_of(v)]
                assert a.a[j] == pytest.approx(want)

    def test_same_bin_events_have_equal_weights(self):
        catalog, _, bt = self._fixture()
        seq = EventSequence("e", events_of([(0.0, "f", 0.2), (60.0, "f", 0.21)]), 0, "train")
        fb = bt.by_feature["f"]
        assert fb.bin_of(0.2) == fb.bin_of(0.21)
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, "odds_ratio")
        assert a.a[0] == a.a[1]

    @pytest.mark.parametrize("statistic", ["odds_ratio", "rothman"])
    def test_feature_absent_from_table_gets_one(self, statistic):
        _, _, bt = self._fixture()
        catalog = FeatureCatalog.from_ids(["f", "g", "h"])  # "h" never seen in train
        seq = EventSequence("e", events_of([(0.0, "h", 5.0), (60.0, "f", 4.0)]), 0, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, statistic)
        assert a.a[0] == 1.0
        assert a.a[1] != 1.0

    def test_value_at_cut_lands_in_upper_bin(self):
        catalog, _, bt = self._fixture()
        fb = bt.by_feature["f"]
        cut = float(fb.cuts[0])
        assert fb.bin_of(cut) == 1
        per_bin = bin_statistic(fb, "odds_ratio")
        assert per_bin[0] != per_bin[1]
        below = float(np.nextafter(cut, -np.inf))
        seq = EventSequence("e", events_of([(0.0, "f", cut), (60.0, "f", below)]), 0, "train")
        a = stat_weights(encode_steps(seq, catalog, identity_stats(catalog.ids)),
                         catalog, bt, "odds_ratio")
        assert a.a[0] == per_bin[1]
        assert a.a[1] == per_bin[0]

    def test_unknown_statistic_rejected(self):
        _, _, bt = self._fixture()
        with pytest.raises(ValueError, match="unknown statistic"):
            bin_statistic(bt.by_feature["f"], "lift")

    def test_out_of_range_values_clamp_to_edge_bins(self):
        catalog, _, bt = self._fixture()
        fb = bt.by_feature["f"]
        assert fb.bin_of(-1e9) == 0
        assert fb.bin_of(1e9) == len(fb.pos) - 1

    def test_matches_spreadsheet_recount_oracle(self):
        # Oracle: recompute one weight from nothing but raw counts.
        catalog, episodes, bt = self._fixture()
        seq = episodes[1]
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        a = stat_weights(steps, catalog, bt, "odds_ratio")
        value = seq.events.value[0]
        in_pos = in_neg = out_pos = out_neg = 0
        fb = bt.by_feature["f"]
        target_bin = fb.bin_of(value)
        for ep in episodes:
            for f, v in zip(ep.events.feature, ep.events.value):
                if f != "f":
                    continue
                if fb.bin_of(v) == target_bin:
                    in_pos += ep.outcome
                    in_neg += 1 - ep.outcome
                else:
                    out_pos += ep.outcome
                    out_neg += 1 - ep.outcome
        want = ((in_pos + 0.5) / (in_neg + 0.5)) / ((out_pos + 0.5) / (out_neg + 0.5))
        assert a.a[0] == pytest.approx(want)

    def test_duplicated_corpus_shrinks_smoothing_effect(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=1200)
        outcomes = rng.integers(0, 2, size=1200)
        corpus = [
            EventSequence(f"e{i}", events_of([(0.0, "f", float(v))]), int(o), "train")
            for i, (v, o) in enumerate(zip(values, outcomes))
        ]
        doubled = corpus + [
            EventSequence(f"d{i}", s.events, s.outcome, s.split)
            for i, s in enumerate(corpus)
        ]
        bt1 = fit_bins(corpus, bins_per_feature=5)
        bt2 = fit_bins(doubled, bins_per_feature=5)
        for b in range(len(bt1.by_feature["f"].pos)):
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

    @given(path=st.lists(st.integers(0, 20), max_size=4), value=json_values,
           delete=st.booleans())
    @example(path=[0, 0, 0], value=10**400, delete=False)  # a cut too large for a float
    def test_mutated_payload_loads_or_raises_value_error(self, path, value, delete):
        payload = json.loads(json.dumps(self._fixture()[2].to_json()))
        try:
            BinTable.from_json(mutate(payload, path, value, delete))
        except ValueError:
            pass
