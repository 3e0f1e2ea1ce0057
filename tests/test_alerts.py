import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from driftscope.alerts import (
    Alert,
    AlertRule,
    NoAnchorError,
    _iter_alerts,
    _step_at_or_before,
    evaluate_alert_rule,
    select_alert_cohort,
)
from driftscope.model import RiskSeries

H = 3600.0


def risk_series(p, times_h):
    p = np.asarray(p, dtype=float)
    return RiskSeries(p=p, logits=np.zeros_like(p),
                      step_time=np.asarray(times_h, dtype=float) * H, p_base=0.01)


def two_step(p0, p1, t0_h=12.0, t1_h=13.0):
    return risk_series([p0, p1], [t0_h, t1_h])


class TestEvaluateRule:
    def test_fires_at_both_boundaries(self):
        alert = evaluate_alert_rule(two_step(0.10, 0.20), AlertRule())
        assert alert is not None
        assert alert.p0 == 0.10 and alert.p1 == 0.20
        assert alert.t0 == 1 and alert.t1 == 2

    def test_ratio_fails(self):
        assert evaluate_alert_rule(two_step(0.15, 0.21), AlertRule()) is None

    def test_floor_fails(self):
        assert evaluate_alert_rule(two_step(0.05, 0.19), AlertRule()) is None

    def test_no_anchor(self):
        series = risk_series([0.5], [20.0])
        with pytest.raises(NoAnchorError, match="no anchor"):
            evaluate_alert_rule(series, AlertRule())

    def test_first_qualifying_check_wins(self):
        series = risk_series([0.1, 0.1, 0.5, 0.9], [12.0, 13.0, 15.5, 17.5])
        alert = evaluate_alert_rule(series, AlertRule())
        assert alert.t1 == 3 and alert.p1 == 0.5

    def test_check_exactly_at_horizon_included(self):
        series = risk_series([0.1, 0.9], [12.0, 23.9])
        alert = evaluate_alert_rule(series, AlertRule())
        assert alert is not None and alert.t1 == 2

    def test_nothing_after_horizon(self):
        series = risk_series([0.1, 0.9], [12.0, 25.0])
        assert evaluate_alert_rule(series, AlertRule()) is None

    def test_step_and_hold_uses_last_prediction(self):
        # Risk at each check is the last step at or before it.
        series = risk_series([0.1, 0.9, 0.05], [12.0, 13.5, 13.9])
        alert = evaluate_alert_rule(series, AlertRule())
        assert alert is None  # at 14h the held value is 0.05

    def test_anchor_is_last_step_before_anchor_time(self):
        series = risk_series([0.4, 0.1, 0.35], [2.0, 11.9, 15.0])
        alert = evaluate_alert_rule(series, AlertRule())
        assert alert is not None
        assert alert.t0 == 2 and alert.p0 == 0.1


GRID = [round(0.01 * i, 2) for i in range(1, 100)]


class TestGridProperties:
    def _fires(self, p0, p1, rule=AlertRule()):
        return evaluate_alert_rule(two_step(p0, p1), rule) is not None

    def test_threshold_characterization_exhaustive(self):
        rule = AlertRule()
        for p0 in GRID:
            threshold = max(rule.floor, rule.ratio_threshold * p0)
            for p1 in GRID:
                assert self._fires(p0, p1) == (p1 >= threshold)

    def test_monotone_in_p1(self):
        for p0 in GRID:
            fired = [self._fires(p0, p1) for p1 in GRID]
            # once firing starts it never stops as p1 grows
            assert fired == sorted(fired)

    def test_antitone_in_thresholds(self):
        base = AlertRule()
        stricter_ratio = AlertRule(ratio_threshold=2.0)
        stricter_floor = AlertRule(floor=0.3)
        for p0 in GRID[::7]:
            for p1 in GRID[::7]:
                if self._fires(p0, p1, stricter_ratio):
                    assert self._fires(p0, p1, base)
                if self._fires(p0, p1, stricter_floor):
                    assert self._fires(p0, p1, base)

    def test_no_alert_below_floor(self):
        for p0 in GRID[::5]:
            for p1 in GRID[::5]:
                alert = evaluate_alert_rule(two_step(p0, p1), AlertRule())
                if alert is not None:
                    assert alert.p1 >= 0.2


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.001, 0.5))
def test_monotonicity_property(p0, p1, bump):
    rule = AlertRule()
    if evaluate_alert_rule(two_step(p0, p1), rule) is not None:
        assert evaluate_alert_rule(two_step(p0, min(p1 + bump, 1.0 - 1e-9)), rule) is not None


class TestCohort:
    def _series_with_two_crossings(self):
        return risk_series([0.1] + [0.5] * 30 + [0.9] * 30,
                           [12.0] + list(np.linspace(12.1, 17.0, 30))
                           + list(np.linspace(17.1, 23.0, 30)))

    def test_first_alert_only(self):
        rule = AlertRule(min_new_events=0)
        series = self._series_with_two_crossings()
        cohort = select_alert_cohort([("e", series)], rule)
        assert len(cohort) == 1
        assert cohort[0].p1 == 0.5

    def test_all_alerts_mode(self):
        rule = AlertRule(min_new_events=0, first_alert_only=False)
        series = self._series_with_two_crossings()
        cohort = select_alert_cohort([("e", series)], rule)
        assert len(cohort) > 1

    def test_min_new_events_boundary(self):
        def series(n_new):
            times = [12.0] + list(np.linspace(12.05, 13.95, n_new))
            return risk_series([0.1] + [0.9] * n_new, times)

        rule = AlertRule()
        assert select_alert_cohort([("a", series(39))], rule) == []
        cohort = select_alert_cohort([("a", series(40))], rule)
        assert len(cohort) == 1 and cohort[0].new_event_count == 40

    def test_short_episodes_skipped(self):
        rule = AlertRule(min_new_events=0)
        short = risk_series([0.9], [20.0])  # nothing at or before the anchor
        ok = two_step(0.1, 0.9)
        cohort = select_alert_cohort([("short", short), ("ok", ok)], rule)
        assert [a.episode_id for a in cohort] == ["ok"]

    def test_empty_cohort(self):
        rule = AlertRule()
        cohort = select_alert_cohort([("e", two_step(0.2, 0.21))], rule)
        assert cohort == []

    def test_sorted_and_deterministic(self):
        rule = AlertRule(min_new_events=0)
        items = [("b", two_step(0.1, 0.9)), ("a", two_step(0.1, 0.9))]
        cohort = select_alert_cohort(items, rule)
        assert [a.episode_id for a in cohort] == ["a", "b"]
        assert cohort == select_alert_cohort(items, rule)


class TestRuleValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AlertRule(ratio_threshold=1.0)
        with pytest.raises(ValueError):
            AlertRule(floor=0.0)
        with pytest.raises(ValueError):
            AlertRule(anchor_time=10 * H, horizon=9 * H)
        with pytest.raises(ValueError):
            AlertRule(check_interval=0.0)

    def test_more_than_2_pow_53_checks_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            AlertRule(check_interval=12 * H / 2.0**54)
        AlertRule(check_interval=12 * H / 2.0**52)


def every_check_alerts(risk, rule):
    """The alerts of visiting every check anchor + k * interval up to the
    horizon in turn: the reference the step-skipping loop must match."""
    eps = 1e-9
    anchor_idx = _step_at_or_before(risk.step_time, rule.anchor_time)
    p0 = float(risk.p[anchor_idx])
    threshold = max(rule.floor, rule.ratio_threshold * p0)
    seen, out, k = set(), [], 1
    while rule.anchor_time + k * rule.check_interval <= rule.horizon + eps:
        j = _step_at_or_before(risk.step_time, rule.anchor_time + k * rule.check_interval)
        if j > anchor_idx and j not in seen and risk.p[j] >= threshold:
            seen.add(j)
            out.append(Alert("e", anchor_idx + 1, j + 1, float(risk.step_time[anchor_idx]),
                             float(risk.step_time[j]), p0, float(risk.p[j]), j - anchor_idx))
        k += 1
    return out


@st.composite
def alert_cases(draw):
    """A rule of at most 300 checks and a risk series with an anchor step.
    Step times fall on or within a few ulps of check times, or anywhere; the
    interval may be below the float spacing of the anchor time, where check
    times repeat."""
    anchor = draw(st.sampled_from([0.0, 1.0, 12 * H, 43199.99999999999]))
    interval = draw(st.one_of(st.floats(1e-13, 1e-9), st.floats(1e-3, 3 * H),
                              st.sampled_from([0.1, 1.0 / 3.0, 2 * H])))
    n_checks = draw(st.integers(1, 300))
    horizon = anchor + n_checks * interval + draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-10]))
    horizon = max(horizon, float(np.nextafter(anchor, np.inf)))
    grid = st.builds(lambda k, off: anchor + k * interval + off,
                     st.integers(0, n_checks + 2),
                     st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, 5e-12, -5e-12]))
    anywhere = st.floats(anchor - 2 * H, horizon + 2 * interval)
    times = sorted(draw(st.lists(st.one_of(grid, anywhere), min_size=1, max_size=40)))
    times[0] = min(times[0], anchor)  # the series has an anchor step
    p = draw(st.lists(st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.9]),
                      min_size=len(times), max_size=len(times)))
    rule = AlertRule(ratio_threshold=draw(st.sampled_from([1.5, 2.0, 3.0])), floor=0.2,
                     anchor_time=anchor, horizon=horizon, check_interval=interval,
                     min_new_events=0, first_alert_only=False)
    series = RiskSeries(p=np.array(p), logits=np.zeros(len(p)), step_time=np.array(times),
                        p_base=0.01)
    return series, rule


@given(alert_cases())
@example((risk_series([0.1, 0.9, 0.5, 0.95], [12.0, 13.0, 14.0 + 1e-9 / H, 15.0]), AlertRule()))
@example((RiskSeries(p=np.array([0.1, 0.5, 0.9]), logits=np.zeros(3),
                     step_time=np.array([43200.0, 43200.0 + 2**-38, 43200.0 + 2**-36]),
                     p_base=0.01),
          AlertRule(anchor_time=43200.0, horizon=43200.0 + 300e-13, check_interval=1e-13,
                    min_new_events=0, first_alert_only=False)))
def test_skipping_checks_yields_the_alerts_of_every_check(case):
    series, rule = case
    assert list(_iter_alerts(series, rule, "e")) == every_check_alerts(series, rule)


def test_interval_below_step_gaps_reaches_every_step():
    # 1e-9 h: 1.2e10 checks over 12 h, but at most one loop turn per step.
    times = np.array([11.0, 12.0, 12.5, 13.0, 20.0, 23.999, 24.0, 30.0]) * H
    series = risk_series([0.1, 0.1, 0.9, 0.05, 0.3, 0.15, 0.25, 0.9], times / H)
    rule = AlertRule(check_interval=1e-9 * H, min_new_events=0, first_alert_only=False)
    assert [a.t1 for a in _iter_alerts(series, rule, "e")] == [3, 5, 7]
