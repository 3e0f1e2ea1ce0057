"""Alert rule over risk series and selection of the alerted cohort.

An anchor risk p0 is read at a fixed time after episode start; risk is then
re-read on a check schedule up to a horizon, and an alert fires at the first
check where risk reaches both the relative and the absolute threshold. Risk at
a wall-clock time is the last prediction at or before it (step-and-hold).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .events import SECONDS_PER_HOUR
from .model import RiskSeries

_TIME_EPS = 1e-9


class NoAnchorError(ValueError):
    """Risk series has no prediction at or before the anchor time."""


@dataclass(frozen=True)
class AlertRule:
    ratio_threshold: float = 1.5
    floor: float = 0.2
    anchor_time: float = 12 * SECONDS_PER_HOUR
    horizon: float = 24 * SECONDS_PER_HOUR
    check_interval: float = 2 * SECONDS_PER_HOUR
    min_new_events: int = 40
    first_alert_only: bool = True

    def __post_init__(self):
        for name in ("ratio_threshold", "anchor_time", "horizon", "check_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be > 1")
        if not 0.0 < self.floor < 1.0:
            raise ValueError("floor must be in (0, 1)")
        if self.anchor_time >= self.horizon:
            raise ValueError("anchor_time must be before horizon")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if (self.horizon - self.anchor_time) / self.check_interval > 2.0 ** 53:
            raise ValueError("check_interval is too small: more than 2**53 checks "
                             "before the horizon")
        if self.min_new_events < 0:
            raise ValueError("min_new_events must be non-negative")


@dataclass(frozen=True)
class Alert:
    episode_id: str
    t0: int       # anchor step, 1-based
    t1: int       # alerting step, 1-based
    t0_time: float
    t1_time: float
    p0: float
    p1: float
    new_event_count: int


def _step_at_or_before(step_time: np.ndarray, when: float) -> int:
    """0-based index of the last step with time <= when, or -1."""
    return int(np.searchsorted(step_time, when + _TIME_EPS, side="right")) - 1


def _iter_alerts(risk: RiskSeries, rule: AlertRule, episode_id: str):
    """The alerts of the checks anchor + k * interval (k = 1, 2, ...) up to the
    horizon, each at the first check that reaches its step. Checks that reach
    no new step are skipped, not visited, so the loop runs at most once per
    step however many checks the rule makes."""
    anchor_idx = _step_at_or_before(risk.step_time, rule.anchor_time)
    if anchor_idx < 0:
        raise NoAnchorError(f"no anchor: no prediction at or before {rule.anchor_time} s")
    p0 = float(risk.p[anchor_idx])
    threshold = max(rule.floor, rule.ratio_threshold * p0)
    k = 1
    while True:
        check = rule.anchor_time + k * rule.check_interval
        if check > rule.horizon + _TIME_EPS:  # checks up to and including the horizon
            break
        j = _step_at_or_before(risk.step_time, check)
        if j > anchor_idx and risk.p[j] >= threshold:
            yield Alert(
                episode_id=episode_id,
                t0=anchor_idx + 1,
                t1=j + 1,
                t0_time=float(risk.step_time[anchor_idx]),
                t1_time=float(risk.step_time[j]),
                p0=p0,
                p1=float(risk.p[j]),
                new_event_count=j - anchor_idx,
            )
        if j + 1 == risk.T:  # every later check reads this last step again
            break
        k = _next_check(rule, k, float(risk.step_time[j + 1]))


def _next_check(rule: AlertRule, k: int, when: float) -> int:
    """The first check after check k whose step-and-hold read reaches a step
    at time ``when``, or that is past the horizon; check k does neither.

    Check times never fall as k grows, so once a check meets either condition
    every later one does: the first is bracketed by doubling steps, then
    bisected, each probe computing the check time as the loop above does. An
    estimate from (when - anchor) / interval could miss it by many checks when
    the interval is below the float spacing of the check times.
    """
    def done(n: int) -> bool:
        check = rule.anchor_time + n * rule.check_interval
        return check + _TIME_EPS >= when or check > rule.horizon + _TIME_EPS

    lo, hi = k, k + 1
    while not done(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), True, key=done)


def evaluate_alert_rule(risk: RiskSeries, rule: AlertRule) -> Alert | None:
    """First alert of the episode under the rule, or None; its ``episode_id`` is empty.

    The anchor risk p0 is the prediction at the last step at or before
    ``anchor_time``; an alert fires at the first check time whose risk is at
    least max(floor, ratio_threshold * p0).
    """
    return next(_iter_alerts(risk, rule, ""), None)


def select_alert_cohort(
    episodes: Iterable[tuple[str, RiskSeries]], rule: AlertRule
) -> list[Alert]:
    """Alerts over a cohort: first alert per episode (unless configured
    otherwise), dropping alerts with fewer than ``min_new_events`` steps in
    (t0, t1]. Episodes too short to have an anchor are skipped. Output is
    sorted by episode id."""
    out: list[Alert] = []
    for episode_id, risk in episodes:
        try:
            alerts = _iter_alerts(risk, rule, episode_id)
            if rule.first_alert_only:
                first = next(alerts, None)
                found = [first] if first is not None else []
            else:
                found = list(alerts)
        except NoAnchorError:
            continue
        for alert in found:
            if alert.new_event_count >= rule.min_new_events:
                out.append(alert)
    out.sort(key=lambda a: (a.episode_id, a.t1))
    return out
