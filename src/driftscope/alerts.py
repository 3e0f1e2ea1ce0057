"""Alert rule over risk series and selection of the alerted cohort.

An anchor risk p0 is read at a fixed time after episode start; risk is then
re-read on a check schedule up to a horizon, and an alert fires at the first
check where risk reaches both the relative and the absolute threshold. Risk at
a wall-clock time is the last prediction at or before it (step-and-hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import RiskSeries

_TIME_EPS = 1e-9


class NoAnchorError(ValueError):
    """Risk series has no prediction at or before the anchor time."""


@dataclass(frozen=True)
class AlertRule:
    ratio_threshold: float = 1.5
    floor: float = 0.2
    anchor_time: float = 12 * 3600.0
    horizon: float = 24 * 3600.0
    check_interval: float = 2 * 3600.0
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
    anchor_idx = _step_at_or_before(risk.step_time, rule.anchor_time)
    if anchor_idx < 0:
        raise NoAnchorError(f"no anchor: no prediction at or before {rule.anchor_time} s")
    p0 = float(risk.p[anchor_idx])
    threshold = max(rule.floor, rule.ratio_threshold * p0)
    seen_steps: set[int] = set()
    k = 1
    while True:
        check = rule.anchor_time + k * rule.check_interval
        if check > rule.horizon + _TIME_EPS:  # checks up to and including the horizon
            break
        j = _step_at_or_before(risk.step_time, check)
        if j > anchor_idx and j not in seen_steps and risk.p[j] >= threshold:
            seen_steps.add(j)
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
        k += 1


def evaluate_alert_rule(risk: RiskSeries, rule: AlertRule, episode_id: str = "") -> Alert | None:
    """First alert of the episode under the rule, or None.

    The anchor risk p0 is the prediction at the last step at or before
    ``anchor_time``; an alert fires at the first check time whose risk is at
    least max(floor, ratio_threshold * p0).
    """
    return next(_iter_alerts(risk, rule, episode_id), None)


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
