"""Synthetic episode generator with machine-checkable ground truth.

Episodes stream lab-style scalar events for a catalog of two signal features
(creatinine, urine_rate) and stationary distractors. A configurable fraction
of episodes deteriorate: creatinine ramps up and/or urine rate drops below a
sustained-low threshold after a random onset. Noise is clipped so clean
episodes can never satisfy the injury criterion, and extra measurements are
scheduled through the deterioration so positive episodes always do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bin_stats import _distinct
from .events import SECONDS_PER_HOUR as HOUR, Events, EventSequence, FeatureCatalog

CREATININE = "creatinine"
URINE_RATE = "urine_rate"

# Injury criterion constants.
CREATININE_RISE = 0.3        # mg/dl within the lookback
CREATININE_LOOKBACK_H = 48.0
URINE_THRESHOLD = 25.0       # ml/h
URINE_SUSTAIN_H = 6.0

# Checkpoints fall at every multiple of this interval after episode start.
CHECKPOINT_INTERVAL_H = 3.0

# Deterioration shape. Onsets are uniform in [ONSET_LOW_H, ONSET_HIGH_H). The
# extra measurements at onset+1h and onset+7h make the injury criterion
# provably reachable by onset+7h: the creatinine rise between them is at least
# ramp*6 - 2*clip >= 0.3, and the urine run spans 6 h.
ONSET_LOW_H = 12.0
ONSET_HIGH_H = 22.0
_CR_RAMP_PER_HOUR = 0.15     # mg/dl per hour after onset
_CR_RAMP_CAP = 1.8
_CR_EXTRA_OFFSETS_H = (1.0, 7.0)
_URINE_LOW = 15.0
_URINE_LOW_SD = 3.0
_URINE_LOW_CLIP = 8.0
_URINE_EXTRA_OFFSETS_H = (1.0, 7.0)


@dataclass(frozen=True)
class FeatureSpec:
    """Sampling-rate and noise parameters of one synthetic feature."""

    name: str
    baseline: float
    noise_sd: float
    noise_clip: float  # hard bound on |noise|, keeps clean episodes clean
    mean_gap_hours: float


FEATURES = (
    FeatureSpec(CREATININE, baseline=1.0, noise_sd=0.04, noise_clip=0.1, mean_gap_hours=5.0),
    FeatureSpec(URINE_RATE, baseline=60.0, noise_sd=8.0, noise_clip=20.0, mean_gap_hours=3.0),
    FeatureSpec("heart_rate", 80.0, 8.0, 24.0, 1.5),
    FeatureSpec("resp_rate", 16.0, 2.0, 6.0, 2.0),
    FeatureSpec("temperature", 37.0, 0.3, 0.9, 2.5),
    FeatureSpec("sodium", 140.0, 2.0, 6.0, 3.0),
    FeatureSpec("potassium", 4.1, 0.25, 0.7, 3.0),
    FeatureSpec("glucose", 110.0, 15.0, 40.0, 2.0),
    FeatureSpec("hemoglobin", 11.0, 0.7, 2.0, 3.5),
    FeatureSpec("platelets", 220.0, 25.0, 70.0, 3.5),
)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    n_episodes: int = 100
    deterioration_fraction: float = 0.5
    duration_hours: float = 36.0

    def __post_init__(self):
        if not math.isfinite(self.duration_hours):
            raise ValueError("duration_hours must be finite")
        if self.n_episodes < 0:
            raise ValueError("n_episodes must be non-negative")
        if not 0.0 <= self.deterioration_fraction <= 1.0:
            raise ValueError("deterioration_fraction must be in [0, 1]")
        if ONSET_HIGH_H >= self.duration_hours:
            raise ValueError("onset must fall inside the episode duration")

    def catalog(self) -> FeatureCatalog:
        return FeatureCatalog.from_ids([f.name for f in FEATURES])


def _clipped_noise(rng: np.random.Generator, sd: float, clip: float, size: int) -> np.ndarray:
    return np.clip(rng.normal(0.0, sd, size=size), -clip, clip)


def _split_for_index(index: int) -> str:
    r = index % 10
    if r == 8:
        return "validation"
    if r == 9:
        return "test"
    return "train"


def _deterioration(config: ScenarioConfig, rng: np.random.Generator):
    """The leading draws of an episode's stream: whether it deteriorates, then
    for one that does its onset in hours and its mechanism; (None, None) for
    one that does not."""
    if not rng.random() < config.deterioration_fraction:
        return None, None
    onset_h = float(rng.uniform(ONSET_LOW_H, ONSET_HIGH_H))
    return onset_h, ("creatinine", "urine", "both")[int(rng.integers(3))]


def generate_patient(config: ScenarioConfig, index: int) -> EventSequence:
    """Deterministic episode for (config.seed, index).

    Deteriorating episodes draw an onset uniform in [ONSET_LOW_H, ONSET_HIGH_H)
    and a mechanism among creatinine-only, urine-only, or both; the affected
    features get extra measurements through the deterioration so the injury
    criterion is guaranteed to fire. The episode outcome is the deterioration flag.
    """
    if not 0 <= index < config.n_episodes:
        raise ValueError(f"index must be in [0, {config.n_episodes})")
    rng = np.random.default_rng([config.seed, index])
    onset_h, mechanism = _deterioration(config, rng)
    deteriorated = onset_h is not None
    cr_hit = mechanism in ("creatinine", "both")
    urine_hit = mechanism in ("urine", "both")

    times, values = [], []
    for spec in FEATURES:
        t_h = []
        t = float(rng.exponential(spec.mean_gap_hours))
        while t <= config.duration_hours:
            t_h.append(t)
            t += float(rng.exponential(spec.mean_gap_hours))
        if deteriorated:
            if spec.name == CREATININE and cr_hit:
                t_h.extend(onset_h + o for o in _CR_EXTRA_OFFSETS_H
                           if onset_h + o <= config.duration_hours)
            if spec.name == URINE_RATE and urine_hit:
                t_h.extend(onset_h + o for o in _URINE_EXTRA_OFFSETS_H
                           if onset_h + o <= config.duration_hours)
        th = np.sort(np.array(t_h, dtype=float))
        noise = _clipped_noise(rng, spec.noise_sd, spec.noise_clip, len(th))
        v = spec.baseline + noise
        if deteriorated:
            after = th >= onset_h
            if spec.name == CREATININE and cr_hit:
                v = np.where(after, v + np.minimum(_CR_RAMP_PER_HOUR * (th - onset_h),
                                                   _CR_RAMP_CAP), v)
            elif spec.name == URINE_RATE and urine_hit:
                low_noise = np.clip(noise * (_URINE_LOW_SD / spec.noise_sd),
                                    -_URINE_LOW_CLIP, _URINE_LOW_CLIP)
                v = np.where(after, _URINE_LOW + low_noise, v)
        times.append(th * HOUR)
        values.append(v)

    spec_index = np.repeat(np.arange(len(FEATURES)), [len(t) for t in times])
    time = np.concatenate(times)
    order = np.lexsort((spec_index, time))  # stable: a feature's own times stay in order
    names = np.array([spec.name for spec in FEATURES], dtype=object)
    return EventSequence(
        episode_id=f"ep{index:05d}",
        events=Events(time[order], names[spec_index[order]], np.concatenate(values)[order]),
        outcome=int(deteriorated),
        split=_split_for_index(index),
    )


def generate_corpus(config: ScenarioConfig) -> list[EventSequence]:
    return [generate_patient(config, i) for i in range(config.n_episodes)]


def episode_metadata(config: ScenarioConfig, index: int) -> dict:
    """Deterioration flag, onset, and mechanism of one episode.

    Makes the leading draws of generate_patient's stream, so it agrees with
    the generated sequence without regenerating it.
    """
    onset_h, mechanism = _deterioration(config, np.random.default_rng([config.seed, index]))
    return {"deteriorated": onset_h is not None,
            "onset_s": None if onset_h is None else onset_h * HOUR, "mechanism": mechanism}


def _labels(events: Events, ts: np.ndarray) -> np.ndarray:
    """``aki_label`` at each time in ``ts``, as a bool array."""
    cr = events.feature == CREATININE
    t_cr, v_cr = events.time[cr], events.value[cr]
    # Events are time-sorted, so each lookback window (t - 48 h, t] is a slice.
    starts = np.searchsorted(t_cr, ts - CREATININE_LOOKBACK_H * HOUR, side="right").tolist()
    ends = np.searchsorted(t_cr, ts, side="right").tolist()
    creatinine = [b - a > 1 and bool((v_cr[a + 1 : b] - np.minimum.accumulate(v_cr[a : b - 1])
                                      >= CREATININE_RISE).any())
                  for a, b in zip(starts, ends)]

    ur = events.feature == URINE_RATE
    t_ur, low = events.time[ur], events.value[ur] < URINE_THRESHOLD
    # The run starts after the last at-threshold observation at or before t.
    seen = np.searchsorted(t_ur, ts, side="right")
    last_high = np.maximum.accumulate(np.where(low, -1, np.arange(len(low))))
    run_start = np.concatenate(([-1], last_high))[seen] + 1
    run_time = np.append(t_ur, 0.0)[np.minimum(run_start, len(t_ur))]
    urine = (seen - run_start >= 2) & (ts - run_time >= URINE_SUSTAIN_H * HOUR - 1e-9)
    return np.asarray(creatinine, dtype=bool) | urine


def aki_label(seq: EventSequence, t: float) -> bool:
    """Injury state at time t (seconds), from raw values.

    True when creatinine shows a time-ordered rise of at least 0.3 mg/dl within
    the past 48 h, or when urine rate has been below 25 ml/h for at least 6 h:
    the run of consecutive sub-threshold urine observations ending at the last
    observation at or before t must have two or more members and start at least
    6 h before t, with no at-threshold observation inside it.
    """
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return bool(_labels(seq.events, np.array([t], dtype=float))[0])


def first_positive_checkpoint(seq: EventSequence) -> float | None:
    """Earliest checkpoint (multiple of CHECKPOINT_INTERVAL_H) at which the
    label is positive, scanning to the last event; None when never positive.

    The label is negative before the first creatinine or urine-rate event and
    can change only at such an event, when a creatinine event leaves the
    lookback and when a urine run reaches the sustain time. So the first
    positive checkpoint is the first one at or after one of these changes;
    only those are labelled, with a checkpoint of margin on either side for
    float rounding. The time taken follows the number of events, not the
    time of the last one.
    """
    events = seq.events
    step = CHECKPOINT_INTERVAL_H * HOUR
    t_cr = events.time[events.feature == CREATININE]
    t_ur = events.time[events.feature == URINE_RATE]
    changes = np.concatenate((t_cr, t_cr + CREATININE_LOOKBACK_H * HOUR,
                              t_ur, t_ur + (URINE_SUSTAIN_H * HOUR - 1e-9)))
    # Float indices: for a late enough event, they pass the int64 range.
    k = np.ceil(changes / step)[:, None] + (-1.0, 0.0, 1.0)
    checkpoints = _distinct(np.sort(np.maximum(k, 1.0), axis=None)) * step
    checkpoints = checkpoints[checkpoints <= events.time[-1] + step]
    positive = np.flatnonzero(_labels(events, checkpoints))
    return float(checkpoints[positive[0]]) if len(positive) else None


def ground_truth_set(seq: EventSequence, t0: int, t1: int) -> set[tuple[int, str]]:
    """All steps in (t0, t1] carrying a creatinine or urine-rate value.

    Steps are 1-based and align one-to-one with the episode's events. An empty
    set means the window has no correct answer and must be excluded from
    precision aggregation.
    """
    if not 0 <= t0 <= t1 <= len(seq.events):
        raise ValueError(f"invalid window ({t0}, {t1}] for {len(seq.events)} events")
    feature = seq.events.feature[t0:t1]
    signal = np.flatnonzero((feature == CREATININE) | (feature == URINE_RATE))
    return set(zip((signal + t0 + 1).tolist(), feature[signal]))
