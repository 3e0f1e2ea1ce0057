"""Event-stream data model: parsing, normalization, and per-step encoding.

Episodes are irregular streams of (time, feature, value) observations. The
model-facing encoding carries one event per step: value channels, presence
indicators, and a log-compressed delta-time channel. Step indices are 1-based
throughout the public API; array index ``j`` holds step ``j + 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

SPLITS = ("train", "validation", "test")

SECONDS_PER_HOUR = 3600.0


class EventFormatError(ValueError):
    """Malformed or inconsistent event-log input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Event:
    """One timestamped observation of a single feature, in native units."""

    time: float
    feature: str
    value: float

    def __post_init__(self):
        if self.time < 0:
            raise EventFormatError(f"negative time {self.time} for feature {self.feature!r}")


@dataclass(frozen=True)
class EventSequence:
    """Time-ordered events of one episode with its binary outcome label."""

    episode_id: str
    events: tuple[Event, ...]
    outcome: int
    split: str

    def __post_init__(self):
        if not self.events:
            raise EventFormatError(f"episode {self.episode_id!r} has no events")
        if self.split not in SPLITS:
            raise EventFormatError(f"unknown split {self.split!r}")
        if self.outcome not in (0, 1):
            raise EventFormatError(f"outcome must be 0 or 1, got {self.outcome!r}")
        times = [e.time for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise EventFormatError(f"episode {self.episode_id!r} events not time-sorted")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class FeatureCatalog:
    """Fixed, ordered feature whitelist; ordering defines channel layout."""

    entries: tuple[tuple[str, str], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [fid for fid, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate feature identifiers in catalog")
        object.__setattr__(self, "_index", {fid: i for i, fid in enumerate(ids)})

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "FeatureCatalog":
        return cls(tuple((fid, fid) for fid in ids))

    @property
    def d_features(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(fid for fid, _ in self.entries)

    def __contains__(self, feature: str) -> bool:
        return feature in self._index

    def index(self, feature: str) -> int:
        try:
            return self._index[feature]
        except KeyError:
            raise KeyError(f"unknown feature identifier {feature!r}") from None


@dataclass(frozen=True)
class FeatureStat:
    """Clamp-then-z-score parameters for one feature, fitted on train data."""

    mean: float
    std: float
    lo: float
    hi: float
    degenerate: bool  # fewer than two distinct clamped values


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature normalization stats; features absent from train are missing."""

    by_feature: dict[str, FeatureStat]

    def normalize_value(self, feature: str, value: float) -> float:
        st = self.by_feature.get(feature)
        if st is None or st.degenerate:
            return 0.0
        clamped = min(max(value, st.lo), st.hi)
        return (clamped - st.mean) / st.std

    def to_json(self) -> dict:
        return {
            fid: {"mean": s.mean, "std": s.std, "lo": s.lo, "hi": s.hi, "degenerate": s.degenerate}
            for fid, s in self.by_feature.items()
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FeatureStats":
        """Read stats as ``to_json`` writes them. Raises ValueError unless each
        feature has finite ``mean``, ``std``, ``lo`` and ``hi`` with lo <= hi,
        a bool ``degenerate``, and std > 0 unless degenerate."""
        by_feature = {}
        for fid, d in payload.items():
            st = FeatureStat(d["mean"], d["std"], d["lo"], d["hi"], d["degenerate"])
            numbers = (st.mean, st.std, st.lo, st.hi)
            if not (all(type(v) in (int, float) and math.isfinite(v) for v in numbers)
                    and st.lo <= st.hi and type(st.degenerate) is bool
                    and (st.degenerate or st.std > 0)):
                raise ValueError(f"stats of {fid!r} need finite mean, std, lo <= hi, a bool "
                                 f"degenerate, and std > 0 unless degenerate")
            by_feature[fid] = st
        return cls(by_feature)


@dataclass(frozen=True)
class StepSeries:
    """Model-facing encoding: one event per step.

    ``x`` has shape (T, d) with d = 2 * d_features + 1: value channels first,
    then presence indicators, then the delta-time channel log(1 + dt_hours).
    ``step_raw`` carries the pre-normalization value for display.
    """

    x: np.ndarray
    step_feature: np.ndarray
    step_time: np.ndarray
    step_raw: np.ndarray
    d_features: int

    def __post_init__(self):
        T, d = self.x.shape
        if d != 2 * self.d_features + 1:
            raise ValueError(f"input dim {d} inconsistent with {self.d_features} features")
        ind = self.x[:, self.d_features : 2 * self.d_features]
        if T and not np.allclose(ind.sum(axis=1), 1.0):
            raise ValueError("each step must have exactly one active indicator")
        if np.any(np.diff(self.step_time) < 0):
            raise ValueError("step_time must be non-decreasing")

    @property
    def T(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _coerce_lines(stream: str | Iterable[str]) -> Iterator[str]:
    if isinstance(stream, str):
        return iter(stream.splitlines())
    return iter(stream)


_REQUIRED_KEYS = ("episode", "time_s", "feature", "value", "outcome", "split")


def parse_event_log(
    stream: str | Iterable[str], catalog: FeatureCatalog | None = None
) -> list[EventSequence]:
    """Parse a JSONL event log into per-episode sequences.

    Episodes appear in first-occurrence order; events are sorted by time with
    ties broken by catalog order, then input order. When ``catalog`` is given,
    records naming features outside it are rejected; otherwise a catalog over
    the sorted set of observed identifiers is derived for tie-breaking.
    """
    raw: dict[str, list[tuple[float, str, float, int]]] = {}
    meta: dict[str, tuple[int, str]] = {}
    seen_features: set[str] = set()
    for lineno, line in enumerate(_coerce_lines(stream), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventFormatError(f"invalid JSON ({exc.msg})", line=lineno) from None
        if not isinstance(rec, dict):
            raise EventFormatError("record is not an object", line=lineno)
        for key in _REQUIRED_KEYS:
            if key not in rec:
                raise EventFormatError(f"missing key {key!r}", line=lineno)
        episode, feature = rec["episode"], rec["feature"]
        if not isinstance(episode, str) or not isinstance(feature, str):
            raise EventFormatError("episode and feature must be strings", line=lineno)
        try:
            time_s = float(rec["time_s"])
            value = float(rec["value"])
        except (TypeError, ValueError):
            raise EventFormatError("time_s and value must be numbers", line=lineno) from None
        if not (math.isfinite(time_s) and math.isfinite(value)):
            raise EventFormatError("time_s and value must be finite", line=lineno)
        if time_s < 0:
            raise EventFormatError(f"negative time {time_s}", line=lineno)
        if rec["outcome"] not in (0, 1):
            raise EventFormatError(f"outcome must be 0 or 1, got {rec['outcome']!r}", line=lineno)
        if rec["split"] not in SPLITS:
            raise EventFormatError(f"unknown split {rec['split']!r}", line=lineno)
        if catalog is not None and feature not in catalog:
            raise EventFormatError(f"unknown feature identifier {feature!r}", line=lineno)
        outcome, split = int(rec["outcome"]), rec["split"]
        if episode in meta:
            if meta[episode] != (outcome, split):
                raise EventFormatError(
                    f"episode {episode!r} has conflicting outcome/split", line=lineno
                )
        else:
            meta[episode] = (outcome, split)
            raw[episode] = []
        seen_features.add(feature)
        raw[episode].append((time_s, feature, value, lineno))

    if catalog is None:
        catalog = FeatureCatalog.from_ids(sorted(seen_features))

    sequences = []
    for episode, recs in raw.items():
        # Stable sort keeps input order for (time, feature) ties.
        recs.sort(key=lambda r: (r[0], catalog.index(r[1])))
        outcome, split = meta[episode]
        events = tuple(Event(time=t, feature=f, value=v) for t, f, v, _ in recs)
        sequences.append(EventSequence(episode, events, outcome, split))
    return sequences


def write_event_log(fh: TextIO, sequences: Sequence[EventSequence]) -> None:
    """Write sequences to an open text file in the JSONL event format."""
    for seq in sequences:
        for e in seq.events:
            fh.write(
                json.dumps(
                    {
                        "episode": seq.episode_id,
                        "time_s": e.time,
                        "feature": e.feature,
                        "value": e.value,
                        "outcome": seq.outcome,
                        "split": seq.split,
                    }
                )
                + "\n"
            )


def catalog_from_sequences(sequences: Iterable[EventSequence]) -> FeatureCatalog:
    """Derive a deterministic catalog: sorted unique feature identifiers."""
    ids = sorted({e.feature for seq in sequences for e in seq.events})
    return FeatureCatalog.from_ids(ids)


def fit_feature_stats(corpus: Sequence[EventSequence]) -> FeatureStats:
    """Fit clamp quantiles and moments per feature over train-split values.

    Values are clamped to the [1st, 99th] percentile before computing mean and
    std. Percentiles use order statistics (lower/higher) so small samples are
    unaffected by clamping. Features with fewer than two distinct clamped
    values are flagged degenerate and normalize to 0.
    """
    train = [seq for seq in corpus if seq.split == "train"]
    if not train:
        raise ValueError("corpus contains no train-split sequences")
    values: dict[str, list[float]] = {}
    for seq in train:
        for e in seq.events:
            values.setdefault(e.feature, []).append(e.value)
    by_feature = {}
    for fid, vals in values.items():
        arr = np.asarray(vals, dtype=float)
        lo = float(np.percentile(arr, 1, method="lower"))
        hi = float(np.percentile(arr, 99, method="higher"))
        clamped = np.clip(arr, lo, hi)
        mean = float(clamped.mean())
        std = float(clamped.std())
        by_feature[fid] = FeatureStat(mean, std, lo, hi, degenerate=std < 1e-12)
    return FeatureStats(by_feature)


def encode_steps(seq: EventSequence, catalog: FeatureCatalog, stats: FeatureStats) -> StepSeries:
    """Encode a sequence as one step per event.

    Value channels hold ``stats.normalize_value`` of each value; ``step_raw``
    keeps the value itself for display. The delta-time channel is
    log(1 + dt / 3600) with dt the seconds since the previous step (since
    episode start for step 1).
    """
    T = len(seq.events)
    d_f = catalog.d_features
    x = np.zeros((T, 2 * d_f + 1), dtype=float)
    step_feature = np.empty(T, dtype=np.int64)
    step_time = np.empty(T, dtype=float)
    step_raw = np.empty(T, dtype=float)
    prev_time = 0.0
    for j, e in enumerate(seq.events):
        i = catalog.index(e.feature)
        x[j, i] = stats.normalize_value(e.feature, e.value)
        x[j, d_f + i] = 1.0
        x[j, 2 * d_f] = math.log1p((e.time - prev_time) / SECONDS_PER_HOUR)
        step_feature[j] = i
        step_time[j] = e.time
        step_raw[j] = e.value
        prev_time = e.time
    return StepSeries(x=x, step_feature=step_feature, step_time=step_time,
                      step_raw=step_raw, d_features=d_f)

