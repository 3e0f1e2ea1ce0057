"""Event-stream data model: parsing, normalization, and per-step encoding.

Episodes are irregular streams of (time, feature, value) observations. The
model-facing encoding carries one event per step: value channels, presence
indicators, and a log-compressed delta-time channel. Step indices are 1-based
throughout the public API; array index ``j`` holds step ``j + 1``.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

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


class Events:
    """One episode's events as three aligned arrays, in time order: ``time``
    (seconds since episode start), ``feature`` (identifier strings, an object
    array) and ``value`` (native units). Times must be finite and
    non-negative, values finite. Two instances are equal when their arrays are."""

    def __init__(self, time, feature, value):
        self.time = np.asarray(time, dtype=float)
        self.feature = np.asarray(feature, dtype=object)
        self.value = np.asarray(value, dtype=float)
        if not (self.time.ndim == self.feature.ndim == self.value.ndim == 1
                and len(self.time) == len(self.feature) == len(self.value)):
            raise ValueError("time, feature and value must be 1-D arrays of one length")
        if not (np.all(np.isfinite(self.time)) and np.all(np.isfinite(self.value))):
            raise EventFormatError("event times and values must be finite")
        if len(self.time) and self.time.min() < 0:
            j = int(np.argmax(self.time < 0))
            raise EventFormatError(f"negative time {self.time[j]} for feature {self.feature[j]!r}")

    def __len__(self) -> int:
        return len(self.time)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return (np.array_equal(self.time, other.time) and np.array_equal(self.value, other.value)
                and np.array_equal(self.feature, other.feature))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Events(time={self.time!r}, feature={self.feature!r}, value={self.value!r})"


@dataclass(frozen=True)
class EventSequence:
    """Time-ordered events of one episode with its binary outcome label."""

    episode_id: str
    events: Events
    outcome: int
    split: str

    def __post_init__(self):
        if not len(self.events):
            raise EventFormatError(f"episode {self.episode_id!r} has no events")
        if self.split not in SPLITS:
            raise EventFormatError(f"unknown split {self.split!r}")
        if self.outcome not in (0, 1):
            raise EventFormatError(f"outcome must be 0 or 1, got {self.outcome!r}")
        if np.any(self.events.time[1:] < self.events.time[:-1]):
            raise EventFormatError(f"episode {self.episode_id!r} events not time-sorted")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class FeatureCatalog:
    """Fixed, ordered feature whitelist; ordering defines channel layout."""

    ids: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate feature identifiers in catalog")
        object.__setattr__(self, "_index", {fid: i for i, fid in enumerate(self.ids)})

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "FeatureCatalog":
        return cls(tuple(ids))

    @property
    def d_features(self) -> int:
        return len(self.ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._index

    def indices(self, features: Sequence[str]) -> np.ndarray:
        """The channel index of each identifier, as an int64 array."""
        try:
            return np.fromiter(map(self._index.__getitem__, features), np.int64, len(features))
        except KeyError as exc:
            raise KeyError(f"unknown feature identifier {exc.args[0]!r}") from None


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

    def normalize_values(self, ids: Sequence[str], index: np.ndarray,
                         value: np.ndarray) -> np.ndarray:
        """``normalize_value(ids[index[j]], value[j])`` for every j, bit for bit."""
        sts = [self.by_feature.get(fid) for fid in ids]
        active = np.array([st is not None and not st.degenerate for st in sts], dtype=bool)
        lo, hi, mean, std = np.array([(st.lo, st.hi, st.mean, st.std) if on
                                      else (-math.inf, math.inf, 0.0, 1.0)
                                      for st, on in zip(sts, active)], dtype=float)[index].T
        clamped = np.where(lo > value, lo, value)  # max(value, lo), min(., hi): ties keep
        clamped = np.where(hi < clamped, hi, clamped)  # the first argument, as they do
        return np.where(active[index], (clamped - mean) / std, 0.0)

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
    """Model-facing encoding: one event per step, stored as columns.

    The model reads each step as a row of d = 2 * d_features + 1 inputs:
    value channels first, then presence indicators, then the delta-time
    channel log(1 + dt_hours). Only three entries of a row are not zero, so
    a series keeps per step its feature's catalog index ``step_feature``, the
    normalized value ``step_value`` (that feature's value channel) and
    ``step_log_dt`` (the delta-time channel); ``rows`` writes the dense rows.
    ``step_raw`` carries the pre-normalization value for display.
    """

    step_feature: np.ndarray
    step_value: np.ndarray
    step_log_dt: np.ndarray
    step_time: np.ndarray
    step_raw: np.ndarray
    d_features: int

    def __post_init__(self):
        columns = (self.step_feature, self.step_value, self.step_log_dt, self.step_time,
                   self.step_raw)
        if not all(c.ndim == 1 and len(c) == len(self.step_feature) for c in columns):
            raise ValueError("step columns must be 1-D arrays of one length")
        if len(self.step_feature) and not (0 <= self.step_feature.min()
                                           and self.step_feature.max() < self.d_features):
            raise ValueError(f"step features must be in [0, {self.d_features})")
        if np.any(self.step_time[1:] < self.step_time[:-1]):
            raise ValueError("step_time must be non-decreasing")

    @property
    def T(self) -> int:
        return len(self.step_feature)

    @property
    def d(self) -> int:
        return 2 * self.d_features + 1

    def rows(self, t0: int, t1: int, out: np.ndarray | None = None) -> np.ndarray:
        """The dense inputs (t1 - t0, d) of the steps (t0, t1], written into
        ``out`` when given (any array of that shape, views included) and
        into a new array otherwise; returns the array written."""
        if out is None:
            out = np.zeros((t1 - t0, self.d))
        else:
            out[...] = 0.0
        at, feature = np.arange(t1 - t0), self.step_feature[t0:t1]
        out[at, feature] = self.step_value[t0:t1]
        out[at, self.d_features + feature] = 1.0
        out[:, -1] = self.step_log_dt[t0:t1]
        return out

    @functools.cached_property
    def x(self) -> np.ndarray:
        """All T dense rows, built on first use and kept; the package itself
        reads only ``rows``."""
        return self.rows(0, self.T)


# Lines decoded together; each block becomes arrays before the next is read.
# A block's lines and split strings are garbage once it is decoded, and the
# allocator keeps much of what a larger block took: at 4,096 lines, parsing a
# 36k-line log left 5.5-6.0 MB more resident, against 2.4 MB at 512.
_BLOCK_LINES = 512

# A line exactly as write_event_log writes it, with no escape in either string
# and both numbers written as floats (a fraction or an exponent), then the
# block separator. Such a line decodes to what the regex captures: the string
# contents as they stand, and float() of each number as json.loads gives it.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_SEPARATOR = "\x1e"  # a control character, so never inside a valid line
_REGULAR_LINE = re.compile(
    r'\{"episode": ' + _STRING + r', "time_s": ' + _FLOAT + r', "feature": ' + _STRING
    + r', "value": ' + _FLOAT + r', "outcome": ([01]), "split": "(' + "|".join(SPLITS)
    + r')"\}\n?' + _SEPARATOR)
_GROUPS = 1 + _REGULAR_LINE.groups  # re.split's output per line: the gap before it, then its groups


class _LogColumns:
    """An event log read so far, as columns: per event the index of its
    episode and of its feature (both in order of first appearance), its time
    and its value, kept in input order, one array each per block."""

    def __init__(self, catalog: FeatureCatalog | None):
        self.catalog = catalog
        self.episodes: dict[str, int] = {}
        self.meta: list[int] = []  # per episode: 3 * outcome + index of its split
        self.features: dict[str, int] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def add_regular(self, lines: list[str], first_lineno: int) -> bool:
        """Decode and code a block if every line is a regular line (see
        ``_REGULAR_LINE``) with finite numbers and a non-negative time; else
        add nothing and return False."""
        try:
            text = _SEPARATOR.join(lines) + _SEPARATOR
        except TypeError:  # bytes lines, which json.loads also reads
            return False
        if text.count(_SEPARATOR) != len(lines):
            return False  # a line holds the separator
        parts = _REGULAR_LINE.split(text)
        if any(parts[::_GROUPS]):
            return False  # some text was not a regular line
        n = len(lines)
        time = np.fromiter(map(float, parts[2::_GROUPS]), float, n)
        value = np.fromiter(map(float, parts[4::_GROUPS]), float, n)
        if not (np.all(np.isfinite(value)) and np.all((time >= 0) & (time < math.inf))):
            return False
        meta = np.fromiter(map(_META_CODE.__getitem__, zip(parts[5::_GROUPS], parts[6::_GROUPS])),
                           np.intp, n)
        self._code(parts[1::_GROUPS], time, parts[3::_GROUPS], value, meta,
                   range(first_lineno, first_lineno + n))
        return True

    def add_lines(self, lines: list[str], first_lineno: int) -> None:
        """Read lines one at a time and code those before the first malformed
        line; then that line raises EventFormatError with its number."""
        rows = []
        try:
            for lineno, line in enumerate(lines, start=first_lineno):
                if line.strip():
                    rows.append((*_read_line(line, lineno), lineno))
        finally:  # an error that _code raises for an earlier line replaces a malformed line's
            if rows:
                self._code(*zip(*rows))

    def _code(self, episodes, time, features, value, meta, linenos) -> None:
        """Add decoded events: per event its episode and feature ids, time,
        value, outcome/split code and line number. The first line naming a
        feature outside the catalog, or an outcome/split other than its
        episode's first event's, raises EventFormatError, which ends the parse."""
        n, first_code = len(episodes), len(self.episodes)
        time, value = np.asarray(time, dtype=float), np.asarray(value, dtype=float)
        meta = np.asarray(meta, dtype=np.intp)
        new_episodes = [e for e in dict.fromkeys(episodes) if e not in self.episodes]
        self.episodes.update((e, first_code + i) for i, e in enumerate(new_episodes))
        episode = np.fromiter(map(self.episodes.__getitem__, episodes), np.intp, n)
        # New episodes take codes in order of first appearance, so an event
        # opens its episode where its code exceeds every code before it.
        opens = episode > np.maximum.accumulate(np.concatenate(([first_code - 1], episode[:-1])))
        known = np.concatenate((np.asarray(self.meta, dtype=np.intp), meta[opens]))
        new_features = [f for f in dict.fromkeys(features) if f not in self.features]
        outside = [f for f in new_features if self.catalog is not None and f not in self.catalog]
        # (index, rank, message) of each rule's first failure: outside[0] is the
        # first outside feature to appear, and on one line the catalog's ranks first
        failures = [(features.index(f), 0, f"unknown feature identifier {f!r}")
                    for f in outside[:1]]
        failures += [(i, 1, f"episode {episodes[i]!r} has conflicting outcome/split")
                     for i in np.flatnonzero(known[episode] != meta)[:1].tolist()]
        if failures:
            i, _, message = min(failures)
            raise EventFormatError(message, line=linenos[i])
        self.meta.extend(meta[opens].tolist())
        self.features.update({f: len(self.features) + i for i, f in enumerate(new_features)})
        feature = np.fromiter(map(self.features.__getitem__, features), np.intp, n)
        self.blocks.append((episode, time, feature, value))

    def sequences(self) -> list[EventSequence]:
        """One sequence per episode in order of first appearance; events by
        time, then catalog order, then input order."""
        if not self.episodes:
            return []
        episode, time, feature, value = (np.concatenate(c) for c in zip(*self.blocks))
        names = list(self.features)
        catalog = self.catalog or FeatureCatalog.from_ids(sorted(names))
        rank = catalog.indices(names)
        order = np.lexsort((rank[feature], time, episode))  # stable: ties keep input order
        time, value = time[order], value[order]
        feature = np.array(names, dtype=object)[feature[order]]
        ends = np.cumsum(np.bincount(episode, minlength=len(self.episodes))).tolist()
        return [EventSequence(eid, Events(time[a:b], feature[a:b], value[a:b]),
                              meta // 3, SPLITS[meta % 3])
                for eid, meta, a, b in zip(self.episodes, self.meta, [0, *ends], ends)]


_META_CODE = {(outcome, split): 3 * int(outcome) + i
              for outcome in "01" for i, split in enumerate(SPLITS)}


def _read_line(line: str, lineno: int) -> tuple[str, float, str, float, int]:
    """A record line's episode id, time, feature id, value and outcome/split code."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventFormatError(f"invalid JSON ({exc.msg})", line=lineno) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer; deep nesting
        raise EventFormatError(f"invalid JSON ({exc})", line=lineno) from None
    if not isinstance(rec, dict):
        raise EventFormatError("record is not an object", line=lineno)
    for key in ("episode", "time_s", "feature", "value", "outcome", "split"):
        if key not in rec:
            raise EventFormatError(f"missing key {key!r}", line=lineno)
    episode, feature = rec["episode"], rec["feature"]
    if not isinstance(episode, str) or not isinstance(feature, str):
        raise EventFormatError("episode and feature must be strings", line=lineno)
    try:
        time_s, value = float(rec["time_s"]), float(rec["value"])
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large
        raise EventFormatError("time_s and value must be finite numbers", line=lineno) from None
    if not (math.isfinite(time_s) and math.isfinite(value)):
        raise EventFormatError("time_s and value must be finite", line=lineno)
    if time_s < 0:
        raise EventFormatError(f"negative time {time_s}", line=lineno)
    if rec["outcome"] not in (0, 1):
        raise EventFormatError(f"outcome must be 0 or 1, got {rec['outcome']!r}", line=lineno)
    if rec["split"] not in SPLITS:
        raise EventFormatError(f"unknown split {rec['split']!r}", line=lineno)
    return episode, time_s, feature, value, 3 * int(rec["outcome"]) + SPLITS.index(rec["split"])


def parse_event_log(
    stream: str | Iterable[str], catalog: FeatureCatalog | None = None
) -> list[EventSequence]:
    """Parse a JSONL event log into per-episode sequences.

    Episodes appear in first-occurrence order; events are sorted by time with
    ties broken by catalog order, then input order. When ``catalog`` is given,
    records naming features outside it are rejected; otherwise a catalog over
    the sorted set of observed identifiers is derived for tie-breaking.

    A ``str`` is split into lines as a text file is read, at LF, CR and CRLF
    only: JSON strings may hold U+0085, U+2028 and U+2029 unescaped.
    Lines are read in blocks of ``_BLOCK_LINES``. A block of regular lines, as
    ``write_event_log`` writes them, is decoded as a whole into arrays; any
    other block is read line by line; one coder checks what both decode.
    """
    lines = iter(io.StringIO(stream, newline=None) if isinstance(stream, str) else stream)
    columns = _LogColumns(catalog)
    lineno = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        if not columns.add_regular(block, lineno):
            columns.add_lines(block, lineno)
        lineno += len(block)
    return columns.sequences()


def write_event_log(fh: TextIO, sequences: Sequence[EventSequence]) -> None:
    """Write sequences to an open text file in the JSONL event format: one
    line per event, as ``json.dumps`` writes the record."""
    for seq in sequences:
        ev = seq.events
        head = f'{{"episode": {json.dumps(seq.episode_id)}, "time_s": '
        tail = f', "outcome": {json.dumps(seq.outcome)}, "split": {json.dumps(seq.split)}}}\n'
        names = {f: json.dumps(f) for f in dict.fromkeys(ev.feature)}
        # repr(float) is how json.dumps writes a finite float
        fh.write("".join([f'{head}{t!r}, "feature": {names[f]}, "value": {v!r}{tail}'
                          for t, f, v in zip(ev.time.tolist(), ev.feature, ev.value.tolist())]))


def catalog_from_sequences(sequences: Iterable[EventSequence]) -> FeatureCatalog:
    """Derive a deterministic catalog: sorted unique feature identifiers."""
    return FeatureCatalog.from_ids(sorted(set().union(*(seq.events.feature for seq in sequences))))


def train_values(corpus: Sequence[EventSequence]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per feature, in order of first appearance: the values of the train
    split in corpus order, and the outcome of each value's episode."""
    train = [seq for seq in corpus if seq.split == "train"]
    if not train:
        raise ValueError("corpus contains no train-split sequences")
    feature = np.concatenate([seq.events.feature for seq in train])
    value = np.concatenate([seq.events.value for seq in train])
    outcome = np.repeat([seq.outcome for seq in train], [len(seq) for seq in train])
    codes = {fid: i for i, fid in enumerate(dict.fromkeys(feature))}
    code = np.fromiter(map(codes.__getitem__, feature), np.intp, len(feature))
    return {fid: (value[code == i], outcome[code == i]) for fid, i in codes.items()}


def fit_feature_stats(corpus: Sequence[EventSequence]) -> FeatureStats:
    """Fit clamp quantiles and moments per feature over train-split values.

    Values are clamped to the [1st, 99th] percentile before computing mean and
    std. Percentiles use order statistics (lower/higher) so small samples are
    unaffected by clamping. Features with fewer than two distinct clamped
    values are flagged degenerate and normalize to 0.
    """
    by_feature = {}
    for fid, (arr, _) in train_values(corpus).items():
        lo = float(np.percentile(arr, 1, method="lower"))
        hi = float(np.percentile(arr, 99, method="higher"))
        clamped = np.clip(arr, lo, hi)
        mean = float(clamped.mean())
        std = float(clamped.std())
        by_feature[fid] = FeatureStat(mean, std, lo, hi, degenerate=std < 1e-12)
    return FeatureStats(by_feature)


def encode_steps(seq: EventSequence, catalog: FeatureCatalog, stats: FeatureStats) -> StepSeries:
    """Encode a sequence as one step per event.

    ``step_value`` holds ``stats.normalize_value`` of each value; ``step_raw``
    keeps the value itself for display. ``step_log_dt`` is log(1 + dt / 3600)
    with dt the seconds since the previous step (since episode start for
    step 1).
    """
    ev = seq.events
    feature = catalog.indices(ev.feature)
    dt = ev.time.copy()
    dt[1:] -= ev.time[:-1]
    # math.log1p, not np.log1p: the two differ in the last bit for some inputs
    log_dt = np.fromiter(map(math.log1p, (dt / SECONDS_PER_HOUR).tolist()), float, len(ev))
    return StepSeries(step_feature=feature,
                      step_value=stats.normalize_values(catalog.ids, feature, ev.value),
                      step_log_dt=log_dt, step_time=ev.time.copy(), step_raw=ev.value.copy(),
                      d_features=catalog.d_features)
