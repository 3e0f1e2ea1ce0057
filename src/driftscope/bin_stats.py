"""Outcome statistics over discretized feature values.

Feature values from the train split are binned at quantile edges; per bin we
keep counts of values from outcome-positive and outcome-negative episodes.
Two ratio statistics are derived per bin: the odds ratio against values of the
same feature outside the bin, and the risk of the bin relative to the risk of
the bin holding the feature's train mean. Mapped onto an event stream, these
become per-event attribution weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attribution import AttributionMatrix, event_weight_matrix
from .events import EventSequence, StepSeries


@dataclass(frozen=True)
class StatWeightConfig:
    statistic: str = "odds_ratio"  # or "rothman"
    laplace_alpha: float = 0.5
    bins_per_feature: int = 10

    def __post_init__(self):
        if self.statistic not in ("odds_ratio", "rothman"):
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.laplace_alpha <= 0:
            raise ValueError("laplace_alpha must be positive")
        if self.bins_per_feature < 2:
            raise ValueError("bins_per_feature must be >= 2")


@dataclass(frozen=True)
class FeatureBins:
    """Interior cut points (strictly increasing; k-1 cuts define k bins) and
    per-bin value counts by episode outcome."""

    cuts: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    mean_bin: int

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1

    def bin_of(self, value: float) -> int:
        # searchsorted clamps out-of-range values into the first/last bin.
        return int(np.searchsorted(self.cuts, value, side="right"))


@dataclass(frozen=True)
class BinTable:
    by_feature: dict[str, FeatureBins]

    def to_json(self) -> dict:
        return {
            fid: {
                "cuts": fb.cuts.tolist(),
                "pos": fb.pos.tolist(),
                "neg": fb.neg.tolist(),
                "mean_bin": fb.mean_bin,
            }
            for fid, fb in self.by_feature.items()
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BinTable":
        return cls(
            {
                fid: FeatureBins(
                    cuts=np.asarray(d["cuts"], dtype=float),
                    pos=np.asarray(d["pos"], dtype=np.int64),
                    neg=np.asarray(d["neg"], dtype=np.int64),
                    mean_bin=int(d["mean_bin"]),
                )
                for fid, d in payload.items()
            }
        )


def fit_bins(corpus: Sequence[EventSequence], config: StatWeightConfig) -> BinTable:
    """Quantile-bin each feature's train-split values and tally by outcome.

    Duplicate quantiles collapse, so features with few distinct values get
    fewer, merged bins; a constant feature gets a single bin.
    """
    train = [seq for seq in corpus if seq.split == "train"]
    if not train:
        raise ValueError("corpus contains no train-split sequences")
    values: dict[str, list[tuple[float, int]]] = {}
    for seq in train:
        for e in seq.events:
            values.setdefault(e.feature, []).append((e.raw_value, seq.outcome))
    by_feature = {}
    for fid, pairs in values.items():
        vals = np.asarray([v for v, _ in pairs], dtype=float)
        outs = np.asarray([o for _, o in pairs], dtype=np.int64)
        qs = np.linspace(0, 1, config.bins_per_feature + 1)[1:-1]
        cuts = np.unique(np.quantile(vals, qs))
        # Keep only cuts that actually separate data.
        cuts = cuts[(cuts > vals.min()) & (cuts <= vals.max())]
        bins = np.searchsorted(cuts, vals, side="right")
        n_bins = len(cuts) + 1
        pos = np.bincount(bins[outs == 1], minlength=n_bins)
        neg = np.bincount(bins[outs == 0], minlength=n_bins)
        mean_bin = int(np.searchsorted(cuts, vals.mean(), side="right"))
        by_feature[fid] = FeatureBins(cuts=cuts, pos=pos, neg=neg, mean_bin=mean_bin)
    return BinTable(by_feature)


def _check_bin(fb: FeatureBins, bin_index: int) -> None:
    if not 0 <= bin_index < fb.n_bins:
        raise ValueError(f"bin {bin_index} out of range [0, {fb.n_bins})")


def odds_ratio(table: BinTable, feature: str, bin_index: int, alpha: float = 0.5) -> float:
    """Smoothed odds of the outcome for values in the bin over the odds for
    values of the same feature outside it."""
    fb = table.by_feature[feature]
    _check_bin(fb, bin_index)
    pos_in = float(fb.pos[bin_index])
    neg_in = float(fb.neg[bin_index])
    pos_out = float(fb.pos.sum()) - pos_in
    neg_out = float(fb.neg.sum()) - neg_in
    odds_in = (pos_in + alpha) / (neg_in + alpha)
    odds_out = (pos_out + alpha) / (neg_out + alpha)
    return odds_in / odds_out


def _bin_risk(fb: FeatureBins, bin_index: int, alpha: float) -> float:
    pos = float(fb.pos[bin_index])
    neg = float(fb.neg[bin_index])
    return (pos + alpha) / (pos + neg + 2.0 * alpha)


def rothman_index(
    table: BinTable,
    feature: str,
    bin_index: int,
    alpha: float = 0.5,
) -> float:
    """Smoothed empirical risk of the bin over the risk of the bin containing
    the feature's train mean."""
    fb = table.by_feature[feature]
    _check_bin(fb, bin_index)
    return _bin_risk(fb, bin_index, alpha) / _bin_risk(fb, fb.mean_bin, alpha)


def stat_weights(
    steps: StepSeries,
    raw: EventSequence,
    table: BinTable,
    config: StatWeightConfig,
) -> AttributionMatrix:
    """Weight each event by the chosen statistic of the bin holding its raw value.

    ``raw`` must align 1:1 with ``steps``. Features absent from the table (never
    observed in train) get the neutral weight 1.
    """
    if len(raw.events) != steps.T:
        raise ValueError("raw sequence and steps disagree on length")
    weights = np.empty(steps.T)
    for j, e in enumerate(raw.events):
        fb = table.by_feature.get(e.feature)
        if fb is None:
            weights[j] = 1.0
            continue
        b = fb.bin_of(e.raw_value)
        if config.statistic == "odds_ratio":
            weights[j] = odds_ratio(table, e.feature, b, config.laplace_alpha)
        else:
            weights[j] = rothman_index(table, e.feature, b, config.laplace_alpha)
    return event_weight_matrix(weights, steps, method=config.statistic)
