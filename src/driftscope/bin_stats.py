"""Outcome statistics over discretized feature values.

Feature values from the train split are binned at quantile edges; per bin we
keep counts of values from outcome-positive and outcome-negative episodes.
Two ratio statistics are derived per bin: the odds ratio against values of the
same feature outside the bin, and the risk of the bin relative to the risk of
the bin holding the feature's train mean. Mapped onto an event stream, these
become per-event attribution weights.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attribution import AttributionMatrix
from .events import EventSequence, FeatureCatalog, StepSeries, train_values

# Pseudo-count added to every cell of a bin's outcome table.
LAPLACE_ALPHA = 0.5
# Quantile bins per feature when none are asked for.
BINS_PER_FEATURE = 10


@dataclass(frozen=True)
class FeatureBins:
    """Interior cut points (strictly increasing; k-1 cuts define k bins) and
    per-bin value counts by episode outcome."""

    cuts: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    mean_bin: int

    def bin_of(self, value):
        """Bin of each value: one equal to a cut goes up; out-of-range ones clamp."""
        return np.searchsorted(self.cuts, value, side="right")


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
        """Read a table as ``to_json`` writes it. Raises ValueError unless the
        payload maps each feature to ``cuts`` (finite, strictly increasing),
        ``pos`` and ``neg`` (non-negative integers, one per bin) and
        ``mean_bin`` (a bin index)."""
        if not isinstance(payload, dict):
            raise ValueError("bin table is not an object of features")
        return cls({fid: _feature_bins_from_json(fid, d) for fid, d in payload.items()})


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _feature_bins_from_json(fid: str, d) -> FeatureBins:
    if not isinstance(d, dict) or not {"cuts", "pos", "neg", "mean_bin"} <= d.keys():
        raise ValueError(f"bins of {fid!r} need cuts, pos, neg and mean_bin")
    cuts = d["cuts"]
    if not (isinstance(cuts, list)
            # finite: not NaN or infinite, and no int too large for a float
            and all((_is_int(c) or isinstance(c, float)) and abs(c) <= sys.float_info.max
                    for c in cuts)
            and all(a < b for a, b in zip(cuts, cuts[1:]))):
        raise ValueError(f"bins of {fid!r}: cuts must be finite and strictly increasing")
    n_bins = len(cuts) + 1
    for key in ("pos", "neg"):
        counts = d[key]
        if not (isinstance(counts, list) and len(counts) == n_bins
                and all(_is_int(c) and 0 <= c < 2**63 for c in counts)):
            raise ValueError(f"bins of {fid!r}: {key} must be {n_bins} non-negative integers")
    if not (_is_int(d["mean_bin"]) and 0 <= d["mean_bin"] < n_bins):
        raise ValueError(f"bins of {fid!r}: mean_bin must be a bin index below {n_bins}")
    return FeatureBins(cuts=np.asarray(cuts, dtype=float),
                       pos=np.asarray(d["pos"], dtype=np.int64),
                       neg=np.asarray(d["neg"], dtype=np.int64),
                       mean_bin=d["mean_bin"])


def fit_bins(corpus: Sequence[EventSequence],
             bins_per_feature: int = BINS_PER_FEATURE) -> BinTable:
    """Quantile-bin each feature's train-split values and tally by outcome.

    Duplicate quantiles collapse, so features with few distinct values get
    fewer, merged bins; a constant feature gets a single bin.
    """
    if bins_per_feature < 2:
        raise ValueError("bins_per_feature must be >= 2")
    qs = np.linspace(0, 1, bins_per_feature + 1)[1:-1]
    by_feature = {}
    for fid, (vals, outs) in train_values(corpus).items():
        cuts = _distinct(np.sort(_quantiles(np.sort(vals), qs))) + 0.0  # a zero cut is +0.0
        # Keep only cuts that actually separate data.
        cuts = cuts[(cuts > vals.min()) & (cuts <= vals.max())]
        bins = np.searchsorted(cuts, vals, side="right")
        n_bins = len(cuts) + 1
        pos = np.bincount(bins[outs == 1], minlength=n_bins)
        neg = np.bincount(bins[outs == 0], minlength=n_bins)
        mean_bin = int(np.searchsorted(cuts, vals.mean(), side="right"))
        by_feature[fid] = FeatureBins(cuts=cuts, pos=pos, neg=neg, mean_bin=mean_bin)
    return BinTable(by_feature)


# np.quantile and np.unique would import numpy.ma (1.7 MB); these two give
# their results bit for bit, but for the sign of a zero, which np.quantile takes
# from the order in which its partition leaves -0.0 and 0.0.
def _quantiles(ordered: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(ordered, qs)`` (method "linear") of a sorted array."""
    virtual = (len(ordered) - 1) * qs
    below = np.floor(virtual)
    last = virtual >= len(ordered) - 1  # both neighbours are the last value
    below_i = np.where(last, -1, below).astype(np.intp)
    above_i = np.where(last, -1, below + 1).astype(np.intp)
    gamma = virtual - below_i
    a, b = ordered[below_i], ordered[above_i]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """``np.unique`` of a sorted array."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def bin_statistic(fb: FeatureBins, statistic: str, alpha: float = LAPLACE_ALPHA) -> np.ndarray:
    """The statistic of every bin of one feature, from counts smoothed by ``alpha``.

    ``"odds_ratio"``: odds of the outcome for values in the bin over the odds
    for values of the same feature outside it. ``"rothman"``: empirical risk
    of the bin over the risk of the bin holding the feature's train mean.
    """
    pos = fb.pos.astype(float)
    neg = fb.neg.astype(float)
    if statistic == "odds_ratio":
        odds_in = (pos + alpha) / (neg + alpha)
        odds_out = (float(fb.pos.sum()) - pos + alpha) / (float(fb.neg.sum()) - neg + alpha)
        return odds_in / odds_out
    if statistic == "rothman":
        risk = (pos + alpha) / (pos + neg + 2.0 * alpha)
        return risk / risk[fb.mean_bin]
    raise ValueError(f"unknown statistic {statistic!r}")


def stat_weights(
    steps: StepSeries, catalog: FeatureCatalog, table: BinTable, statistic: str
) -> AttributionMatrix:
    """Weight each step by the statistic of the bin holding its raw value.

    Features absent from the table (never observed in train) get the neutral
    weight 1.
    """
    weights = np.ones(steps.T)
    for f in np.flatnonzero(np.bincount(steps.step_feature)):  # np.unique would load numpy.ma
        fb = table.by_feature.get(catalog.ids[f])
        if fb is None:
            continue
        at = steps.step_feature == f
        weights[at] = bin_statistic(fb, statistic)[fb.bin_of(steps.step_raw[at])]
    return AttributionMatrix(weights, method=statistic, window=(0, steps.T))
