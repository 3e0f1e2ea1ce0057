"""Shared fixtures: small random step series, and the session-scoped benchmark
corpus plus trained models used by the acceptance suite."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import driftscope as ds
from driftscope.bin_stats import fit_bins
from driftscope.events import (
    Event,
    EventSequence,
    FeatureCatalog,
    FeatureStat,
    FeatureStats,
    StepSeries,
    encode_steps,
)
from driftscope.evaluation import prepare_episodes
from driftscope.model import EncodedEpisode

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# Frozen benchmark configuration shared by the acceptance criteria.
BENCH_SCENARIO = dict(seed=20240, n_episodes=260, deterioration_fraction=0.5)
BENCH_MODEL = dict(hidden_size=32, seed=11, max_epochs=15, learning_rate=0.002, batch_size=16)


def random_step_series(rng: np.random.Generator, T: int, d_features: int) -> StepSeries:
    """Random but valid step series for model-level tests."""
    d = 2 * d_features + 1
    x = np.zeros((T, d))
    feats = rng.integers(0, d_features, size=T)
    x[np.arange(T), feats] = rng.normal(size=T)
    x[np.arange(T), d_features + feats] = 1.0
    x[:, -1] = rng.random(T)
    times = np.sort(rng.random(T)) * 48 * 3600.0
    return StepSeries(x=x, step_feature=feats, step_time=times,
                      step_raw=x[np.arange(T), feats].copy(), d_features=d_features)


def identity_stats(features) -> FeatureStats:
    """Stats under which ``normalize_value`` returns every value unchanged, so
    that tests can encode values as written."""
    return FeatureStats({f: FeatureStat(0.0, 1.0, -math.inf, math.inf, degenerate=False)
                         for f in features})


def single_feature_steps(values, times=None, feature="f") -> tuple[StepSeries, FeatureCatalog]:
    catalog = FeatureCatalog.from_ids([feature])
    if times is None:
        times = [3600.0 * i for i in range(len(values))]
    seq = EventSequence(
        "e", tuple(Event(t, feature, v) for t, v in zip(times, values)), 0, "train"
    )
    return encode_steps(seq, catalog, identity_stats(catalog.ids)), catalog


# Any JSON value, with integers too large for a float among the scalars.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def mutate(payload, path, value, delete):
    """A copy of the JSON ``payload`` whose node at ``path`` is removed, or
    replaced by ``value``. Each entry of ``path`` picks a child of the node
    reached so far, modulo its size; the path ends early at a leaf."""
    out = copy.deepcopy(payload)
    parent, key, node = None, None, out
    for i in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        key = list(node)[i % len(node)] if isinstance(node, dict) else i % len(node)
        parent, node = node, node[key]
    if parent is None:
        return value
    if delete:
        del parent[key]
    else:
        parent[key] = value
    return out


@pytest.fixture(scope="session")
def bench_bundle():
    config = ds.ScenarioConfig(**BENCH_SCENARIO)
    corpus = ds.generate_corpus(config)
    catalog = config.catalog()
    stats = ds.fit_feature_stats(corpus)
    encoded = [
        EncodedEpisode(s.episode_id, encode_steps(s, catalog, stats),
                       s.outcome, s.split)
        for s in corpus
    ]
    return config, corpus, catalog, stats, encoded


@pytest.fixture(scope="session")
def trained_smooth(bench_bundle):
    _, _, _, _, encoded = bench_bundle
    params, report = ds.train(encoded, ds.ModelConfig(eta=0.005, **BENCH_MODEL))
    return params, report


@pytest.fixture(scope="session")
def trained_plain(bench_bundle):
    _, _, _, _, encoded = bench_bundle
    params, report = ds.train(encoded, ds.ModelConfig(eta=0.0, **BENCH_MODEL))
    return params, report


@pytest.fixture(scope="session")
def prepared_smooth(bench_bundle, trained_smooth):
    _, corpus, catalog, stats, _ = bench_bundle
    params, _ = trained_smooth
    return prepare_episodes(params, stats, catalog, corpus)


@pytest.fixture(scope="session")
def bench_bins(bench_bundle):
    _, corpus, _, _, _ = bench_bundle
    return fit_bins(corpus)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "") == "call":
                rows.append((nodeid.split("::")[-1], status.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{name}: {status}")
