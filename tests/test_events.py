import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import driftscope as ds
from driftscope import events
from driftscope.attribution import build_carry_forward_baseline
from driftscope.events import (
    SECONDS_PER_HOUR,
    SPLITS,
    EventFormatError,
    Events,
    EventSequence,
    FeatureCatalog,
    FeatureStat,
    FeatureStats,
    StepSeries,
    catalog_from_sequences,
    encode_steps,
    fit_feature_stats,
    parse_event_log,
    write_event_log,
)
from driftscope.model import StepBatch
from driftscope.synth import ScenarioConfig, generate_corpus
from conftest import events_of, identity_stats, json_values


def line(episode="e1", time_s=0.0, feature="f", value=1.0, outcome=0, split="train"):
    return json.dumps({"episode": episode, "time_s": time_s, "feature": feature,
                       "value": value, "outcome": outcome, "split": split})


class TestParse:
    def test_sorts_events_within_episode(self):
        text = "\n".join([line(time_s=7200.0), line(time_s=3600.0)])
        seqs = parse_event_log(text)
        assert len(seqs) == 1
        assert seqs[0].events.time.tolist() == [3600.0, 7200.0]

    def test_empty_stream(self):
        assert parse_event_log("") == []

    def test_negative_time_rejected(self):
        with pytest.raises(EventFormatError, match="negative time"):
            parse_event_log(line(time_s=-5))

    def test_malformed_line_carries_line_number(self):
        text = "\n".join([line(), "{not json"])
        with pytest.raises(EventFormatError, match="line 2"):
            parse_event_log(text)

    @pytest.mark.parametrize("field, value", [
        ("value", float("nan")), ("value", float("inf")), ("value", float("-inf")),
        ("value", "1e400"), ("time_s", float("nan")), ("time_s", float("inf")),
        pytest.param("time_s", 10**400, id="time_s-huge-int"),
        pytest.param("value", -10**400, id="value-huge-int"),
    ])
    def test_non_finite_number_rejected_with_line(self, field, value):
        text = "\n".join([line(), line(**{"time_s": 10.0, field: value})])
        with pytest.raises(EventFormatError, match="line 2: time_s and value must be finite"):
            parse_event_log(text)

    @given(st.lists(
        st.text(max_size=30) | st.fixed_dictionaries({
            "episode": st.text(max_size=2) | json_values,
            "time_s": json_values,
            "feature": st.text(max_size=2) | json_values,
            "value": json_values,
            "outcome": st.sampled_from([0, 1]) | json_values,
            "split": st.sampled_from(SPLITS) | json_values,
        }).map(json.dumps),
        max_size=4))
    @example([line(time_s=10**400)])
    @example([line().replace("1.0", "1" * 5000)])  # past the integer digit limit
    @example(["[" * 100_000])  # nested past the recursion limit
    def test_arbitrary_lines_parse_or_raise_event_format_error(self, lines):
        try:
            parse_event_log(lines)
        except EventFormatError:
            pass

    def test_missing_key_rejected(self):
        with pytest.raises(EventFormatError, match="missing key"):
            parse_event_log('{"episode": "e", "time_s": 0}')

    def test_unknown_feature_named_in_error(self):
        catalog = FeatureCatalog.from_ids(["known"])
        with pytest.raises(EventFormatError, match="mystery"):
            parse_event_log(line(feature="mystery"), catalog=catalog)

    def test_conflicting_outcome_rejected(self):
        text = "\n".join([line(outcome=0), line(outcome=1, time_s=10.0)])
        with pytest.raises(EventFormatError, match="conflicting"):
            parse_event_log(text)

    def test_tie_break_catalog_then_input_order(self):
        catalog = FeatureCatalog.from_ids(["a", "b"])
        text = "\n".join([
            line(feature="b", time_s=5.0, value=1.0),
            line(feature="a", time_s=5.0, value=2.0),
            line(feature="b", time_s=5.0, value=3.0),
        ])
        seqs = parse_event_log(text, catalog=catalog)
        got = list(zip(seqs[0].events.feature, seqs[0].events.value))
        assert got == [("a", 2.0), ("b", 1.0), ("b", 3.0)]

    def test_deterministic(self):
        text = "\n".join([line(time_s=float(i), value=float(i)) for i in range(5)])
        assert parse_event_log(text) == parse_event_log(text)


class TestFeatureStats:
    def test_degenerate_feature_normalizes_to_zero(self):
        seq = EventSequence("e", events_of([(float(i), "f", 1.0) for i in range(3)]), 0, "train")
        stats = fit_feature_stats([seq])
        st_ = stats.by_feature["f"]
        assert st_.mean == 1.0 and st_.degenerate
        assert stats.normalize_value("f", 1.0) == 0.0
        assert stats.normalize_value("f", 99.0) == 0.0

    def test_two_point_statistics_unclamped(self):
        seq = EventSequence("e", events_of([(0.0, "f", 0.0), (1.0, "f", 10.0)]), 0, "train")
        stats = fit_feature_stats([seq])
        st_ = stats.by_feature["f"]
        assert st_.mean == 5.0 and st_.std == 5.0

    def test_recovers_known_distribution_mean(self):
        # Oracle: direct sample statistics on 1000 draws from N(5, 2).
        rng = np.random.default_rng(42)
        vals = rng.normal(5.0, 2.0, size=1000)
        events = tuple((float(i), "f", float(v)) for i, v in enumerate(vals))
        stats = fit_feature_stats([EventSequence("e", events_of(events), 0, "train")])
        assert abs(stats.by_feature["f"].mean - 5.0) < 3 * 2.0 / math.sqrt(1000)

    def test_only_train_split_used(self):
        train = EventSequence("a", events_of([(0.0, "f", 0.0), (1.0, "f", 2.0)]), 0, "train")
        test = EventSequence("b", events_of([(0.0, "f", 100.0)]), 0, "test")
        stats = fit_feature_stats([train, test])
        assert stats.by_feature["f"].mean == 1.0

    def test_feature_absent_from_train_maps_to_zero(self):
        train = EventSequence("a", events_of([(0.0, "f", 0.0), (1.0, "f", 2.0)]), 0, "train")
        stats = fit_feature_stats([train])
        assert stats.normalize_value("ghost", 123.0) == 0.0

    def test_requires_train_split(self):
        seq = EventSequence("a", events_of([(0.0, "f", 1.0)]), 0, "test")
        with pytest.raises(ValueError, match="train"):
            fit_feature_stats([seq])


class TestNormalize:
    def _stats(self):
        rng = np.random.default_rng(0)
        events = tuple((float(i), "f", float(v))
                       for i, v in enumerate(rng.normal(10, 3, size=500)))
        corpus = [EventSequence("e", events_of(events), 0, "train")]
        return corpus, fit_feature_stats(corpus)

    def test_mean_maps_to_zero_and_unit_scaling(self):
        _, stats = self._stats()
        st_ = stats.by_feature["f"]
        assert stats.normalize_value("f", st_.mean) == pytest.approx(0.0)
        assert stats.normalize_value("f", st_.mean + st_.std) == pytest.approx(1.0)

    def test_clamp_matches_clamp_first_oracle(self):
        _, stats = self._stats()
        st_ = stats.by_feature["f"]
        above = st_.hi + 7.5
        assert stats.normalize_value("f", above) == stats.normalize_value("f", st_.hi)

    def test_raw_value_retained(self):
        corpus, stats = self._stats()
        steps = encode_steps(corpus[0], FeatureCatalog.from_ids(["f"]), stats)
        assert steps.step_raw.tolist() == corpus[0].events.value.tolist()

    def test_double_normalize_centers_train_values(self):
        corpus, stats = self._stats()
        catalog = FeatureCatalog.from_ids(["f"])
        values = np.concatenate([encode_steps(s, catalog, stats).x[:, 0]
                                 for s in corpus if s.split == "train"])
        assert abs(np.mean(values)) < 1e-9


class TestEncode:
    def test_single_event_vector(self):
        catalog = FeatureCatalog.from_ids(["temp", "hr"])
        seq = EventSequence("e", events_of([(3600.0, "temp", 0.5)]), 0, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        assert steps.T == 1
        np.testing.assert_allclose(steps.x[0], [0.5, 0.0, 1.0, 0.0, math.log(2.0)])
        assert steps.step_feature[0] == 0

    def test_simultaneous_events_zero_gap(self):
        catalog = FeatureCatalog.from_ids(["a", "b"])
        seq = EventSequence(
            "e", events_of([(100.0, "a", 1.0), (100.0, "b", 2.0)]), 0, "train"
        )
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        assert steps.T == 2
        assert steps.x[1, -1] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        catalog = FeatureCatalog.from_ids(["a", "b", "c"])
        events = tuple(
            (float(i) * 60.0, catalog.ids[rng.integers(3)], float(rng.normal()))
            for i in range(40)
        )
        seq = EventSequence("e", events_of(events), 1, "train")
        steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
        feats = [catalog.ids.index(f) for _, f, _ in events]
        values = np.zeros((40, 3))
        values[np.arange(40), feats] = [v for _, _, v in events]
        np.testing.assert_array_equal(steps.x[:, :3], values)
        np.testing.assert_array_equal(steps.x[:, 3:6], np.eye(3)[feats])
        times = np.array([t for t, _, _ in events])
        gaps = np.diff(times, prepend=0.0)
        np.testing.assert_array_equal(steps.x[:, 6], [math.log1p(g / 3600.0) for g in gaps])
        assert steps.step_feature.tolist() == feats
        assert steps.step_raw.tolist() == [v for _, _, v in events]
        assert steps.step_time.tolist() == times.tolist()


@st.composite
def small_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    features = ["a", "b", "c"]
    times = sorted(draw(st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=n, max_size=n)))
    events = tuple(
        (times[i], draw(st.sampled_from(features)),
              draw(st.floats(min_value=-50, max_value=50, allow_nan=False)))
        for i in range(n)
    )
    return EventSequence("e", events_of(events), draw(st.sampled_from([0, 1])), "train")


@given(small_sequences())
def test_encoding_invariants(seq):
    catalog = FeatureCatalog.from_ids(["a", "b", "c"])
    steps = encode_steps(seq, catalog, identity_stats(catalog.ids))
    d_f = catalog.d_features
    indicators = steps.x[:, d_f : 2 * d_f]
    assert np.all(indicators.sum(axis=1) == 1.0)
    for j in range(steps.T):
        values = steps.x[j, :d_f].copy()
        values[steps.step_feature[j]] = 0.0
        assert np.all(values == 0.0)
    assert np.all(steps.x[:, -1] >= 0.0)
    assert np.all(np.diff(steps.step_time) >= 0.0)


def test_catalog_from_sequences_sorted():
    seqs = [EventSequence("e", events_of([(0.0, "z", 1.0), (1.0, "a", 1.0)]), 0, "train")]
    assert catalog_from_sequences(seqs).ids == ("a", "z")


def test_catalog_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        FeatureCatalog.from_ids(["x", "x"])


def test_stats_json_round_trip():
    seq = EventSequence("e", events_of([(0.0, "f", 0.0), (1.0, "f", 10.0)]), 0, "train")
    stats = fit_feature_stats([seq])
    again = ds.FeatureStats.from_json(json.loads(json.dumps(stats.to_json())))
    assert again.by_feature == stats.by_feature


def reference_parse(stream, catalog=None):
    """The per-line parser that came before block decoding, kept as the
    reference: (episode, [(time, feature, value), ...], outcome, split) per
    episode, or the same EventFormatError."""
    raw, meta, seen_features = {}, {}, set()
    lines = iter(io.StringIO(stream, newline=None)) if isinstance(stream, str) else iter(stream)
    for lineno, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise EventFormatError(f"invalid JSON ({exc.msg})", line=lineno) from None
        except (ValueError, RecursionError) as exc:
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
            time_s = float(rec["time_s"])
            value = float(rec["value"])
        except (TypeError, ValueError, OverflowError):
            raise EventFormatError("time_s and value must be finite numbers", line=lineno) from None
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
                raise EventFormatError(f"episode {episode!r} has conflicting outcome/split",
                                       line=lineno)
        else:
            meta[episode] = (outcome, split)
            raw[episode] = []
        seen_features.add(feature)
        raw[episode].append((time_s, feature, value))
    if catalog is None:
        catalog = FeatureCatalog.from_ids(sorted(seen_features))
    return [(episode, sorted(recs, key=lambda r: (r[0], catalog.ids.index(r[1]))), *meta[episode])
            for episode, recs in raw.items()]


def parse_outcome(parse, stream, catalog):
    """What a parser gives: its episodes, written with repr so that -0.0 and
    0.0 differ, or the line and message of its EventFormatError."""
    try:
        out = parse(stream, catalog)
    except EventFormatError as exc:
        return ("error", exc.line, str(exc))
    if parse is parse_event_log:
        out = [(s.episode_id, list(zip(s.events.time.tolist(), s.events.feature.tolist(),
                                      s.events.value.tolist())), s.outcome, s.split) for s in out]
    return repr(out)


def record(episode="a", time_s=0.0, feature="f", value=1.0, outcome=0, split="train"):
    return {"episode": episode, "time_s": time_s, "feature": feature, "value": value,
            "outcome": outcome, "split": split}


# Regular records, as write_event_log writes them, and lines that are not:
# records with a field of another type or value, and lines that are not
# records at all.
numbers = (st.floats(min_value=0, max_value=1e6) | st.sampled_from([0.0, -0.0, 1e300, 5e-324])
           | st.floats())
regular_lines = st.builds(
    record, episode=st.sampled_from(["a", "b", "c,d", "é"]),
    time_s=st.floats(min_value=0, max_value=1e6) | st.sampled_from([-0.0, 1e300, 5e-324]),
    feature=st.sampled_from(["f", "g", "h", "\x7f", " "]),
    value=st.floats(allow_nan=False, allow_infinity=False),
    outcome=st.sampled_from([0, 1]), split=st.sampled_from(SPLITS)).map(json.dumps)
other_lines = st.one_of(
    st.builds(record, episode=st.sampled_from(["a", "b", 'q"', "a\\u"]),
              time_s=numbers | st.integers(min_value=-1, max_value=10**400)
              | st.sampled_from(["1.5", True, False, None, -0, 10**400]),
              value=numbers | st.integers() | st.sampled_from(["2", True, -10**400]),
              outcome=st.sampled_from([0, 1, True, False, 1.0, 2, "1"]),
              split=st.sampled_from([*SPLITS, "dev", 0])).map(json.dumps),
    st.sampled_from(["", "  ", "\t", '{"a": [1', '2]}, {"b": 3}', "[]", "{}", "null",
                     json.dumps(record()) + " ", " " + json.dumps(record()),
                     json.dumps(record()) + json.dumps(record()),
                     json.dumps(record()).replace(" ", ""),
                     json.dumps(record(), ensure_ascii=False).replace("0.0", "0"),
                     json.dumps(record()).replace('"train"', '"train", "episode": "b"')]),
    st.text(max_size=12),
)


@st.composite
def log_lines(draw):
    """Regular lines with a few others put in at random places."""
    lines = draw(st.lists(regular_lines, max_size=12))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(other_lines))
    return lines


@given(lines=log_lines(),
       form=st.sampled_from(["list", "text", "file", "crlf", "\x0b", "\x0c", "\u2028"]),
       block=st.integers(min_value=1, max_value=5),
       catalog=st.sampled_from([None, FeatureCatalog.from_ids(["g", "f", "h"])]))
@example(lines=['{"a": [1', '2]}, {"b": 3}'], form="list", block=2, catalog=None)
@example(lines=[json.dumps(record()) + "\x1e" + json.dumps(record(time_s=1.0))],
         form="list", block=2, catalog=None)  # the block separator inside a line
@example(lines=[json.dumps(record()) + "\n" + json.dumps(record(time_s=1.0)), ""],
         form="list", block=2, catalog=None)  # a line holding two records
@example(lines=[" " + json.dumps(record()), json.dumps(record()) + json.dumps(record())],
         form="list", block=2, catalog=None)  # as many records as lines, but not one each
@example(lines=[json.dumps(record(time_s=-1.5))], form="list", block=1, catalog=None)
@example(lines=[json.dumps(record()).replace('"value": 1.0', '"value": -0')], form="list",
         block=1, catalog=None)  # json.loads reads -0 as the int 0
@example(lines=[json.dumps(record(time_s=3600.0)), "", json.dumps(record(time_s=0.0))],
         form="text", block=1, catalog=None)
@example(lines=[json.dumps(record()), json.dumps(record(outcome=1, time_s=2.0))],
         form="file", block=1, catalog=None)
@example(lines=[json.dumps(record(split="test")), json.dumps(record(time_s=2.0))],
         form="list", block=4, catalog=None)
@example(lines=[json.dumps(record(time_s=10**400))], form="list", block=4, catalog=None)
@example(lines=[json.dumps(record(value="1.5")), json.dumps(record(time_s=True))],
         form="list", block=4, catalog=None)
@example(lines=[json.dumps(record(feature="f\x0bg")), json.dumps(record(feature="f\u2028"))],
         form="\u2028", block=4, catalog=None)
def test_parse_matches_the_per_line_reference(lines, form, block, catalog):
    """Block decoding gives the reference's sequences, or its error with the
    same line and message, for any log, block size and form of input."""
    if form == "list":
        stream = list(lines)
    elif form in ("text", "file"):
        stream = "\n".join(lines)
    elif form == "crlf":
        stream = io.StringIO("\r\n".join(lines), newline="")
    else:
        stream = form.join(lines)
    with mock.patch.object(events, "_BLOCK_LINES", block):
        if form == "file":
            got = parse_outcome(parse_event_log, io.StringIO(stream), catalog)
            want = parse_outcome(reference_parse, io.StringIO(stream), catalog)
        elif form == "crlf":
            got = parse_outcome(parse_event_log, stream, catalog)
            stream.seek(0)
            want = parse_outcome(reference_parse, stream, catalog)
        else:
            got = parse_outcome(parse_event_log, stream, catalog)
            want = parse_outcome(reference_parse, stream, catalog)
    assert got == want


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
@pytest.mark.parametrize("field", ["episode", "feature"])
def test_str_input_splits_lines_as_a_file_does(tmp_path, field, char):
    """JSON strings may hold U+0085, U+2028 and U+2029 unescaped, and a text
    file breaks lines at none of them: a log given as a str parses to the
    sequences that the same log read from a file gives, and a later bad line
    carries the same line number."""
    good = [json.dumps(record(time_s=float(t), **{field: f"a{char}b"}), ensure_ascii=False)
            for t in range(3)]
    path = tmp_path / "events.jsonl"
    for lines, want in ((good, None), (good + ["{not json"], 4)):
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            from_file = parse_outcome(parse_event_log, fh, None)
        assert parse_outcome(parse_event_log, text, None) == from_file
        if want is None:
            assert isinstance(from_file, str) and repr(f"a{char}b") in from_file
        else:
            assert from_file[:2] == ("error", want)


def test_regular_blocks_take_the_block_path(tmp_path):
    """The generated log decodes without the per-line loop, and gives what
    the reference gives."""
    corpus = generate_corpus(ScenarioConfig(seed=4, n_episodes=12))
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_event_log(fh, corpus)
    with mock.patch.object(events._LogColumns, "add_lines", side_effect=AssertionError):
        with open(path, encoding="utf-8") as fh:
            parsed = parse_event_log(fh)
    assert parsed == corpus
    with open(path, encoding="utf-8") as fh:
        assert parse_outcome(parse_event_log, path.read_text(), None) == \
            parse_outcome(reference_parse, fh, None)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_parsing_a_large_log_keeps_little_resident(tmp_path):
    """The lines and split strings of a decoded block are garbage, and the
    allocator keeps much of what a large block took. Parsing the 36,414-line
    log of 260 generated episodes adds less than 4 MB of resident memory,
    the sequences included (5.5 MB with blocks of 4,096 lines)."""
    corpus = generate_corpus(ScenarioConfig(seed=1, n_episodes=260))
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_event_log(fh, corpus)
    code = ("import sys\n"
            "from driftscope.events import parse_event_log\n"
            "def rss():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmRSS:'))\n"
            "before = rss()\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    sequences = parse_event_log(fh)\n"
            "print(len(sequences), sum(map(len, sequences)), rss() - before)\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    episodes, n_events, grown_kb = map(int, out.stdout.split())
    assert (episodes, n_events) == (260, sum(map(len, corpus))) and n_events > 36_000
    assert grown_kb < 4 * 1024, grown_kb


def reference_encode(seq, catalog, stats):
    """The per-event loop that came before encode_steps's array indexing."""
    T, d_f = len(seq), catalog.d_features
    x = np.zeros((T, 2 * d_f + 1))
    prev = 0.0
    for j, (t, f, v) in enumerate(zip(seq.events.time.tolist(), seq.events.feature,
                                      seq.events.value.tolist())):
        i = catalog.ids.index(f)
        x[j, i] = stats.normalize_value(f, v)
        x[j, d_f + i] = 1.0
        x[j, 2 * d_f] = math.log1p((t - prev) / 3600.0)
        prev = t
    return x


@pytest.mark.parametrize("seed, hours", [(0, 36.0), (1, 72.0)])
def test_encode_steps_matches_the_per_event_loop(seed, hours):
    corpus = generate_corpus(ScenarioConfig(seed=seed, n_episodes=20, duration_hours=hours))
    catalog = catalog_from_sequences(corpus)
    stats = fit_feature_stats(corpus[:8])
    # one feature degenerate and one never seen: both normalize to 0
    stats.by_feature["sodium"] = dataclasses.replace(stats.by_feature["sodium"], degenerate=True)
    del stats.by_feature["glucose"]
    for seq in corpus:
        steps = encode_steps(seq, catalog, stats)
        assert steps.x.tobytes() == reference_encode(seq, catalog, stats).tobytes()
        assert steps.step_feature.tolist() == [catalog.ids.index(f) for f in seq.events.feature]
        assert np.array_equal(steps.step_time, seq.events.time)
        assert np.array_equal(steps.step_raw, seq.events.value)


def test_encode_steps_keeps_the_sign_of_a_clamped_zero():
    """min(max(v, lo), hi) keeps its first argument on ties, so -0.0 clamped at
    a bound of 0.0 stays -0.0, as in normalize_value."""
    catalog = FeatureCatalog.from_ids(["f", "g"])
    stats = FeatureStats({"f": FeatureStat(0.0, 1.0, 0.0, 2.0, degenerate=False),
                          "g": FeatureStat(0.0, 1.0, -2.0, -0.0, degenerate=False)})
    seq = EventSequence("e", events_of([(0.0, "f", -0.0), (1.0, "g", 0.0), (2.0, "f", 0.0),
                                        (3.0, "g", -0.0)]), 0, "train")
    steps = encode_steps(seq, catalog, stats)
    assert steps.x.tobytes() == reference_encode(seq, catalog, stats).tobytes()


def test_encode_steps_names_an_unknown_feature():
    seq = EventSequence("e", events_of([(0.0, "f", 1.0), (1.0, "ghost", 2.0)]), 0, "train")
    with pytest.raises(KeyError, match="ghost"):
        encode_steps(seq, FeatureCatalog.from_ids(["f"]), identity_stats(["f"]))


class TestEvents:
    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="one length"):
            Events([0.0, 1.0], ["f"], [1.0, 2.0])

    @pytest.mark.parametrize("time, value", [([float("nan")], [1.0]), ([0.0], [float("inf")])])
    def test_non_finite_rejected(self, time, value):
        with pytest.raises(EventFormatError, match="finite"):
            Events(time, ["f"], value)

    def test_negative_time_named(self):
        with pytest.raises(EventFormatError, match="negative time -1.0 for feature 'g'"):
            Events([0.0, -1.0], ["f", "g"], [1.0, 2.0])

    def test_equality_and_slices(self):
        ev = events_of([(0.0, "f", 1.0), (1.0, "g", 2.0), (1.0, "f", 3.0)])
        assert ev == events_of([(0.0, "f", 1.0), (1.0, "g", 2.0), (1.0, "f", 3.0)])
        assert ev != events_of([(0.0, "f", 1.0), (1.0, "f", 2.0), (1.0, "f", 3.0)])
        assert Events(ev.time[1:], ev.feature[1:], ev.value[1:]) == events_of(
            [(1.0, "g", 2.0), (1.0, "f", 3.0)])
        assert len(Events(ev.time[:1], ev.feature[:1], ev.value[:1])) == 1

    def test_unsorted_sequence_rejected(self):
        with pytest.raises(EventFormatError, match="not time-sorted"):
            EventSequence("e", events_of([(1.0, "f", 1.0), (0.0, "f", 2.0)]), 0, "train")


def test_written_log_is_json_dumps_of_each_record():
    seq = EventSequence('e"1', events_of([(0.0, "f", -0.0), (1e-7, "é", 1e300)]), 1, "test")
    buf = io.StringIO()
    write_event_log(buf, [seq])
    assert buf.getvalue() == "".join(
        json.dumps({"episode": 'e"1', "time_s": t, "feature": f, "value": v, "outcome": 1,
                    "split": "test"}) + "\n"
        for t, f, v in [(0.0, "f", -0.0), (1e-7, "é", 1e300)])


# The dense (T, d) code that the columns replaced, kept as references: the
# encoder, StepBatch.padded and the carry-forward baseline.

def dense_encode(seq, catalog, stats):
    ev = seq.events
    T, d_f = len(ev), catalog.d_features
    feature = catalog.indices(ev.feature)
    steps = np.arange(T)
    x = np.zeros((T, 2 * d_f + 1), dtype=float)
    x[steps, feature] = stats.normalize_values(catalog.ids, feature, ev.value)
    x[steps, d_f + feature] = 1.0
    dt = ev.time.copy()
    dt[1:] -= ev.time[:-1]
    x[:, 2 * d_f] = list(map(math.log1p, (dt / SECONDS_PER_HOUR).tolist()))
    return x


def dense_padded(xs):
    x = np.zeros((max(len(a) for a in xs), len(xs), xs[0].shape[1]))
    for b, a in enumerate(xs):
        x[: len(a), b] = a
    return x


def dense_carry_forward(x, step_feature, d_features, t0):
    x = x.copy()
    last = np.full(d_features, -1)
    np.maximum.at(last, step_feature[:t0], np.arange(t0))
    carried = np.where(last >= 0, x[last, np.arange(d_features)], 0.0)
    after = step_feature[t0:]
    x[np.arange(t0, len(x)), after] = carried[after]
    return x


finite = st.floats(-1e6, 1e6)


@st.composite
def encoded_batches(draw):
    """(sequences, catalog, stats) of 1-3 episodes over 1-4 features; each
    feature's stats are missing, degenerate, unbounded or drawn."""
    ids = [f"f{i}" for i in range(draw(st.integers(1, 4)))]
    by_feature = {}
    for fid in ids:
        kind = draw(st.sampled_from(["missing", "degenerate", "unbounded", "drawn"]))
        if kind == "unbounded":
            by_feature[fid] = FeatureStat(0.0, 1.0, -math.inf, math.inf, degenerate=False)
        elif kind != "missing":
            lo, hi = sorted(draw(st.tuples(finite, finite)))
            by_feature[fid] = FeatureStat(draw(finite), draw(st.floats(1e-3, 1e3)), lo, hi,
                                          degenerate=kind == "degenerate")
    event = st.tuples(st.floats(0.0, 1e9), st.sampled_from(ids),
                      st.floats(allow_nan=False, allow_infinity=False))
    seqs = []
    for i in range(draw(st.integers(1, 3))):
        triples = sorted(draw(st.lists(event, min_size=1, max_size=12)), key=lambda e: e[0])
        seqs.append(EventSequence(f"e{i}", events_of(triples), 0, "train"))
    return seqs, FeatureCatalog.from_ids(ids), FeatureStats(by_feature)


class TestStepSeries:
    @given(encoded_batches(), st.data())
    def test_rows_padded_and_baseline_match_the_dense_code(self, batch, data):
        seqs, catalog, stats = batch
        series = [encode_steps(seq, catalog, stats) for seq in seqs]
        dense = [dense_encode(seq, catalog, stats) for seq in seqs]
        assert StepBatch(series).padded().tobytes() == dense_padded(dense).tobytes()
        for steps, x in zip(series, dense):
            a = data.draw(st.integers(0, steps.T))
            b = data.draw(st.integers(a, steps.T))
            assert steps.rows(a, b).tobytes() == x[a:b].tobytes()
            out = np.full((b - a, steps.d), np.nan)
            assert steps.rows(a, b, out=out) is out and out.tobytes() == x[a:b].tobytes()
            t0 = data.draw(st.integers(0, steps.T))
            want = dense_carry_forward(x, steps.step_feature, steps.d_features, t0)
            got = build_carry_forward_baseline(steps, t0)
            assert got.rows(a, b).tobytes() == want[a:b].tobytes()

    def test_encoded_series_holds_no_dense_rows(self):
        # Five columns of 8 bytes per step; the dense rows took 168 more at
        # the catalog's 10 features.
        corpus = generate_corpus(ScenarioConfig(seed=1, n_episodes=6))
        catalog = catalog_from_sequences(corpus)
        stats = fit_feature_stats(corpus)
        for seq in corpus:
            steps = encode_steps(seq, catalog, stats)
            held = sum(v.nbytes for v in vars(steps).values() if isinstance(v, np.ndarray))
            assert held <= 40 * steps.T

    @staticmethod
    def columns(T=3):
        return dict(step_feature=np.arange(T) % 2, step_value=np.ones(T),
                    step_log_dt=np.zeros(T), step_time=np.arange(T, dtype=float),
                    step_raw=np.ones(T))

    def test_valid_columns_accepted(self):
        steps = StepSeries(**self.columns(), d_features=2)
        assert (steps.T, steps.d) == (3, 5)

    @pytest.mark.parametrize("name", ["step_feature", "step_value", "step_log_dt",
                                      "step_time", "step_raw"])
    def test_columns_of_unequal_length_rejected(self, name):
        columns = self.columns()
        columns[name] = columns[name][:2]
        with pytest.raises(ValueError, match="one length"):
            StepSeries(**columns, d_features=2)

    @pytest.mark.parametrize("feature", [-1, 2])
    def test_feature_outside_the_catalog_rejected(self, feature):
        columns = self.columns()
        columns["step_feature"][1] = feature
        with pytest.raises(ValueError, match=r"in \[0, 2\)"):
            StepSeries(**columns, d_features=2)

    def test_decreasing_times_rejected(self):
        columns = self.columns()
        columns["step_time"] = np.array([0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            StepSeries(**columns, d_features=2)
