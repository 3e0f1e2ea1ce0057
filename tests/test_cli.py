import csv
import hashlib
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import astuple, asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftscope import attribution, cli, evaluation, synth
from driftscope.alerts import AlertRule
from driftscope.bin_stats import BINS_PER_FEATURE, BinTable
from driftscope.cli import main
from driftscope.evaluation import METHODS, MethodContext, prepare_episodes, run_benchmark
from driftscope.events import StepSeries, parse_event_log
from driftscope.model import ModelConfig, load_checkpoint
from driftscope.tables import read_csv


def run(*args):
    return main([str(a) for a in args])


def csv_cell(value) -> str:
    """A cell as write_csv formats it: floats with %.10g, others with str."""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run("gen-data", "--out-dir", out, "--n-episodes", "24",
               "--deterioration-fraction", "0.6", "--seed", "3") == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("model")
    assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
               "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
               "--eta", "0.005") == 0
    return out


class TestGenData:
    def test_episode_count_and_byte_stability(self, data_dir, tmp_path):
        events = (data_dir / "events.jsonl").read_text()
        episodes = {json.loads(ln)["episode"] for ln in events.splitlines()}
        assert len(episodes) == 24
        again = tmp_path / "again"
        assert run("gen-data", "--out-dir", again, "--n-episodes", "24",
                   "--deterioration-fraction", "0.6", "--seed", "3") == 0
        assert (again / "events.jsonl").read_text() == events
        assert (again / "episodes.jsonl").read_text() == (data_dir / "episodes.jsonl").read_text()

    def test_zero_fraction_all_negative(self, tmp_path):
        out = tmp_path / "clean"
        assert run("gen-data", "--out-dir", out, "--n-episodes", "10",
                   "--deterioration-fraction", "0", "--seed", "1") == 0
        metas = [json.loads(ln) for ln in (out / "episodes.jsonl").read_text().splitlines()]
        assert all(m["outcome"] == 0 for m in metas)
        assert all(m["first_positive_checkpoint_s"] is None for m in metas)

    def test_full_fraction_all_positive_at_some_checkpoint(self, tmp_path):
        out = tmp_path / "sick"
        assert run("gen-data", "--out-dir", out, "--n-episodes", "10",
                   "--deterioration-fraction", "1", "--seed", "1") == 0
        metas = [json.loads(ln) for ln in (out / "episodes.jsonl").read_text().splitlines()]
        assert all(m["outcome"] == 1 for m in metas)
        assert all(m["first_positive_checkpoint_s"] is not None for m in metas)

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        assert run("gen-data", "--out-dir", tmp_path, "--n-episodes", "10",
                   "--deterioration-fraction", "1.5") == 1

    def test_negative_episode_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert run("gen-data", "--out-dir", out, "--n-episodes", "-3") == 1
        assert "usage error: n_episodes must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, digests", [
        (["--n-episodes", "12", "--deterioration-fraction", "0.5", "--duration-hours", "36",
          "--seed", "5"],
         {"events.jsonl": "3d4cec3b6bc3aa0421905e270cf221278851b8f3c0fc5f4f221a71bd200a5108",
          "episodes.jsonl": "70144d6d4b6f1ca01a80e25829c1ea49c80791505ff59fd8641fa38aa693200d"}),
        (["--n-episodes", "20", "--deterioration-fraction", "1.0", "--duration-hours", "72",
          "--seed", "9"],
         {"events.jsonl": "9c0860b0303365350bb1ea4d3a5e097ba09ba16890ca279bd542dfea13f2123a",
          "episodes.jsonl": "f95a2158a1d32be724970cc1385302fade38da3a3b8a93fb98003bd03d3d4743"}),
    ], ids=["36h-seed5", "72h-seed9"])
    def test_generated_bytes_are_pinned(self, tmp_path, flags, digests):
        # Digests of the per-event generator and json.dumps writer that came
        # before the columnar ones; any change to the generated data shows here.
        assert run("gen-data", "--out-dir", tmp_path, *flags) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_no_episodes_give_empty_files(self, tmp_path):
        # a JSON-lines file with no records is empty, not one blank line
        assert run("gen-data", "--out-dir", tmp_path, "--n-episodes", "0") == 0
        for name in ("events.jsonl", "episodes.jsonl"):
            assert (tmp_path / name).read_bytes() == b"", name

    def test_outputs_get_the_umask_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run("gen-data", "--out-dir", tmp_path, "--n-episodes", "4", "--seed", "1") == 0
        finally:
            os.umask(old)
        for name in ("events.jsonl", "episodes.jsonl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "checkpoint.json").exists()
        assert (trained_dir / "bins.json").exists()
        header, rows = read_csv(trained_dir / "train_report.csv")
        assert header == ["phase", "epoch", "train_loss", "val_loss", "val_auroc"]
        assert rows

    def test_max_epochs_zero_keeps_initial_params(self, data_dir, tmp_path):
        out = tmp_path / "m0"
        assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
                   "--hidden-size", "8", "--max-epochs", "0", "--seed", "4") == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert all(v == 0.0 for v in ckpt["params"]["w_out"])
        header, rows = read_csv(out / "train_report.csv")
        assert rows == []

    def test_rerun_reproduces_checkpoint_bytes(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
                       "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
                       "--eta", "0.005") == 0
            outs.append((out / "checkpoint.json").read_text())
        assert outs[0] == outs[1]

    def test_eta_changes_report(self, data_dir, tmp_path):
        reports = []
        for name, eta in (("e0", "0"), ("e1", "0.005")):
            out = tmp_path / name
            assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
                       "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
                       "--eta", eta) == 0
            reports.append((out / "train_report.csv").read_text())
        assert reports[0] != reports[1]

    def test_encodes_only_the_splits_training_reads(self, data_dir, trained_dir, tmp_path,
                                                    monkeypatch):
        encoded = []

        def encode_spy(seq, *args):
            encoded.append(seq.split)
            return encode_steps(seq, *args)

        encode_steps = cli.encode_steps
        monkeypatch.setattr(cli, "encode_steps", encode_spy)
        out = tmp_path / "model"
        assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
                   "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
                   "--eta", "0.005") == 0
        splits = [json.loads(ln)["split"]
                  for ln in (data_dir / "episodes.jsonl").read_text().splitlines()]
        assert "test" in splits
        assert sorted(encoded) == sorted(s for s in splits if s != "test")
        for name in ("checkpoint.json", "bins.json", "train_report.csv"):
            assert (out / name).read_bytes() == (trained_dir / name).read_bytes(), name

    def test_missing_events_is_data_error(self, tmp_path):
        assert run("train", "--events", tmp_path / "nope.jsonl",
                   "--out-dir", tmp_path) == 2

    def test_one_bin_per_feature_is_usage_error(self, data_dir, tmp_path):
        assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", tmp_path,
                   "--bins-per-feature", "1") == 1
        assert not any(tmp_path.iterdir())


class TestAlerts:
    def test_alert_csv_schema(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "alerts"
        assert run("alerts", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--out-dir", out, "--min-new-events", "1") == 0
        header, rows = read_csv(out / "alerts.csv")
        assert header == ["episode", "t0", "t1", "t0_time_s", "t1_time_s",
                          "p0", "p1", "new_events"]
        for r in rows:
            assert float(r[6]) >= 0.2
            assert int(r[2]) > int(r[1])


class TestExplain:
    def test_k1_one_row_per_window_method(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "expl"
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--bins", trained_dir / "bins.json",
                   "--out-dir", out, "--k", "1", "--m", "8", "--seed", "5") == 0
        _, wrows = read_csv(out / "windows.csv")
        _, erows = read_csv(out / "explanations.csv")
        n_methods = len({r[1] for r in erows})
        assert n_methods == 8
        assert len(erows) == len(wrows) * n_methods
        assert all(r[2] == "1" for r in erows)

    def test_rows_respect_window_and_distinctness(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "expl3"
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--out-dir", out, "--k", "3", "--m", "8", "--seed", "5") == 0
        _, wrows = read_csv(out / "windows.csv")
        bounds = {r[0]: (int(r[1]), int(r[2])) for r in wrows}
        _, erows = read_csv(out / "explanations.csv")
        seen = {}
        for episode, method, rank, step, _, feature, _, _ in erows:
            t0, t1 = bounds[episode]
            assert t0 < int(step) <= t1
            key = (episode, method)
            assert feature not in seen.setdefault(key, set())
            seen[key].add(feature)
        assert (out / "risk_series.csv").exists()

    def test_repeated_method_gives_one_row(self, data_dir, trained_dir, tmp_path):
        outputs = []
        for i, methods in enumerate(["discrete_derivative",
                                     "discrete_derivative,discrete_derivative"]):
            expl, res = tmp_path / f"expl{i}", tmp_path / f"res{i}"
            assert run("explain", "--events", data_dir / "events.jsonl",
                       "--checkpoint", trained_dir / "checkpoint.json",
                       "--out-dir", expl, "--methods", methods, "--seed", "5") == 0
            assert run("evaluate", "--events", data_dir / "events.jsonl",
                       "--explanations", expl / "explanations.csv",
                       "--windows", expl / "windows.csv", "--out-dir", res, "--seed", "5") == 0
            outputs.append([(expl / "explanations.csv").read_bytes(),
                            (res / "results.csv").read_bytes()])
        assert outputs[1] == outputs[0]

    def test_unknown_method_is_usage_error(self, data_dir, trained_dir, tmp_path):
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--out-dir", tmp_path, "--methods", "sorcery") == 1

    def test_alert_windows_mode(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "alertwin"
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--out-dir", out, "--windows", "alerts", "--min-new-events", "1",
                   "--methods", "random", "--seed", "5") == 0
        _, wrows = read_csv(out / "windows.csv")
        assert all(r[5] == "alert" for r in wrows)

    def test_model_without_attention_head(self, data_dir, tmp_path, capsys):
        model = tmp_path / "model"
        assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", model,
                   "--hidden-size", "8", "--max-epochs", "1", "--seed", "4",
                   "--no-attention") == 0
        assert "w_att" not in json.loads((model / "checkpoint.json").read_text())["params"]
        explain = ["explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", model / "checkpoint.json", "--bins", model / "bins.json"]
        capsys.readouterr()
        assert run(*explain, "--out-dir", tmp_path / "att", "--methods", "attention") == 2
        assert "attention" in capsys.readouterr().err
        assert not (tmp_path / "att" / "explanations.csv").exists()
        assert run(*explain, "--out-dir", tmp_path / "grad", "--methods", "gradient") == 0
        _, rows = read_csv(tmp_path / "grad" / "explanations.csv")
        assert rows and {r[1] for r in rows} == {"gradient"}

    def test_window_from_episode_start(self, trained_dir, tmp_path):
        # Positive at the first 3 h checkpoint (creatinine +0.4 mg/dl), so the
        # window runs from episode start: (0, 4].
        events = [(1800.0, "creatinine", 1.0), (3600.0, "heart_rate", 82.0),
                  (7200.0, "creatinine", 1.4), (9000.0, "glucose", 120.0),
                  (14400.0, "heart_rate", 90.0)]
        log = tmp_path / "events.jsonl"
        log.write_text("".join(json.dumps({"episode": "early", "time_s": t, "feature": f,
                                           "value": v, "outcome": 1, "split": "test"}) + "\n"
                               for t, f, v in events))
        out = tmp_path / "expl"
        assert run("explain", "--events", log, "--checkpoint", trained_dir / "checkpoint.json",
                   "--bins", trained_dir / "bins.json", "--out-dir", out, "--m", "8") == 0
        _, wrows = read_csv(out / "windows.csv")
        assert [r[:3] for r in wrows] == [["early", "0", "4"]]
        _, erows = read_csv(out / "explanations.csv")
        ig_steps = [int(r[3]) for r in erows if r[1] == "integrated_gradients"]
        assert ig_steps and all(1 <= j <= 4 for j in ig_steps)

    @pytest.mark.parametrize("windows", ["checkpoints", "alerts"])
    def test_alerts_and_explain_do_not_load_numpy_ma(self, data_dir, trained_dir, tmp_path,
                                                      windows):
        # np.unique (say, for the first event per feature) and np.quantile
        # (say, for the bootstrap interval) import numpy.ma, which costs 1.7 MB
        # per run.
        events = ["--events", str(data_dir / "events.jsonl"), "--out-dir", str(tmp_path)]
        common = [*events, "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--min-new-events", "1", "--ratio-threshold", "1.001"]
        scored = [*events, "--explanations", str(tmp_path / "explanations.csv"),
                  "--windows", str(tmp_path / "windows.csv"), "--resamples", "50"]
        code = ("import sys; from driftscope.cli import main; "
                f"assert main(['alerts', *{common!r}]) == 0; "
                f"assert main(['explain', *{common!r}, '--methods', 'all', '--m', '4', "
                f"'--bins', {str(trained_dir / 'bins.json')!r}, '--windows', {windows!r}]) == 0; "
                f"assert main(['evaluate', *{scored!r}]) == 0; "
                "print('numpy.ma' in sys.modules)")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip().splitlines()[-1] == "False"
        for name in ("alerts.csv", "explanations.csv", "results.csv"):
            assert read_csv(tmp_path / name)[1], name

    def test_integrated_gradients_summary_and_bounded_memory_at_large_m(
            self, data_dir, trained_dir, tmp_path, capsys, monkeypatch):
        # Path points run in calls of at most IG_ROWS rows, so the peak of
        # traced allocations does not grow with --m; stderr sums up the ladder.
        # No window is complete to a tolerance of 0, so every one ends at m.
        monkeypatch.setattr(attribution, "IG_TOLERANCE", 0.0)
        episodes = [json.loads(ln) for ln in (data_dir / "episodes.jsonl").read_text().splitlines()]
        windowed = [e["episode"] for e in episodes if e["first_positive_checkpoint_s"]][:2]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            ln for ln in (data_dir / "events.jsonl").read_text().splitlines(keepends=True)
            if json.loads(ln)["episode"] in windowed))
        peaks, lines = {}, {}
        for m in (64, 4096):
            tracemalloc.start()
            try:
                assert run("explain", "--events", events,
                           "--checkpoint", trained_dir / "checkpoint.json",
                           "--bins", trained_dir / "bins.json", "--out-dir", tmp_path / str(m),
                           "--methods", "integrated_gradients", "--m", m) == 0
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lines[m] = capsys.readouterr().err.strip()
        assert peaks[4096] < 1.5 * peaks[64], peaks
        n = len(read_csv(tmp_path / "64" / "windows.csv")[1])
        assert n == 2
        for m, line in lines.items():
            found = re.fullmatch(r"integrated_gradients: (\d+) windows, (\d+) path points of "
                                 r"m x windows = (\d+), (\d+) at the cap m = (\d+), largest "
                                 r"completeness residual (\S+)", line)
            assert found, line
            assert int(found[1]) == int(found[4]) == n and int(found[5]) == m
            assert int(found[3]) == m * n and float(found[6]) >= 0.0
        assert [int(re.search(r"(\d+) path points", lines[m])[1]) for m in lines] == [
            (24 + 64) * n, (1944 + 4096) * n]  # the nested rungs below m, then m
        assert run("explain", "--events", events,
                   "--checkpoint", trained_dir / "checkpoint.json",
                   "--bins", trained_dir / "bins.json", "--out-dir", tmp_path / "no-ig",
                   "--methods", "gradient") == 0
        assert capsys.readouterr().err == ""


def _edit(change):
    """A defect made by changing the payload in place."""
    def apply(payload):
        change(payload)
        return payload
    return apply


def _stat(payload):
    """The normalization stats of the first feature that is not degenerate."""
    return next(s for s in payload["stats"].values() if not s["degenerate"])


def _rename_config_key(payload):
    payload["config"]["hidden_sz"] = payload["config"].pop("hidden_size")


# Each defect turns a trained checkpoint's payload into one that parses as
# JSON but does not fit its own config and catalog, or lacks the form of one.
CHECKPOINT_DEFECTS = {
    "w_gates_columns": _edit(lambda p: [row.pop() for row in p["params"]["w_gates"]]),
    "w_gates_rows": _edit(lambda p: p["params"]["w_gates"].pop()),
    "u_gates_columns": _edit(lambda p: [row.append(0.0) for row in p["params"]["u_gates"]]),
    "b_gates_length_1": _edit(lambda p: p["params"].update(b_gates=[0.0])),
    "w_out_length": _edit(lambda p: p["params"]["w_out"].append(0.0)),
    "b_out_length_2": _edit(lambda p: p["params"].update(b_out=[0.0, 0.0])),
    "w_att_columns": _edit(lambda p: [row.pop() for row in p["params"]["w_att"]]),
    "missing_u_gates": _edit(lambda p: p["params"].pop("u_gates")),
    "payload_d": _edit(lambda p: p.update(d=p["d"] + 2)),
    "hidden_size": _edit(lambda p: p["config"].update(hidden_size=p["config"]["hidden_size"] + 1)),
    "non_finite_weight": _edit(lambda p: p["params"]["w_out"].__setitem__(0, float("nan"))),
    "huge_int_weight": _edit(lambda p: p["params"]["w_out"].__setitem__(0, 10**400)),
    "config_key_misnamed": _edit(_rename_config_key),
    "missing_stats": _edit(lambda p: p.pop("stats")),
    "nan_stats_mean": _edit(lambda p: _stat(p).update(mean=float("nan"))),
    "huge_int_stats_mean": _edit(lambda p: _stat(p).update(mean=10**400)),
    "zero_stats_std": _edit(lambda p: _stat(p).update(std=0.0)),
    "stats_lo_above_hi": _edit(lambda p: _stat(p).update(lo=_stat(p)["hi"] + 1.0)),
    "missing_catalog": _edit(lambda p: p.pop("catalog")),
    "missing_config": _edit(lambda p: p.pop("config")),
    "missing_params": _edit(lambda p: p.pop("params")),
    "non_object_payload": lambda p: [p],
}


class TestCheckpointChecks:
    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_malformed_checkpoint_is_data_error(self, data_dir, trained_dir, tmp_path,
                                                capsys, defect):
        payload = CHECKPOINT_DEFECTS[defect](json.loads((trained_dir / "checkpoint.json").read_text()))
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "expl"
        assert run("explain", "--events", data_dir / "events.jsonl", "--checkpoint", ckpt,
                   "--out-dir", out, "--methods", "gradient,attention") == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_stats_mean_alerts_is_data_error(self, data_dir, trained_dir, tmp_path, capsys):
        payload = CHECKPOINT_DEFECTS["nan_stats_mean"](
            json.loads((trained_dir / "checkpoint.json").read_text()))
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "alerts"
        assert run("alerts", "--events", data_dir / "events.jsonl", "--checkpoint", ckpt,
                   "--out-dir", out, "--min-new-events", "1") == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()


def _widest(payload):
    """The bins of the feature with the most cuts."""
    return max(payload.values(), key=lambda fb: len(fb["cuts"]))


# Each defect turns a trained bins.json payload into one that parses as JSON
# but is not a bin table as `fit_bins` writes it.
BINS_DEFECTS = {
    "list_payload": lambda p: [p],
    "feature_not_object": _edit(lambda p: p.update({next(iter(p)): 3})),
    "missing_pos": _edit(lambda p: _widest(p).pop("pos")),
    "short_pos": _edit(lambda p: _widest(p)["pos"].pop()),
    "long_neg": _edit(lambda p: _widest(p)["neg"].append(0)),
    "negative_count": _edit(lambda p: _widest(p)["neg"].__setitem__(0, -1)),
    "fractional_count": _edit(lambda p: _widest(p)["pos"].__setitem__(0, 0.5)),
    "reversed_cuts": _edit(lambda p: _widest(p)["cuts"].reverse()),
    "non_finite_cut": _edit(lambda p: _widest(p)["cuts"].__setitem__(0, float("nan"))),
    "huge_int_cut": _edit(lambda p: _widest(p)["cuts"].__setitem__(-1, 10**400)),
    "mean_bin_99": _edit(lambda p: _widest(p).update(mean_bin=99)),
    "mean_bin_negative": _edit(lambda p: _widest(p).update(mean_bin=-1)),
}


@pytest.mark.parametrize("defect", sorted(BINS_DEFECTS))
def test_malformed_bins_is_data_error(data_dir, trained_dir, tmp_path, capsys, monkeypatch,
                                      defect):
    # the bin table is checked before the model scans any episode
    prepared = []
    prepare = cli.prepare_episodes
    monkeypatch.setattr(cli, "prepare_episodes", lambda *a: prepared.append(a) or prepare(*a))
    payload = json.loads((trained_dir / "bins.json").read_text())
    assert len(_widest(payload)["cuts"]) >= 2
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps(BINS_DEFECTS[defect](payload)))
    out = tmp_path / "expl"
    assert run("explain", "--events", data_dir / "events.jsonl",
               "--checkpoint", trained_dir / "checkpoint.json", "--bins", bins,
               "--out-dir", out, "--methods", "odds_ratio") == 2
    assert "bin" in capsys.readouterr().err
    assert prepared == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "alerts", "explain"])
@pytest.mark.parametrize("field, value", [("value", float("nan")), ("time_s", float("inf"))])
def test_non_finite_event_is_data_error(data_dir, trained_dir, tmp_path, capsys,
                                        command, field, value):
    lines = (data_dir / "events.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec[field] = value
    lines[0] = json.dumps(rec)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    args = ["--events", events, "--out-dir", out]
    if command != "train":
        args += ["--checkpoint", trained_dir / "checkpoint.json"]
    assert run(command, *args) == 2
    assert "line 1: time_s and value must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["alerts", "explain"])
def test_feature_outside_the_catalog_is_data_error(data_dir, trained_dir, tmp_path, capsys,
                                                   command):
    lines = (data_dir / "events.jsonl").read_text().splitlines()
    rec = json.loads(lines[10])
    rec["feature"] = "pulse"
    lines[10] = json.dumps(rec)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(command, "--events", events, "--checkpoint", trained_dir / "checkpoint.json",
               "--out-dir", out) == 2
    assert "data error: line 11: unknown feature identifier 'pulse'" in capsys.readouterr().err
    assert not out.exists()


# Flag values that are not finite. The alert ones would leave the rule's check
# schedule without an end; `explain` reads the same rule flags.
@pytest.mark.parametrize("command, flag, value", [
    ("alerts", "--interval-hours", "nan"),
    ("alerts", "--horizon-hours", "inf"),
    ("alerts", "--anchor-hours", "nan"),
    ("alerts", "--ratio-threshold", "nan"),
    ("explain", "--interval-hours", "nan"),
    ("explain", "--ratio-threshold", "inf"),
    ("gen-data", "--duration-hours", "nan"),
    ("train", "--clip-norm", "nan"),
    ("train", "--learning-rate", "inf"),
])
def test_non_finite_flag_is_usage_error(data_dir, trained_dir, tmp_path, capsys,
                                        command, flag, value):
    events = ["--events", data_dir / "events.jsonl"]
    model = [*events, "--checkpoint", trained_dir / "checkpoint.json"]
    args = {"gen-data": [], "train": events, "alerts": model,
            "explain": [*model, "--windows", "alerts"]}[command]
    out = tmp_path / "out"
    assert run(command, *args, "--out-dir", out, flag, value) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# 1e-9 h is about 1.2e10 checks from anchor to horizon, each step far apart.
def test_tiny_check_interval_finishes(data_dir, trained_dir, tmp_path):
    model = ["--events", data_dir / "events.jsonl", "--checkpoint", trained_dir / "checkpoint.json"]
    rule = ["--interval-hours", "1e-9", "--all-alerts", "--min-new-events", "0",
            "--ratio-threshold", "1.001"]
    assert run("alerts", *model, "--out-dir", tmp_path / "a", *rule) == 0
    _, alerts = read_csv(tmp_path / "a" / "alerts.csv")
    # Every step from the anchor to the horizon is read by some check, except
    # a step followed by another at the same time.
    params, _, catalog, stats = load_checkpoint(trained_dir / "checkpoint.json")
    with open(data_dir / "events.jsonl", encoding="utf-8") as fh:
        raw = parse_event_log(fh, catalog=catalog)
    want = []
    for ep in prepare_episodes(params, stats, catalog, raw):
        times, p = ep.risk.step_time, ep.risk.p
        anchor = int(np.searchsorted(times, 12 * 3600.0 + 1e-9, side="right")) - 1
        if anchor < 0:
            continue
        gaps = np.append(np.diff(times), np.inf)
        assert np.all((gaps == 0.0) | (gaps > 1e-9 * 3600.0))
        end = int(np.searchsorted(times, 24 * 3600.0 + 1e-9, side="right"))
        threshold = max(0.2, 1.001 * p[anchor])
        want += [(ep.episode_id, str(j + 1)) for j in range(anchor + 1, end)
                 if gaps[j] > 0.0 and p[j] >= threshold]
    assert want and [(r[0], r[2]) for r in alerts] == sorted(want, key=lambda a: (a[0], int(a[1])))
    assert run("explain", *model, "--out-dir", tmp_path / "x", "--windows", "alerts",
               "--methods", "random", *rule) == 0
    _, windows = read_csv(tmp_path / "x" / "windows.csv")
    assert [(w[0], w[1], w[2]) for w in windows] == [(a[0], a[1], a[2]) for a in alerts]


@pytest.mark.parametrize("flag", ["--checkpoint", "--bins"])
def test_deeply_nested_json_is_data_error(data_dir, trained_dir, tmp_path, capsys, flag):
    inputs = {"--events": data_dir / "events.jsonl",
              "--checkpoint": trained_dir / "checkpoint.json",
              "--bins": trained_dir / "bins.json"}
    inputs[flag] = tmp_path / "deep.json"
    inputs[flag].write_text("[" * 100_000)
    out = tmp_path / "out"
    assert run("explain", *(a for pair in inputs.items() for a in pair), "--out-dir", out,
               "--methods", "odds_ratio") == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert not out.exists()


def _inputs(command, data_dir, trained_dir, explained):
    """Every input flag of ``command`` with a valid file."""
    events = {"--events": data_dir / "events.jsonl"}
    model = {**events, "--checkpoint": trained_dir / "checkpoint.json"}
    return {
        "gen-data": {"--n-episodes": "4"},
        "train": {**events, "--max-epochs": "0"},
        "alerts": model,
        "explain": {**model, "--bins": trained_dir / "bins.json", "--methods": "odds_ratio"},
        "evaluate": {**events, "--explanations": explained / "explanations.csv",
                     "--windows": explained / "windows.csv"},
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("train", "--events"), ("alerts", "--checkpoint"), ("explain", "--bins"),
    ("evaluate", "--windows"),
])
def test_directory_as_input_is_data_error(data_dir, trained_dir, explained, tmp_path, capsys,
                                          command, flag):
    inputs = _inputs(command, data_dir, trained_dir, explained)
    inputs[flag] = tmp_path
    assert run(command, *(a for pair in inputs.items() for a in pair),
               "--out-dir", tmp_path / "out") == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, text", [
    ("train", "--events", None),
    ("train", "--events", '{"episode": "e"}\n'),
    ("alerts", "--checkpoint", None),
    ("alerts", "--events", "not json\n"),
    ("explain", "--events", None),
    ("explain", "--checkpoint", "{}"),
    ("explain", "--bins", "[]"),
    ("evaluate", "--windows", None),
    ("evaluate", "--explanations", "episode,method\n"),
])
def test_rejected_input_leaves_no_out_dir(data_dir, trained_dir, explained, tmp_path, capsys,
                                          command, flag, text):
    """A missing (text None) or malformed input is a data error, and the
    command creates no output directory."""
    inputs = _inputs(command, data_dir, trained_dir, explained)
    inputs[flag] = tmp_path / "input"
    if text is not None:
        inputs[flag].write_text(text)
    out = tmp_path / "out" / "nested"
    assert run(command, *(a for pair in inputs.items() for a in pair), "--out-dir", out) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "alerts", "explain", "evaluate"])
def test_out_dir_that_is_a_file_is_data_error(data_dir, trained_dir, explained, tmp_path,
                                              capsys, command):
    inputs = _inputs(command, data_dir, trained_dir, explained)
    out = tmp_path / "out"
    out.write_bytes(b"keep me\n")
    assert run(command, *(a for pair in inputs.items() for a in pair), "--out-dir", out) == 2
    assert "data error" in capsys.readouterr().err
    assert out.read_bytes() == b"keep me\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_diverged_training_leaves_no_out_dir(data_dir, tmp_path, capsys):
    # a smoothing coefficient near the float maximum overflows the loss gradient
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", out,
                   "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
                   "--eta", "1e308") == 3
    assert "numeric failure: non-finite risk loss" in capsys.readouterr().err
    assert not out.exists()


def test_train_makes_the_checkpoint_directory(data_dir, trained_dir, tmp_path):
    ckpt = tmp_path / "elsewhere" / "deeper" / "model.json"
    assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", tmp_path / "out",
               "--checkpoint", ckpt, "--hidden-size", "8", "--max-epochs", "2", "--seed", "4",
               "--eta", "0.005") == 0
    assert ckpt.read_bytes() == (trained_dir / "checkpoint.json").read_bytes()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["bins.json",
                                                                    "train_report.csv"]


@pytest.fixture(scope="module")
def explained(data_dir, trained_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("explained")
    assert run("explain", "--events", data_dir / "events.jsonl",
               "--checkpoint", trained_dir / "checkpoint.json",
               "--bins", trained_dir / "bins.json",
               "--out-dir", out, "--k", "3", "--m", "8", "--seed", "5") == 0
    return out


class TestEvaluate:
    def test_results_schema(self, data_dir, explained, tmp_path):
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", explained / "windows.csv",
                   "--out-dir", out, "--seed", "5") == 0
        header, rows = read_csv(out / "results.csv")
        assert header == ["method", "k", "mean_precision", "ci_lo", "ci_hi", "n_windows"]
        assert len(rows) == 8
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
            assert float(r[3]) <= float(r[2]) <= float(r[4])
        assert (out / "truth_windows.jsonl").exists()

    def test_method_rows_are_isolated(self, data_dir, explained, tmp_path):
        # Scoring a subset of methods must reproduce those rows byte-identically.
        full_out = tmp_path / "full"
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", explained / "windows.csv",
                   "--out-dir", full_out, "--seed", "5") == 0
        lines = (explained / "explanations.csv").read_text().splitlines()
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join(
            [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[1] == "random"]
        ) + "\n")
        sub_out = tmp_path / "sub"
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", subset,
                   "--windows", explained / "windows.csv",
                   "--out-dir", sub_out, "--seed", "5") == 0
        full_rows = (full_out / "results.csv").read_text().splitlines()
        sub_rows = (sub_out / "results.csv").read_text().splitlines()
        random_full = [r for r in full_rows if r.startswith("random,")]
        random_sub = [r for r in sub_rows if r.startswith("random,")]
        assert random_full == random_sub

    def test_empty_evaluation_is_data_error(self, data_dir, explained, tmp_path):
        empty = tmp_path / "w.csv"
        empty.write_text("episode,t0,t1,t0_time_s,t1_time_s,source\n")
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", empty, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("windows", ["none", "no truth"])
    def test_nothing_to_score_writes_nothing(self, data_dir, tmp_path, capsys, windows):
        audit = [json.loads(ln) for ln in (data_dir / "episodes.jsonl").read_text().splitlines()]
        negative = next(r["episode"] for r in audit if r["first_positive_checkpoint_s"] is None)
        rows = {"none": "", "no truth": f"{negative},0,2,0,3600,checkpoint\n"}[windows]
        (tmp_path / "windows.csv").write_text(",".join(cli.WINDOWS_HEADER) + "\n" + rows)
        (tmp_path / "explanations.csv").write_text(",".join(cli.EXPLANATIONS_HEADER) + "\n")
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", tmp_path / "explanations.csv",
                   "--windows", tmp_path / "windows.csv", "--out-dir", out) == 2
        assert "empty evaluation" in capsys.readouterr().err
        assert not out.exists()


    def test_ranks_above_k_are_data_error(self, data_dir, trained_dir, tmp_path):
        expl = tmp_path / "expl"
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json", "--out-dir", expl,
                   "--methods", "gradient,discrete_derivative", "--k", "2", "--seed", "5") == 0
        ranks = {row[2] for row in read_csv(expl / "explanations.csv")[1]}
        assert "2" in ranks
        args = ["evaluate", "--events", data_dir / "events.jsonl",
                "--explanations", expl / "explanations.csv", "--windows", expl / "windows.csv"]
        assert run(*args, "--out-dir", tmp_path / "k1", "--k", "1") == 2
        assert not (tmp_path / "k1" / "results.csv").exists()
        assert run(*args, "--out-dir", tmp_path / "k3", "--k", "3") == 0
        assert (tmp_path / "k3" / "results.csv").exists()

    def test_ranks_below_one_are_data_error(self, data_dir, explained, tmp_path, capsys):
        lines = (explained / "explanations.csv").read_text().splitlines()
        row = next(ln.split(",") for ln in lines[1:] if ln.split(",")[1] == "random")
        expl = tmp_path / "expl.csv"
        args = ["evaluate", "--events", data_dir / "events.jsonl",
                "--explanations", expl, "--windows", explained / "windows.csv"]
        for rank in ("0", "-1"):
            expl.write_text("\n".join(lines + [",".join(row[:2] + [rank] + row[3:])]) + "\n")
            out = tmp_path / f"rank{rank}"
            assert run(*args, "--out-dir", out) == 2
            err = capsys.readouterr().err
            assert (f"data error: {expl}: rank {rank} of episode {row[0]!r}, "
                    f"method 'random' is below 1") in err
            assert not (out / "results.csv").exists()

    def test_duplicated_rows_are_data_error(self, data_dir, explained, tmp_path, capsys):
        # A file concatenated with itself would score every explanation twice.
        lines = (explained / "explanations.csv").read_text().splitlines()
        expl = tmp_path / "expl.csv"
        expl.write_text("\n".join(lines + lines[1:]) + "\n")
        windows = explained / "windows.csv"
        args = ["evaluate", "--events", data_dir / "events.jsonl", "--explanations", expl]
        out = tmp_path / "res"
        assert run(*args, "--windows", windows, "--out-dir", out) == 2
        episode, method, rank = lines[1].split(",")[:3]
        assert (f"data error: {expl}: episode {episode!r}, method {method!r} has more rows "
                f"of rank {rank} than its 1 window(s) in {windows}") in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_event_ranked_more_often_than_its_windows_is_data_error(self, data_dir, explained,
                                                                     tmp_path, capsys):
        # One event at ranks 1, 2 and 3 of one window would be scored three
        # times, which raised that window's precision.
        lines = (explained / "explanations.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        first = next(r for r in rows if r[1] == "gradient" and r[2] == "1")
        for r in rows:
            if r[:2] == first[:2] and r[2] in ("2", "3"):
                r[3:6] = first[3:6]
        assert sum(r[:2] == first[:2] and r[3] == first[3] for r in rows) == 3
        expl = tmp_path / "expl.csv"
        expl.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        windows = explained / "windows.csv"
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl", "--explanations", expl,
                   "--windows", windows, "--out-dir", out) == 2
        assert (f"data error: {expl}: episode {first[0]!r}, method 'gradient' ranks step "
                f"{first[3]} ({first[5]!r}) more often than the 1 window(s) in {windows} that "
                f"contain it" in capsys.readouterr().err)
        assert not (out / "results.csv").exists()

    def test_explanations_of_an_episode_without_window_are_data_error(
            self, data_dir, explained, tmp_path, capsys):
        # Such rows could never be scored; they point at the wrong windows file.
        windows = (explained / "windows.csv").read_text().splitlines()
        episode = windows[1].split(",")[0]
        others = tmp_path / "windows.csv"
        others.write_text("\n".join(ln for ln in windows if not ln.startswith(episode + ","))
                          + "\n")
        expl = explained / "explanations.csv"
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl", "--explanations", expl,
                   "--windows", others, "--out-dir", out) == 2
        assert (f"data error: {expl}: episode {episode!r} has no window in {others}"
                in capsys.readouterr().err)
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("edit", ["step_before_window", "other_feature"])
    def test_row_that_is_no_window_event_is_data_error(self, data_dir, explained, tmp_path,
                                                       capsys, edit):
        # A row naming a step outside its episode's windows, or a feature its
        # step does not carry, would be scored as if explain had chosen it.
        lines = (explained / "explanations.csv").read_text().splitlines()
        row = lines[1].split(",")
        windows = explained / "windows.csv"
        t0 = next(int(w[1]) for w in read_csv(windows)[1] if w[0] == row[0])
        if edit == "step_before_window":
            row[3] = str(t0)
        else:
            row[5] = "urine_rate" if row[5] == "creatinine" else "creatinine"
        expl = tmp_path / "expl.csv"
        expl.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl", "--explanations", expl,
                   "--windows", windows, "--out-dir", out) == 2
        assert (f"data error: {expl}: step {row[3]} of episode {row[0]!r} is no {row[5]!r} "
                f"event inside its windows in {windows}" in capsys.readouterr().err)
        assert not (out / "results.csv").exists()

    def test_window_listed_twice_is_data_error(self, data_dir, explained, tmp_path, capsys):
        # A repeated window would be scored twice, which shifts every mean.
        windows = (explained / "windows.csv").read_text().splitlines()
        twice = tmp_path / "windows.csv"
        twice.write_text("\n".join(windows + windows[-1:]) + "\n")
        episode, t0, t1 = windows[-1].split(",")[:3]
        out = tmp_path / "res"
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", twice, "--out-dir", out) == 2
        assert (f"data error: {twice}: window ({t0}, {t1}] of episode {episode!r} is listed "
                f"more than once" in capsys.readouterr().err)
        assert not (out / "results.csv").exists()

    def test_all_alerts_output_is_scored(self, data_dir, trained_dir, tmp_path):
        expl = tmp_path / "expl"
        assert run("explain", "--events", data_dir / "events.jsonl",
                   "--checkpoint", trained_dir / "checkpoint.json", "--out-dir", expl,
                   "--windows", "alerts", "--all-alerts", "--min-new-events", "1",
                   "--ratio-threshold", "1.001", "--floor", "0.01",
                   "--methods", "random,discrete_derivative", "--seed", "5") == 0
        episodes = [r[0] for r in read_csv(expl / "windows.csv")[1]]
        assert len(set(episodes)) < len(episodes)  # some episode has several windows
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", expl / "explanations.csv",
                   "--windows", expl / "windows.csv", "--out-dir", tmp_path / "res") == 0

    @pytest.mark.parametrize("resamples", ["0", "-1"])
    def test_resamples_below_one_is_usage_error(self, data_dir, explained, tmp_path, capsys,
                                                resamples):
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", explained / "windows.csv", "--out-dir", tmp_path / "res",
                   "--resamples", resamples) == 1
        assert "usage error: --resamples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_empty_windows_file_is_data_error(self, data_dir, explained, tmp_path):
        empty = tmp_path / "w.csv"
        empty.write_text("")
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", empty, "--out-dir", tmp_path) == 2

    @pytest.mark.xfail(strict=True, reason="explanations.csv has no window key, so evaluate "
                       "scores every explanation of an episode against each of its windows")
    def test_nested_alert_windows_score_at_most_one(self, tmp_path):
        features = ["sodium", "creatinine", "urine_rate", "sodium", "creatinine", "urine_rate"]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"episode": "e1", "time_s": 3600.0 * (j + 1), "feature": f,
                        "value": 1.0, "outcome": 1, "split": "test"}) + "\n"
            for j, f in enumerate(features)))
        windows = tmp_path / "windows.csv"
        windows.write_text("episode,t0,t1,t0_time_s,t1_time_s,source\n"
                           "e1,0,3,0,10800,alert\n"
                           "e1,0,6,0,21600,alert\n")
        # Each window's own explanation hits only its truth: precision 1 apiece.
        explanations = tmp_path / "explanations.csv"
        explanations.write_text("episode,method,rank,step,time_s,feature,raw_value,weight\n"
                                "e1,gradient,1,3,10800,urine_rate,1,0.5\n"
                                "e1,gradient,2,2,7200,creatinine,1,0.4\n"
                                "e1,gradient,1,6,21600,urine_rate,1,0.5\n"
                                "e1,gradient,2,5,18000,creatinine,1,0.4\n"
                                "e1,gradient,3,3,10800,urine_rate,1,0.3\n")
        out = tmp_path / "res"
        assert run("evaluate", "--events", events, "--explanations", explanations,
                   "--windows", windows, "--out-dir", out, "--k", "3") == 0
        _, rows = read_csv(out / "results.csv")
        assert float(rows[0][2]) <= 1.0


HOSTILE_FEATURE = 'sod,"ium" µ'
HOSTILE_EPISODE = 'ep,"1" é'


def test_stages_build_no_whole_episode_of_dense_rows(data_dir, trained_dir, tmp_path,
                                                    monkeypatch):
    # Each stage builds dense input rows only for what it scans; the cached
    # all-steps view StepSeries.x is never read.
    def dense(self):
        raise AssertionError("StepSeries.x was read")

    monkeypatch.setattr(StepSeries, "x", property(dense))
    assert run("train", "--events", data_dir / "events.jsonl", "--out-dir", tmp_path / "model",
               "--hidden-size", "8", "--max-epochs", "1", "--seed", "4") == 0
    common = ["--events", data_dir / "events.jsonl",
              "--checkpoint", trained_dir / "checkpoint.json",
              "--min-new-events", "1", "--ratio-threshold", "1.001"]
    assert run("alerts", *common, "--out-dir", tmp_path / "alerts") == 0
    assert read_csv(tmp_path / "alerts" / "alerts.csv")[1]
    for windows in ("checkpoints", "alerts"):
        out = tmp_path / windows
        assert run("explain", *common, "--bins", trained_dir / "bins.json", "--out-dir", out,
                   "--methods", "all", "--m", "8", "--windows", windows) == 0
        _, rows = read_csv(out / "explanations.csv")
        assert {r[1] for r in rows} == set(METHODS)


def test_evaluate_rows_equal_run_benchmark(tmp_path):
    """`evaluate` on explain's files gives the library's rows, with a feature
    id and an episode id that need CSV quoting and are not ASCII."""
    data = tmp_path / "data"
    assert run("gen-data", "--out-dir", data, "--n-episodes", "24",
               "--deterioration-fraction", "0.6", "--seed", "3") == 0
    audit = [json.loads(line) for line in (data / "episodes.jsonl").read_text().splitlines()]
    positive = next(r["episode"] for r in audit if r["first_positive_checkpoint_s"] is not None)
    records = [json.loads(line) for line in (data / "events.jsonl").read_text().splitlines()]
    for rec in records:
        rec["feature"] = HOSTILE_FEATURE if rec["feature"] == "sodium" else rec["feature"]
        rec["episode"] = HOSTILE_EPISODE if rec["episode"] == positive else rec["episode"]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                      encoding="utf-8")

    model = tmp_path / "model"
    assert run("train", "--events", events, "--out-dir", model, "--hidden-size", "8",
               "--max-epochs", "2", "--seed", "4") == 0
    expl, code = explain_and_evaluate(events, model, tmp_path)
    assert code == 0
    assert HOSTILE_EPISODE in {r[0] for r in read_csv(expl / "windows.csv")[1]}
    assert HOSTILE_FEATURE in {r[5] for r in read_csv(expl / "explanations.csv")[1]}

    assert_rows_equal_run_benchmark(events, model, tmp_path / "res")


def explain_and_evaluate(events, model, out):
    """Run explain (k 3, m 8, seed 5) and evaluate (500 resamples, seed 5)
    under ``out``; return explain's directory and evaluate's exit code."""
    expl = out / "expl"
    assert run("explain", "--events", events, "--checkpoint", model / "checkpoint.json",
               "--bins", model / "bins.json", "--out-dir", expl, "--k", "3", "--m", "8",
               "--seed", "5") == 0
    code = run("evaluate", "--events", events, "--explanations", expl / "explanations.csv",
               "--windows", expl / "windows.csv", "--out-dir", out / "res", "--k", "3",
               "--resamples", "500", "--seed", "5")
    return expl, code


def assert_rows_equal_run_benchmark(events, model, res):
    """results.csv in ``res`` holds run_benchmark's rows on the same events
    and model, for every method but random."""
    params, _, catalog, stats = load_checkpoint(model / "checkpoint.json")
    with open(events, encoding="utf-8") as fh:
        episodes = prepare_episodes(params, stats, catalog, parse_event_log(fh, catalog=catalog))
    bins = BinTable.from_json(json.loads((model / "bins.json").read_text()))
    ctx = MethodContext(params=params, catalog=catalog, bins=bins, m=8, seed=5)
    rows, _ = run_benchmark(episodes, ctx, [m for m in METHODS if m != "random"],
                            k=3, resamples=500, seed=5)
    _, got = read_csv(res / "results.csv")
    assert [r for r in got if r[0] != "random"] == [
        [csv_cell(c) for c in astuple(row)] for row in rows]


def rename_positive_episodes(data_dir, path, ids):
    """Write data_dir's events to ``path`` with its first positive episodes
    renamed to ``ids``, in order."""
    audit = [json.loads(ln) for ln in (data_dir / "episodes.jsonl").read_text().splitlines()]
    positive = [r["episode"] for r in audit if r["first_positive_checkpoint_s"] is not None]
    assert len(positive) >= len(ids)
    names = dict(zip(positive, ids))
    records = [json.loads(ln) for ln in (data_dir / "events.jsonl").read_text().splitlines()]
    path.write_text("".join(
        json.dumps({**r, "episode": names.get(r["episode"], r["episode"])}, ensure_ascii=False)
        + "\n" for r in records), encoding="utf-8")


# Pieces of episode ids that CSV must quote, that split lines, or that are not
# ASCII; none of them occurs in a generated id.
ID_PIECES = [",", '"', "\r", "\n", "\r\n", "\u2028", "\x85", "é", "µ", "a", " "]


@settings(max_examples=10)
@given(ids=st.lists(st.lists(st.sampled_from(ID_PIECES), min_size=1, max_size=5).map("".join),
                    min_size=1, max_size=10, unique=True))
@example(ids=["".join(ID_PIECES), 'a,"b"', "\r\n", "µ\u2028é"])
def test_episode_ids_round_trip_through_explain_and_evaluate(data_dir, trained_dir, ids):
    """Episode ids do not enter training, so one model serves every draw:
    explain writes each id into windows.csv and explanations.csv, evaluate
    reads them back, and its rows are the library's."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        rename_positive_episodes(data_dir, tmp / "events.jsonl", ids)
        expl, code = explain_and_evaluate(tmp / "events.jsonl", trained_dir, tmp)
        assert code == 0
        assert set(ids) <= {r[0] for r in read_csv(expl / "windows.csv")[1]}
        assert set(ids) <= {r[0] for r in read_csv(expl / "explanations.csv")[1]}
        assert_rows_equal_run_benchmark(tmp / "events.jsonl", trained_dir, tmp / "res")


def test_cell_past_the_csv_field_limit_is_data_error(data_dir, trained_dir, tmp_path, capsys):
    """An id longer than the csv module's field size limit passes through
    explain; evaluate, which reads it back, exits 2 naming windows.csv."""
    rename_positive_episodes(data_dir, tmp_path / "events.jsonl", ["x" * 140_000])
    _, code = explain_and_evaluate(tmp_path / "events.jsonl", trained_dir, tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert "windows.csv: line 2: field larger than field limit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "res").exists()


def test_nul_in_an_id_round_trips_or_is_data_error(data_dir, trained_dir, tmp_path, capsys):
    """A NUL, written as \\u0000 in the event log, reaches the CSV files. It
    round-trips where the csv module reads NUL (Python 3.11 and later) and is
    a data error naming windows.csv where it refuses it (3.10)."""
    try:
        reads_nul = next(csv.reader(["a\x00b"])) == ["a\x00b"]
    except csv.Error:
        reads_nul = False
    rename_positive_episodes(data_dir, tmp_path / "events.jsonl", ["a\x00b"])
    expl, code = explain_and_evaluate(tmp_path / "events.jsonl", trained_dir, tmp_path)
    if reads_nul:
        assert code == 0
        assert "a\x00b" in {r[0] for r in read_csv(expl / "windows.csv")[1]}
        assert_rows_equal_run_benchmark(tmp_path / "events.jsonl", trained_dir, tmp_path / "res")
    else:
        assert code == 2
        assert "windows.csv: line 2: line contains NUL" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


class TestPipelineDeterminism:
    def test_usage_error_on_missing_subcommand(self):
        assert run() == 1


class _Built(Exception):
    pass


@pytest.mark.parametrize("argv, owner, name, expected", [
    (["gen-data"], synth, "ScenarioConfig", synth.ScenarioConfig(seed=0, n_episodes=200)),
    (["train", "--events", "e.jsonl"], cli, "ModelConfig", ModelConfig(seed=0)),
    (["alerts", "--events", "e.jsonl", "--checkpoint", "c.json"], cli, "AlertRule", AlertRule()),
    (["explain", "--events", "e.jsonl", "--checkpoint", "c.json"], cli, "AlertRule", AlertRule()),
], ids=["gen-data", "train", "alerts", "explain"])
def test_flag_defaults_build_the_dataclass_defaults(monkeypatch, tmp_path, argv, owner, name,
                                                    expected):
    class Recorded(type(expected)):
        def __post_init__(self):
            super().__post_init__()
            raise _Built(self)

    monkeypatch.setattr(owner, name, Recorded)
    with pytest.raises(_Built) as built:
        run(*argv, "--out-dir", tmp_path / "out")
    assert asdict(built.value.args[0]) == asdict(expected)


@pytest.mark.parametrize("argv, expected", [
    (["train", "--events", "e.jsonl"], {"bins_per_feature": BINS_PER_FEATURE}),
    (["explain", "--events", "e.jsonl", "--checkpoint", "c.json"],
     {"k": evaluation.TOP_K, "m": MethodContext.m}),
    (["evaluate", "--events", "e.jsonl", "--explanations", "x.csv", "--windows", "w.csv"],
     {"k": evaluation.TOP_K, "resamples": evaluation.RESAMPLES}),
], ids=["train", "explain", "evaluate"])
def test_flag_defaults_are_the_library_defaults(argv, expected):
    args = cli.build_parser().parse_args([*argv, "--out-dir", "out"])
    assert {name: getattr(args, name) for name in expected} == expected
    assert (BINS_PER_FEATURE, evaluation.TOP_K, MethodContext.m, evaluation.RESAMPLES) == (
        10, 3, 64, 2000)
