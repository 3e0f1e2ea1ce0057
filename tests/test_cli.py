import json

import pytest

from driftscope.cli import main
from driftscope.tables import read_csv


def run(*args):
    return main([str(a) for a in args])


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

    def test_missing_events_is_data_error(self, tmp_path):
        assert run("train", "--events", tmp_path / "nope.jsonl",
                   "--out-dir", tmp_path) == 2


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


    def test_empty_windows_file_is_data_error(self, data_dir, explained, tmp_path):
        empty = tmp_path / "w.csv"
        empty.write_text("")
        assert run("evaluate", "--events", data_dir / "events.jsonl",
                   "--explanations", explained / "explanations.csv",
                   "--windows", empty, "--out-dir", tmp_path) == 2


class TestPipelineDeterminism:
    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTSCOPE_SEED", "3")
        a = tmp_path / "env"
        assert run("gen-data", "--out-dir", a, "--n-episodes", "6",
                   "--deterioration-fraction", "0.6") == 0
        b = tmp_path / "flag"
        assert run("gen-data", "--out-dir", b, "--n-episodes", "6",
                   "--deterioration-fraction", "0.6", "--seed", "3") == 0
        assert (a / "events.jsonl").read_text() == (b / "events.jsonl").read_text()

    def test_usage_error_on_missing_subcommand(self):
        assert run() == 1
