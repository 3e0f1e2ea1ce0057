"""Tests of the benchmark itself: `python3 perfbench/selftest.py`.

A tiny-size run of every workload, traced and untraced, must print each
metric by name and unit; the output checks must pass on well-formed files and
fail on a corrupted results.csv and a truncated explanations.csv, and must
flag the out-of-range precision that `evaluate` writes on alert windows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run

TINY = {
    # the smallest checkpoint found that still raises alerts on triage-alerts
    "build": {"episodes": 100, "hours": 36, "positive": 0.5, "epochs": 10,
              "learning_rate": 0.005, "seed": 20240},
    "train": {"episodes": 40, "hours": 36, "positive": 0.5, "epochs": 1},
    "explain-checkpoints": {"episodes": 6, "hours": 36, "positive": 1.0},
    "triage-alerts": {"episodes": 8, "hours": 72, "positive": 1.0},
    "setup_repeats": 2,
}

PRINTED = {
    "train": ["setup_s", "run_s", "train_s", "train_steps_per_s", "peak_rss_mb", "failed_frac",
              "best_val_loss"],
    "explain-checkpoints": ["setup_s", "run_s", "explain_s", "evaluate_s",
                            "explain_windows_per_s", "peak_rss_mb", "failed_frac",
                            "precision.integrated_gradients", "precision.random"],
    "triage-alerts": ["setup_s", "run_s", "alerts_s", "explain_s", "explain_windows_per_s",
                      "peak_rss_mb", "failed_frac"],
}
EXPLAIN_LAYERS = ["model.grad_wrt_inputs_ms", "model.attention_forward_ms",
                  "model.checkpoint_load_s", "evaluation.prepare_episodes_s",
                  "evaluation.windows", "evaluation.windows_per_episode_max", "attribution.top_k_ms",
                  "attribution.random_guess_ms", "bin_stats.stat_weights_ms"]
TRACED = {
    "train": ["model.forward_train_us_per_step", "model.backward_us_per_step", "model.epoch_s",
              "model.epochs_run", "model.checkpoint_save_s", "bin_stats.fit_bins_s"],
    "explain-checkpoints": EXPLAIN_LAYERS + ["attribution.ig_path_steps",
                                             "evaluation.windows_excluded",
                                             "evaluation.bootstrap_ci_ms", "tables.read_csv_s"],
    "triage-alerts": EXPLAIN_LAYERS + ["alerts.select_alert_cohort_ms", "alerts.alerts"],
}
LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (run.ROOT / ".bench_build").mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_build"))
        sys.path.insert(0, str(run.SRC))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_tiny(self, workload: str, trace: bool):
        record = run.run_workload(workload, 3, 0.1, trace, TINY, self.work)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            last = run.report(record)
        printed = {}
        for line in out.getvalue().splitlines():
            match = LINE.match(line)
            if match:
                printed[match[1]] = match[3]
        return last, printed

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WHY:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    last, printed = self.run_tiny(workload, trace)
                    names = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(list(last["metrics"]), list(names))
                    expected = list(names) + (TRACED[workload] if trace else PRINTED[workload])
                    if trace and workload != "train":
                        expected += [f"evaluation.explain_window_ms.{m}" for m in ("random", "gradient")]
                    for name in expected:
                        self.assertEqual(printed.get(name), run.unit_of(name), name)
                    self.assertTrue(last["correct"], last)

    def test_evaluate_on_alert_windows_is_checked(self):
        """triage-alerts leaves evaluate out: cmd_evaluate joins explanations
        to windows by (episode, method) only, so an episode with several alert
        windows scores all its explanations against each and precision can
        exceed 1. Run it anyway on a small corpus that has episodes with
        several alert windows: the results.csv check must flag every method
        whose precision or interval leaves [0, 1]."""
        sizes = {**TINY, "triage-alerts": {**TINY["triage-alerts"], "episodes": 20}}
        run_dir = self.work / "alert-evaluate"
        run_dir.mkdir()
        client = run.Client(run_dir)
        model = run.ensure_model(sizes, self.work)
        inputs, _ = run.setup("triage-alerts", 3, sizes, run_dir, client, model, 1)
        wl = run.Workload("triage-alerts", 3, sizes, inputs)
        for stage, args in wl.stages(run_dir) + [("evaluate", wl.evaluate_args(run_dir))]:
            rc, _, output = client.run(args)
            self.assertEqual(rc, 0, output)
            if stage == "explain":
                _, facts = wl.check(stage, run_dir)
                self.assertGreaterEqual(facts["windows_per_episode_max"], 2)
        problems, _ = checks.check_evaluate(run_dir / "evaluate", run.K, wl.methods)
        with open(run_dir / "evaluate" / "results.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        out_of_range = sorted(r["method"] for r in rows if not 0 <= float(r["ci_lo"])
                              <= float(r["mean_precision"]) <= float(r["ci_hi"]) <= 1)
        flagged = sorted(m for m in wl.methods if any(p.startswith(f"results.csv: {m} has ci_lo")
                                                      for p in problems))
        self.assertEqual(flagged, out_of_range, problems)
        if out_of_range:
            print(f"\nopen defect: evaluate on alert windows, precision outside [0, 1] for "
                  f"{', '.join(out_of_range)}", file=sys.stderr)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.dir)

    def explain_files(self):
        write(self.dir / "windows.csv", "episode,t0,t1,t0_time_s,t1_time_s,source\n"
              "ep1,2,6,10,50,checkpoint\n")
        write(self.dir / "risk_series.csv", "episode,step,time_s,time_h,p\n" + "".join(
            f"ep1,{j},{j * 10},{j / 360},0.5\n" for j in range(1, 8)))
        return write(self.dir / "explanations.csv",
                     "episode,method,rank,step,time_s,feature,raw_value,weight\n"
                     "ep1,gradient,1,5,40,creatinine,1.4,0.3\n"
                     "ep1,gradient,2,3,20,urine_rate,20,0.1\n"
                     "ep1,random,1,4,30,sodium,140,0\n")

    def test_well_formed_explain_output_passes(self):
        self.explain_files()
        problems, facts = checks.check_explain(self.dir, 3, ["gradient", "random"], 7)
        self.assertEqual(problems, [])
        self.assertEqual(facts["windows"], 1)

    def test_truncated_explanations_fail(self):
        path = self.explain_files()
        path.write_bytes(path.read_bytes()[:-12])
        problems, _ = checks.check_explain(self.dir, 3, ["gradient", "random"], 7)
        self.assertTrue(any("explanations.csv" in p for p in problems), problems)

    def test_more_than_k_rows_per_window_fail(self):
        self.explain_files()
        problems, _ = checks.check_explain(self.dir, 1, ["gradient", "random"], 7)
        self.assertTrue(any("more than k=1" in p for p in problems), problems)

    def results_files(self, rows: str):
        write(self.dir / "truth_windows.jsonl", '{"episode": "ep1", "t0": 2, "t1": 6}\n')
        write(self.dir / "results.csv", "method,k,mean_precision,ci_lo,ci_hi,n_windows\n" + rows)

    def test_well_formed_results_pass(self):
        self.results_files("random,3,0.25,0.2,0.3,40\ngradient,3,0.5,0.4,0.6,40\n")
        problems, facts = checks.check_evaluate(self.dir, 3, ["random", "gradient"])
        self.assertEqual(problems, [])
        self.assertEqual(facts["precision.gradient"], 0.5)

    def test_corrupted_results_fail(self):
        for rows in ("random,3,1.4,1.2,1.6,40\n",      # precision above 1
                     "random,3,0.25,0.3,0.2,40\n",     # interval inverted
                     "random,3,0.25,0.2\n"):           # row cut short
            with self.subTest(rows=rows):
                self.results_files(rows)
                problems, _ = checks.check_evaluate(self.dir, 3, ["random"])
                self.assertTrue(problems)

    def test_benchmark_json_matches(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, run.WHY)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(n, run.unit_of(n)) for n in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, run.unit_of(n)) for n in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
