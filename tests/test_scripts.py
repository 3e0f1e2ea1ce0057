"""The example scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--n-episodes", "40", "--max-epochs", "1", "--hidden-size", "8"]

SCRIPTS = {
    "run_pipeline.py": (TINY + ["--m", "4"], [
        "data/events.jsonl", "data/episodes.jsonl", "model/checkpoint.json",
        "model/bins.json", "model/train_report.csv", "model/alerts.csv",
        "explain/explanations.csv", "explain/windows.csv", "explain/risk_series.csv",
        "results/results.csv", "results/truth_windows.jsonl"]),
    "smoothing_comparison.py": (TINY, ["risk_series_plain.csv", "risk_series_smoothed.csv"]),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args, outputs = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--out-dir", str(tmp_path), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
