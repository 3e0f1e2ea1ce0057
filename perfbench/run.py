"""End-to-end benchmark of the driftscope CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs each timed CLI stage as a child process
(`python -m driftscope ...`), starting the next only after the last one exits,
and repeats the workload's stages until `--seconds` are used up. Each stage
plus the checks on its output files is one operation. With `--trace 1` the
same stages run inside this process instead, once plainly and once with spans
around each driftscope module's public functions, for per-layer metrics.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it give every metric by
name and unit. A record of the run (machine facts, input digests, all
metrics, every failed check) is written to
.bench_build/perfbench/results/<workload>-seed<N>-trace<T>.json, and with
`--trace 1` the spans next to it.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference machine); set before numpy loads.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WHY = {
    "train": "train stage only: LSTM forward and backward do nearly all the work, "
             "no explain layer runs",
    "explain-checkpoints": "one short window per positive episode, all methods; "
                           "integrated gradients dominates and precision is valid here",
    "triage-alerts": "72 h episodes, several long alert windows each, IG bypassed; "
                     "per-episode work (parse, prepare, attention) dominates",
}

# Input sizes. `build` is the checkpoint the two explain workloads load: it is
# trained once per checkout and source tree, from a fixed seed, because
# training one that raises alerts takes about a minute. Explain corpora are
# all positive so that the number of checkpoint windows does not vary by seed.
SIZES = {
    "build": {"episodes": 260, "hours": 36, "positive": 0.5, "epochs": 15,
              "learning_rate": 0.002, "seed": 20240},
    "train": {"episodes": 260, "hours": 36, "positive": 0.5, "epochs": 1},
    "explain-checkpoints": {"episodes": 60, "hours": 36, "positive": 1.0},
    "triage-alerts": {"episodes": 50, "hours": 72, "positive": 1.0},
    "setup_repeats": 5,
}
K, M, MIN_NEW_EVENTS = 3, 64, 10

# Metrics on the last line: only those every workload measures and that are
# never 0. Work is a rate rather than a stage time because the number of alert
# windows varies by seed: run_s spreads by about 20% between seeds on
# triage-alerts.
END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb", "ok_frac")
PER_LAYER = ("synth.generate_s", "events.parse_s", "events.encode_s", "events.events",
             "events.steps", "model.forward_eval_us_per_step", "tables.write_csv_s",
             "tables.rows_written", "trace.overhead_frac", "cli.self_s", "events.self_s",
             "model.self_s", "bin_stats.self_s", "tables.self_s")
UNITS = {"items_per_s": "1/s", "train_steps_per_s": "1/s", "explain_windows_per_s": "1/s",
         "peak_rss_mb": "MB", "best_val_loss": "nats", "precision.integrated_gradients": "frac",
         "precision.random": "frac"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us_per_step"):
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


class Client:
    """Runs driftscope CLI stages, in a child process or (traced) in this one."""

    def __init__(self, log_dir: Path, in_process: bool = False):
        self.log_dir = log_dir
        self.in_process = in_process
        self.peak_rss_mb = 0.0
        self.n = 0

    def run(self, args: list[str], tracer: spans.Tracer | None = None, stage: str = ""):
        """(exit code, wall seconds, output) of `driftscope ARGS`."""
        self.n += 1
        if self.in_process:
            from driftscope import cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = cli.main(args)
                    else:
                        with spans.patched(tracer), tracer.span(f"stage.{stage}"):
                            rc = cli.main(args)
                except Exception:  # a crash fails this operation, as in a child process
                    traceback.print_exc()
                    rc = 1
                wall = time.perf_counter() - t0
            return rc, wall, buf.getvalue()
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": BLAS_THREADS}
        env.pop("DRIFTSCOPE_SEED", None)
        log = self.log_dir / f"child-{self.n}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "driftscope", *args], cwd=ROOT,
                                    env=env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return proc.returncode, wall, log.read_text(encoding="utf-8", errors="replace")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "driftscope").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def gen_args(sizes: dict, seed: int, out: Path) -> list[str]:
    return ["gen-data", "--out-dir", str(out), "--n-episodes", str(sizes["episodes"]),
            "--deterioration-fraction", str(sizes["positive"]),
            "--duration-hours", str(sizes["hours"]), "--seed", str(seed)]


def ensure_model(sizes: dict, work: Path) -> Path:
    """Directory with the explain workloads' checkpoint.json and bins.json,
    trained on first use and reused while the sources stay the same."""
    build = sizes["build"]
    key = hashlib.sha256((source_digest() + json.dumps(build)).encode()).hexdigest()[:16]
    final = work / f"model-{key}"
    if (final / "checkpoint.json").is_file():
        return final
    tmp = work / f"model-{key}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    client = Client(tmp)
    t0 = time.perf_counter()
    epochs = str(build["epochs"])
    for args in (gen_args(build, build["seed"], tmp / "data"),
                 ["train", "--events", str(tmp / "data" / "events.jsonl"), "--out-dir", str(tmp),
                  "--hidden-size", "32", "--max-epochs", epochs,
                  "--learning-rate", str(build["learning_rate"]), "--seed", "11"]):
        rc, _, output = client.run(args)
        if rc != 0:
            raise SystemExit(f"perfbench: building the checkpoint failed ({rc}):\n{output}")
    shutil.rmtree(tmp / "data")
    try:
        os.replace(tmp, final)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"build checkpoint in {time.perf_counter() - t0:.1f} s -> {final.name}")
    return final


class Workload:
    """Inputs, timed stages and output checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, sizes: dict, inputs: Path):
        self.name, self.seed, self.sizes, self.inputs = name, seed, sizes, inputs
        from driftscope.evaluation import METHODS
        if name == "train":
            self.methods = []
        elif name == "explain-checkpoints":
            self.methods = list(METHODS)
        else:
            self.methods = [m for m in METHODS if m != "integrated_gradients"]
        self.main_stage = "train" if name == "train" else "explain"
        steps = train_steps = 0
        episodes = set()
        with open(inputs / "events.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    step = json.loads(line)
                    steps += 1
                    train_steps += step["split"] == "train"
                    episodes.add(step["episode"])
        self.steps, self.train_steps, self.episodes = steps, train_steps, len(episodes)

    def stages(self, out: Path) -> list[tuple[str, list[str]]]:
        seed = ["--seed", str(self.seed)]
        events = ["--events", str(self.inputs / "events.jsonl")]
        if self.name == "train":
            epochs = str(self.sizes["train"]["epochs"])
            return [("train", ["train", *events, "--out-dir", str(out / "train"),
                               "--hidden-size", "32", "--max-epochs", epochs,
                               "--patience", epochs, *seed])]
        model = [*events, "--checkpoint", str(self.inputs / "checkpoint.json")]
        explain = ["explain", *model, "--bins", str(self.inputs / "bins.json"),
                   "--out-dir", str(out / "explain"), "--methods", ",".join(self.methods),
                   "--k", str(K), "--m", str(M), *seed]
        if self.name == "explain-checkpoints":
            return [("explain", [*explain, "--windows", "checkpoints"]),
                    ("evaluate", self.evaluate_args(out))]
        # No evaluate here: it joins explanations to windows by (episode,
        # method) only, so with several alert windows per episode its
        # precision exceeds 1 (open defect in cmd_evaluate; selftest.py shows it).
        rule = ["--all-alerts", "--min-new-events", str(MIN_NEW_EVENTS)]
        return [("alerts", ["alerts", *model, "--out-dir", str(out / "alerts"), *rule, *seed]),
                ("explain", [*explain, "--windows", "alerts", *rule])]

    def evaluate_args(self, out: Path) -> list[str]:
        """`evaluate` of the explanations the explain stage wrote under `out`."""
        return ["evaluate", "--events", str(self.inputs / "events.jsonl"),
                "--explanations", str(out / "explain" / "explanations.csv"),
                "--windows", str(out / "explain" / "windows.csv"),
                "--out-dir", str(out / "evaluate"), "--k", str(K), "--seed", str(self.seed)]

    def check(self, stage: str, out: Path):
        if stage == "train":
            return checks.check_train(out / "train", self.sizes["train"]["epochs"])
        if stage == "alerts":
            return checks.check_alerts(out / "alerts", MIN_NEW_EVENTS)
        if stage == "explain":
            return checks.check_explain(out / "explain", K, self.methods, self.steps)
        return checks.check_evaluate(out / "evaluate", K, self.methods)

    def items(self, facts: dict) -> float:
        """Work units of the main stage: train-split steps x epochs, or
        (windows + episodes) x methods. explain parses, prepares and scores
        every episode before it explains windows, which costs about as much as
        one window (triage-alerts at 50 episodes: 1.7 s fixed, 36 ms per
        window); counting it keeps the rate from following the number of alert
        windows, which varies by seed."""
        if self.name == "train":
            return self.train_steps * facts.get("epochs_run", 0)
        return (facts.get("windows", 0) + self.episodes) * len(self.methods)


class Tally:
    """Operations attempted and failed, and each distinct failed check."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: dict[str, int] = {}

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            key = f"{label}: {p}"
            self.problems[key] = self.problems.get(key, 0) + 1


def setup(name: str, seed: int, sizes: dict, run_dir: Path, client: Client,
          model: Path, repeats: int, tracer: spans.Tracer | None = None):
    """Generate the workload's inputs `repeats` times; (inputs dir, seconds per repeat).
    Every repeat must write the same events.jsonl, or there is nothing to measure."""
    seconds, digests = [], []
    for i in range(repeats):
        inputs = run_dir / f"inputs-{i}"
        t0 = time.perf_counter()
        rc, _, output = client.run(gen_args(sizes[name], seed, inputs), tracer, "setup")
        if name != "train":
            for f in ("checkpoint.json", "bins.json"):
                shutil.copyfile(model / f, inputs / f)
        seconds.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"perfbench: gen-data failed ({rc}):\n{output}")
        digests.append(checks.sha256(inputs / "events.jsonl"))
        if digests[i] != digests[0]:
            raise SystemExit("perfbench: gen-data wrote another events.jsonl for the same seed")
    for i in range(1, repeats):
        shutil.rmtree(run_dir / f"inputs-{i}")
    return run_dir / "inputs-0", seconds


def run_pass(wl: Workload, client: Client, out: Path, tally: Tally, digests: list[str],
             tracer: spans.Tracer | None = None):
    """Run the workload's stages once; (wall seconds per stage, facts of the checks)."""
    walls, facts = {}, {}
    for stage, args in wl.stages(out):
        rc, walls[stage], output = client.run(args, tracer, stage)
        if rc != 0:
            last = output.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {rc}: {last[0]}"]
        else:
            problems, found = wl.check(stage, out)
            facts.update(found)
            if "explanations_sha256" in found:
                digests.append(found["explanations_sha256"])
                if found["explanations_sha256"] != digests[0]:
                    problems.append("explanations.csv differs between repeats of the same inputs")
        tally.add(stage, problems)
    shutil.rmtree(out, ignore_errors=True)
    return walls, facts


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"  # a checkout without .git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": commit,
            "source_sha256": source_digest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = SIZES, work: Path = WORK) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    run_dir = work / "runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # Built by whichever run comes first in a checkout, so that run carries the cost.
        model = ensure_model(sizes, work)
        tally = Tally()
        client = Client(run_dir, in_process=trace)
        tracer = spans.Tracer(run_dir.name) if trace else None
        inputs, setup_s = setup(name, seed, sizes, run_dir, client, model,
                                1 if trace else sizes["setup_repeats"], tracer)
        client.peak_rss_mb = 0.0  # of the timed stages only
        wl = Workload(name, seed, sizes, inputs)
        record = {"workload": name, "why": WHY[name], "seed": seed, "trace": int(trace),
                  "facts": machine_facts(), "stages": [s for s, _ in wl.stages(run_dir)],
                  "inputs": {f.name: checks.sha256(f) for f in sorted(inputs.iterdir())},
                  "input_steps": wl.steps, "train_split_steps": wl.train_steps}
        digests: list[str] = []
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if trace:
                plain, facts = run_pass(wl, client, run_dir / "plain", tally, digests)
                first = len(tracer.spans)
                traced, _ = run_pass(wl, client, run_dir / "traced", tally, digests, tracer)
                passes.append((plain, traced, tracer.spans[first:], facts))
            else:
                walls, facts = run_pass(wl, client, run_dir / f"pass-{len(passes)}", tally, digests)
                passes.append((walls, facts))
            took = time.perf_counter() - t0
            if time.perf_counter() + took > start + seconds:
                break
        if trace:
            metrics = trace_metrics(passes, tracer.spans)
            record["stage_breakdown"] = {
                stage: {"wall_s": b["wall_s"], "self_s": dict(b["self_s"])}
                for stage, b in spans.stage_breakdown(passes[-1][2]).items()}
        else:
            metrics = e2e_metrics(wl, passes, setup_s, client.peak_rss_mb, tally)
            record.update(setup_s=setup_s, stage_s=[walls for walls, _ in passes])
        record.update(passes=len(passes), attempted=tally.attempted, failed=tally.failed,
                      problems=tally.problems, metrics=metrics)
        results = work / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if trace:
            with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def e2e_metrics(wl: Workload, passes, setup_s, peak_rss_mb, tally: Tally) -> dict:
    stage_s = {stage: [walls[stage] for walls, _ in passes] for stage in passes[0][0]}
    run_s = [sum(walls.values()) for walls, _ in passes]
    items = [wl.items(facts) / walls[wl.main_stage] for walls, facts in passes]
    m = {"setup_s": statistics.median(setup_s), "items_per_s": statistics.median(items),
         "peak_rss_mb": peak_rss_mb, "run_s": statistics.median(run_s),
         "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
         "failed_frac": tally.failed / tally.attempted}
    for stage, walls in stage_s.items():
        m[f"{stage}_s"] = statistics.median(walls)
    if wl.name == "train":
        m["train_steps_per_s"] = m["items_per_s"]
        m["best_val_loss"] = passes[-1][1].get("best_val_loss", 0.0)
    else:
        m["explain_windows_per_s"] = statistics.median(
            facts.get("windows", 0) * len(wl.methods) / walls["explain"] for walls, facts in passes)
    if wl.name == "explain-checkpoints":
        for key in ("precision.integrated_gradients", "precision.random"):
            m[key] = passes[-1][1].get(key, 0.0)
    return m


def trace_metrics(passes, all_spans) -> dict:
    """Median over traced passes of each per-layer metric; per-call timings
    keep their distribution. Set-up spans count toward synth.generate_s."""
    per_pass = [spans.layer_metrics(s) for _, _, s, _ in passes]
    metrics = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass if key in p]
        # median_low keeps counts whole
        metrics[key] = values[-1] if isinstance(values[0], dict) else statistics.median_low(values)
    setup_spans = [s for s in all_spans if s["name"] == "synth.generate_corpus"]
    metrics["synth.generate_s"] = sum(s["end"] - s["start"] for s in setup_spans)
    metrics["trace.overhead_frac"] = statistics.median(
        [(sum(traced.values()) - sum(plain.values())) / sum(plain.values())
         for plain, traced, _, _ in passes])
    return metrics


def report(record: dict) -> dict:
    """Print the run's facts and metrics; return the last line's object."""
    trace = record["trace"]
    print(f"workload {record['workload']} seed {record['seed']} trace {trace}: {record['why']}")
    print("facts " + " ".join(f"{k}={v}" for k, v in record["facts"].items()))
    for name, digest in record["inputs"].items():
        print(f"input {name} sha256={digest}")
    n = record["passes"]
    for name, value in record["metrics"].items():
        if isinstance(value, dict):
            extra = "".join(f", {k}={v:.6g}" for k, v in value.items() if k not in ("p50", "n"))
            print(f"{name} = {value['p50']:.6g} {unit_of(name)} (p50{extra}, n={value['n']})")
        else:
            print(f"{name} = {value:.6g} {unit_of(name)}" + ("" if trace else f" (n={n})"))
    for stage, b in record.get("stage_breakdown", {}).items():
        parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(b["self_s"].items()))
        print(f"trace stage {stage}: wall {b['wall_s']:.4f} s = self time of {parts} "
              f"(sum {sum(b['self_s'].values()):.4f} s)")
    print(f"operations attempted={record['attempted']} failed={record['failed']}")
    for problem, times in record["problems"].items():
        print(f"check FAILED {problem} (x{times})")
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name in names:
        value = record["metrics"].get(name, 0.0)
        value = value["p50"] if isinstance(value, dict) else value
        metrics[name] = {"value": value, "unit": unit_of(name)}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "driftscope" / "cli.py").is_file():
        print(f"perfbench: no driftscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in WHY if args.workload == "all" else [args.workload]:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(record)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
