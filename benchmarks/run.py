"""morbench benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 benchmarks/run.py --workload marker_seq --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src``). The
command generates the workload's inputs from ``--seed`` (cached under
``.bench_work``), times set-up in fresh interpreters, runs the program for
``--seconds``, checks its outputs, prints a readable summary on stderr and,
as the last line on stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
runs the workload twice untraced and twice traced and reports the per-layer
metrics (see tracing.py). ``failed / attempted`` is the failed fraction:
a failure is a nonzero exit, an unexpected skipped cell, or an output that
does not match its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is timed before every CLI run, so its samples spread over the run
# as the CLI runs' do, and at least this many times; the median is reported.
SETUP_REPEATS = 7
MIN_REPS = 3  # CLI runs per measurement even when fewer would fill --seconds
REPORT_FILES = ("report.md", "report.csv", "raw.jsonl")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "f1_mean": "F1",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_h_projected"):
        return "h"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s") or ".cell_s." in name:
        return "s"
    return "count"


@dataclass
class Proc:
    rc: int
    start: float
    wall: float
    cpu: float  # user + system of the process and every child it waited for
    rss_mb: float  # largest resident set among those processes


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def spawn(cmd: list[str], log: Path) -> Proc:
    """Run to completion; rusage from wait4 covers the child and its waited-for workers."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code; recorded with every run."""
    import numpy as np

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the program's runs


class Runner:
    def __init__(self, wl, scale: str, inputs_dir: Path, seed: int, run_dir: Path):
        self.wl, self.scale, self.inputs, self.seed, self.dir = wl, scale, inputs_dir, seed, run_dir
        self.log = run_dir / "stderr.log"
        self.config = self.write_config("config.json", {})

    def write_config(self, name: str, overrides: dict) -> Path:
        config = {**self.wl.config, **overrides}
        if "bilstm_pretrained_w2v" in config.get("eval.representations", ()):
            config["embeddings.word2vec_path"] = str(self.inputs / "word2vec.txt")
            config["embeddings.glove_path"] = str(self.inputs / "glove.txt")
        path = self.dir / name
        path.write_text(json.dumps(config, indent=2) + "\n")
        return path

    def cli_args(self, jobs: int, out: Path, config: Path | None = None) -> list[str]:
        return [
            "run",
            str(self.inputs / "corpus.jsonl"),
            "--config",
            str(config or self.config),
            "--seed",
            str(self.seed),
            "--jobs",
            str(jobs),
            "--out",
            str(out),
        ]

    def cli(self, jobs: int, name: str, config: Path | None = None) -> tuple[Proc, Path]:
        out = self.dir / name
        return spawn([sys.executable, "-m", "morbench.cli", *self.cli_args(jobs, out, config)], self.log), out

    def child(self, args: list[str], name: str) -> tuple[Proc, dict]:
        out = self.dir / name
        out.mkdir(parents=True, exist_ok=True)
        command, rest = args[0], args[1:]
        proc = spawn(
            [sys.executable, str(BENCH / "child.py"), command, "--out", str(out / "result.json"), *rest],
            self.log,
        )
        result = json.loads((out / "result.json").read_text()) if proc.rc == 0 else {}
        return proc, result

    def setup(self, name: str, extra: list[str] = ()) -> tuple[Proc, dict]:
        args = [
            "setup",
            "--workload",
            self.wl.name,
            "--scale",
            self.scale,
            "--inputs",
            str(self.inputs),
            "--seed",
            str(self.seed),
            *extra,
        ]
        return self.child(args, name)


def report_failures(out: Path, reference: Path | None) -> list[str]:
    """Why a CLI run's outputs are wrong: unexpected skips or bytes unlike the reference."""
    problems = []
    raw = out / "raw.jsonl"
    if not raw.exists():
        return [f"{out.name}: no raw.jsonl"]
    try:
        rows = [json.loads(line) for line in raw.read_text().splitlines() if line]
    except json.JSONDecodeError as exc:
        rows = []
        problems.append(f"{out.name}: raw.jsonl does not parse ({exc})")
    if any("skipped" in row for row in rows):
        problems.append(f"{out.name}: a cell was skipped")
    if reference is not None:
        for name in REPORT_FILES:
            a, b = out / name, reference / name
            if not a.exists() or not b.exists() or a.read_bytes() != b.read_bytes():
                problems.append(f"{out.name}/{name} differs from {reference.name}/{name}")
    return problems


def f1_mean(raw: Path) -> float:
    """Mean over scored cells of mean-fold F1."""
    folds: dict[tuple, list[float]] = {}
    for line in raw.read_text().splitlines():
        row = json.loads(line)
        if "f1" in row:
            folds.setdefault((row["morbidity"], row["representation"]), []).append(row["f1"])
    return statistics.fmean(statistics.fmean(v) for v in folds.values())


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str], failed: int | None = None) -> None:
        """`failed` defaults to one failed operation when there are problems."""
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems)


def _setup_time(r: Runner, tally: Tally, name: str, times: list[float]) -> None:
    """Time the set-up of one fresh interpreter that does nothing else."""
    proc, result = r.setup(name)
    tally.add(1, [] if proc.rc == 0 else [f"{name} exited {proc.rc}"])
    if proc.rc == 0:
        times.append(result["setup_end"] - proc.start)


def measure(r: Runner, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """CLI runs, each after a timed set-up, until another would overrun `seconds`."""
    wl = r.wl
    notes = {}
    setup: list[float] = []
    started = time.perf_counter()
    reference = None
    if wl.jobs != 1:  # the --jobs 1 run every --jobs N run must reproduce byte for byte
        proc, reference = r.cli(1, "jobs1")
        tally.add(1, report_failures(reference, None) if proc.rc == 0 else [f"jobs1 exited {proc.rc}"])
        notes["jobs1_run_s"], notes["jobs1_cpu_s"] = proc.wall, proc.cpu
    reps: list[Proc] = []
    first = None
    while True:
        _setup_time(r, tally, f"setup{len(reps)}", setup)
        proc, out = r.cli(wl.jobs, f"rep{len(reps)}")
        reps.append(proc)
        if proc.rc != 0:
            tally.add(1, [f"{out.name} exited {proc.rc}"])
        else:
            first = first or out
            against = reference if reference is not None else (None if out == first else first)
            tally.add(1, report_failures(out, against))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + statistics.median(p.wall for p in reps) > seconds:
            break
    for i in range(len(reps), SETUP_REPEATS):
        _setup_time(r, tally, f"setup{i}", setup)
    if first is None or not setup:
        raise SystemExit("the program failed; see " + str(r.log))
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.wall for p in reps),
        "cpu_s": statistics.median(p.cpu for p in reps),
        "peak_rss_mb": statistics.median(p.rss_mb for p in reps),
        "f1_mean": f1_mean(first / "raw.jsonl"),
    }
    notes["run_walls"] = [p.wall for p in reps]
    notes["setup_times"] = setup
    return metrics, notes


def paper_run_steps(seed: int, notes: int) -> int:
    """bilstm_gradients calls of a full-default run on lexical_par's corpus:
    every morbidity, k=10, 20 epochs at batch 32, four BiLSTM variants."""
    from inputs import effective_label, lexical_labels
    from morbench.corpus import MORBIDITIES

    labels = lexical_labels(seed, notes)
    steps = 0
    for m in MORBIDITIES:
        n = sum(1 for note in labels if effective_label(note[m]) is not None)
        for fold in range(10):
            test = n // 10 + (1 if fold < n % 10 else 0)
            steps += 20 * math.ceil((n - test) / 32)
    return 4 * steps


def oversubscription(r: Runner, tally: Tally) -> dict[str, float]:
    """Untraced --jobs nproc and --jobs 1 runs with the workload's `oversub`
    overrides (lexical_par: the full-width MLP, whose pool workers' BLAS
    threads oversubscribe the cores); zeros on workloads without them."""
    names = ("oversub.jobs_n_run_s", "oversub.jobs_n_cpu_s", "oversub.jobs_1_run_s", "oversub.jobs_1_cpu_s")
    if not r.wl.oversub:
        return dict.fromkeys(names, 0.0)
    config = r.write_config("oversub.json", r.wl.oversub)
    wide, wide_out = r.cli(r.wl.jobs, "oversub_jobs_n", config)
    one, one_out = r.cli(1, "oversub_jobs_1", config)
    tally.add(1, report_failures(one_out, None) if one.rc == 0 else [f"oversub jobs 1 exited {one.rc}"])
    tally.add(1, report_failures(wide_out, one_out) if wide.rc == 0 else [f"oversub jobs n exited {wide.rc}"])
    return dict(zip(names, (wide.wall, wide.cpu, one.wall, one.cpu)))


def traced(r: Runner, tally: Tally) -> tuple[dict, dict]:
    """Two untraced and two traced CLI runs of the workload, traced single-note
    predictions, the paper-shape kernel and, where configured, the oversubscription pair."""
    import tracing
    from workloads import build_workloads

    wl = r.wl
    notes: dict = {}

    def trace_dir(name: str) -> Path:
        d = r.dir / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def traced_cli(name: str, jobs: int) -> tuple[Proc, Path, Path]:
        spans_dir = trace_dir(f"spans_{name}")
        proc, _ = r.child(["trace-cli", "--trace", str(spans_dir), *r.cli_args(jobs, r.dir / name)], f"{name}_run")
        return proc, r.dir / name, spans_dir

    # traced, untraced, untraced, traced: the order cancels a steady drift of the
    # host's speed, and the first run's cold start lands on the traced side.
    # Spans come from the last, warm run.
    proc0, traced0_out, _ = traced_cli("traced_first", wl.jobs)
    plain, plain_out = r.cli(wl.jobs, "untraced")
    plain2, plain2_out = r.cli(wl.jobs, "untraced2")
    proc, traced_out, spans_dir = traced_cli("traced", wl.jobs)
    tally.add(1, report_failures(plain_out, None) if plain.rc == 0 else [f"untraced exited {plain.rc}"])
    for p, out in ((plain2, plain2_out), (proc0, traced0_out), (proc, traced_out)):
        tally.add(1, report_failures(out, plain_out) if p.rc == 0 else [f"{out.name} exited {p.rc}"])
    spans = tracing.read_spans(spans_dir)
    metrics = tracing.layer_metrics(spans, wl.expected, wl.jobs)
    if wl.jobs == 1:  # a --jobs 1 workload is its own reference
        ref_run, ref_cpu, ref_busy = proc.wall, proc.cpu, metrics["eval.worker_busy_frac"]
    else:
        ref, ref_out, ref_dir = traced_cli("traced_jobs1", 1)
        tally.add(1, report_failures(ref_out, plain_out) if ref.rc == 0 else [f"traced jobs1 exited {ref.rc}"])
        ref_busy = tracing.layer_metrics(tracing.read_spans(ref_dir), wl.expected, 1)["eval.worker_busy_frac"]
        ref_run, ref_cpu = ref.wall, ref.cpu

    # models.predictor and models.serialize: the workload's handles, trained,
    # saved, reloaded and called on held-out notes in a traced set-up child
    predict_dir = trace_dir("spans_predict")
    pred, pred_res = r.setup("traced_predict", ["--passes", "3", "--trace", str(predict_dir)])
    tally.add(1, [] if pred.rc == 0 else [f"traced predict exited {pred.rc}"])
    if not pred_res:
        raise SystemExit("the traced predictions failed; see " + str(r.log))
    failed = pred_res["failed"]
    tally.add(pred_res["attempted"], [f"traced predict: {failed} predictions differ"] if failed else [], failed)
    notes["predict_held_out"] = pred_res["held_out"]
    metrics.update(tracing.predict_metrics(tracing.read_spans(predict_dir)))

    grads = [s for s in spans if s["name"] == "models.lstm.bilstm_gradients"]
    if grads:
        notes["grad_shape_BTDH"] = [grads[0]["attrs"][k] for k in "BTDH"]

    paper, paper_res = r.child(["paper-grad"], "paper_grad")
    tally.add(1, [] if paper.rc == 0 else [f"paper-grad exited {paper.rc}"])
    grad_ms = paper_res.get("grad_ms", 0.0)
    metrics["models.lstm.grad_ms_paper"] = grad_ms
    steps = paper_run_steps(r.seed, build_workloads(r.scale)["lexical_par"].sizes[0].notes)
    metrics["models.lstm.paper_run_h_projected"] = grad_ms * steps / 3.6e6
    window = json.loads((spans_dir / "window.json").read_text())
    uncovered = window["end"] - window["start"] - tracing.covered(spans, window["pid"], window["start"], window["end"])
    metrics["trace.overhead_frac"] = (proc0.wall + proc.wall) / (plain.wall + plain2.wall) - 1.0
    metrics["trace.uncovered_frac"] = uncovered / (window["end"] - window["start"])
    metrics["trace.run_s"] = proc.wall
    metrics["trace.cpu_s"] = proc.cpu
    metrics["trace.jobs1_run_s"] = ref_run
    metrics["trace.jobs1_cpu_s"] = ref_cpu
    metrics["eval.jobs1_worker_busy_frac"] = ref_busy
    metrics.update(oversubscription(r, tally))
    notes["paper_run_steps"] = steps
    notes["spans"] = len(spans)
    return metrics, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "morbench" / "cli.py").is_file():
        print(f"error: no morbench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import inputs
    from workloads import build_workloads

    workloads = build_workloads(args.scale)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    env = environment(args.seed)
    inputs_dir = inputs.cached(WORK, wl.name, args.seed, wl.sizes, lambda d: wl.build(d, args.seed))
    run_dir = WORK / "runs" / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(wl, args.scale, inputs_dir, args.seed, run_dir)
    tally = Tally()
    if args.trace:
        values, notes = traced(runner, tally)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values, notes = measure(runner, args.seconds, tally)
        units = END_TO_END
    failed = tally.failed
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"environment": env, "notes": notes, "problems": tally.problems, **result}, indent=2) + "\n"
    )

    print(f"workload {wl.name} ({'traced' if args.trace else 'untraced'}): {wl.why}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:14.6g} {unit}", file=sys.stderr)
    print(f"  failed_frac {failed}/{tally.attempted} = {failed / max(1, tally.attempted):.4f}", file=sys.stderr)
    print(f"  notes: {json.dumps(notes)}", file=sys.stderr)
    for problem in tally.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
