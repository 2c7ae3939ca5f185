"""Smoke test of the benchmark itself, at tiny sizes (about a minute on 2 vCPUs).

    python3 benchmarks/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, traced and untraced; that the traced runs' top-level spans
cover their measured window; that each correctness check fires on a
deliberately corrupted output; that tracing fails loudly when a hook target
or an expected span is missing; and that the benchmark refuses to run
without the package sources. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# share of a traced window that top-level spans may leave uncovered: CLI
# argument parsing, config loading and file writes, which no hook wraps
MAX_UNCOVERED = 0.05


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in names:
            result = bench(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys {set(result)}")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {result}")
            check(result["attempted"] >= 1, f"{workload}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{workload} trace={trace}: metrics differ: {set(got) ^ set(wanted)}")
            values = result["metrics"]
            if trace:
                uncovered = values["trace.uncovered_frac"]["value"]
                check(0.0 <= uncovered <= MAX_UNCOVERED, f"{workload}: spans leave {uncovered:.3f} uncovered")
            else:
                check(all(m["value"] > 0 for m in values.values()), f"{workload}: a zero metric {values}")
            print(f"ok {workload} trace={trace}", file=sys.stderr)


def check_corruption() -> None:
    runs = run.WORK / "runs"
    rep = runs / "marker_seq" / "untraced"
    check((rep / "raw.jsonl").exists(), "no marker_seq output to corrupt")
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good"
        shutil.copytree(rep, good)
        check(run.report_failures(good, rep) == [], "identical outputs flagged")
        for name in run.REPORT_FILES:
            bad = Path(tmp) / f"bad_{name}"
            shutil.copytree(rep, bad)
            data = bytearray((bad / name).read_bytes())
            data[len(data) // 2] ^= 0x01
            (bad / name).write_bytes(bytes(data))
            check(run.report_failures(bad, rep) != [], f"a flipped byte in {name} went unnoticed")
        skipped = Path(tmp) / "skipped"
        shutil.copytree(rep, skipped)
        with open(skipped / "raw.jsonl", "a") as fh:
            fh.write(json.dumps({"morbidity": "Gout", "representation": "tfidf_svm", "skipped": "x"}) + "\n")
        check(run.report_failures(skipped, None) != [], "a skipped cell went unnoticed")

    reference = {"svm": [0, 1, 1], "bilstm": [1, 0, 0]}
    seen = [(0, "svm", 0), (1, "svm", 1), (2, "bilstm", 0)]
    check(child.mismatches(seen, reference) == 0, "matching predictions flagged")
    seen[1] = (1, "svm", 0)
    check(child.mismatches(seen, reference) == 1, "a flipped prediction went unnoticed")

    import numpy as np
    from morbench.models.svm import SvmModel

    model = SvmModel(weights=np.array([0.5, -1.0]), bias=0.25, lam=1e-4)
    twin = SvmModel(weights=model.weights.copy(), bias=0.25, lam=1e-4)
    check(child.same_model(model, twin), "identical models flagged")
    twin.weights[1] = np.nextafter(twin.weights[1], 0.0)
    check(not child.same_model(model, twin), "a one-ulp model change went unnoticed")
    print("ok corrupted outputs are caught", file=sys.stderr)


def check_loud_tracing() -> None:
    try:
        tracing.layer_metrics([], ("eval.run_cell",), 1)
    except tracing.TraceError:
        pass
    else:
        check(False, "a missing expected span was not reported")
    saved = tracing.HOOKS
    tracing.HOOKS = (("eval.gone", "no_such_function", ("morbench.eval",)),)
    try:
        tracing.Tracer(Path(tempfile.gettempdir())).install()
    except tracing.TraceError:
        pass
    else:
        check(False, "a missing hook target was not reported")
    finally:
        tracing.HOOKS = saved
    print("ok tracing fails loudly", file=sys.stderr)


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0, "ran without the package sources")
        check(proc.stdout.strip() == "", f"printed a result without sources: {proc.stdout!r}")
    print("ok refuses to run without sources", file=sys.stderr)


def main() -> int:
    check_metrics()
    check_corruption()
    check_loud_tracing()
    check_refuses_without_sources()
    print("smoke test passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
