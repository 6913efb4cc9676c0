"""polyscheme benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Writes the workload's inputs from closed
forms (relabelled by permutations drawn from --seed), then starts
PROCESSES worker processes one after another.  Each one imports polyscheme
from src/, makes one untimed warm-up call, and times whole rounds of
polyscheme.cli.main calls for S / PROCESSES seconds.  Every --json output
is checked against the closed forms, and the verdicts must not change
between processes, whose inputs are relabelled differently.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end ones with --trace 0 and per-layer ones
with --trace 1.  The full record (environment, per-operation times, trace
summaries with self times, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROCESSES = 6
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # workers still running after this are killed


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_process(plan_path: Path, deadline: float) -> float:
    """Run one worker to its end; return the seconds from its spawn to its
    "ready" line.  The worker is killed at the deadline."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        wait = max(0.0, deadline - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise RuntimeError("worker did not get ready in time")
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready (said {line!r})")
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready_s


def check_outputs(workload, results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every output of every process."""
    attempted = failed = 0
    problems: list[str] = []
    signatures: dict[str, tuple] = {}
    for p, res in enumerate(results):
        first: dict[str, dict] = {}
        for op in workload.ops:
            for out in res["outputs"][op.key]:
                attempted += out["rounds"]
                if out["rc"] != 0:
                    failed += out["rounds"]
                    print(f"{op.key} (process {p}) failed: {out['rc']} {out['stderr'].strip()}",
                          file=sys.stderr)
                    continue
                try:
                    parsed = json.loads(out["stdout"])
                except ValueError as exc:
                    problems.append(f"{op.key} (process {p}): output is not JSON: {exc}")
                    continue
                problems.extend(f"{op.key} (process {p}): {msg}" for msg in op.check(parsed))
                sig = op.signature(parsed)
                if signatures.setdefault(op.key, sig) != sig:
                    problems.append(f"{op.key}: verdicts differ under relabelling "
                                    f"(process {p}): {sig} vs {signatures[op.key]}")
                first.setdefault(op.key, parsed)
        if len(first) == len(workload.ops):
            problems.extend(f"process {p}: {msg}" for msg in workload.cross_check(first))
    return attempted, failed, problems


def layer_metrics(declared: list[dict], results: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced rounds) and the full
    per-span summary with self times."""
    rounds = [r for res in results for r in res["rounds"]]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    names = sorted({name for r in traced for name in r["trace"]})
    summary = {
        name: {"calls": statistics.median_low(r["trace"].get(name, {}).get("calls", 0)
                                              for r in traced),
               **{field: statistics.median(r["trace"].get(name, {}).get(field, 0.0)
                                           for r in traced)
                  for field in ("inclusive_s", "self_s")}}
        for name in names
    }
    metrics = {}
    for m in declared:
        name = m["name"]
        if name == "process.cpu_s":
            value = statistics.median(r["cpu_s"] for r in plain)
        elif name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        elif name.endswith("_calls"):
            value = summary.get(name[:-len("_calls")], {}).get("calls", 0)
        else:
            value = summary.get(name[:-len("_s")], {}).get("inclusive_s", 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polyscheme" / "__init__.py").is_file():
        return fail(f"no polyscheme sources under {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads

    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.NAMES)}")
    workload = workloads.build(args.workload)
    # Byte-compile first, so that no worker's set-up includes compiling.
    compileall.compile_dir(str(SRC), quiet=1)

    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    budget = args.seconds / PROCESSES
    setups, results = [], []
    for p in range(PROCESSES):
        pdir = run_dir / f"process{p}"
        pdir.mkdir(parents=True)
        rng = np.random.default_rng([args.seed, p])
        start = time.perf_counter()
        for fname, make in workload.inputs.items():
            (pdir / fname).write_text(make(rng))
        build_s = time.perf_counter() - start
        plan = {
            "src": str(SRC),
            "ops": [{"key": op.key, "argv": [*op.argv, str(pdir / op.input_name), "--json"]}
                    for op in workload.ops],
            "trace": bool(args.trace),
            "budget_s": budget,
            "result": str(pdir / "result.json"),
        }
        plan_path = pdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        try:
            ready_s = run_process(plan_path, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(f"process {p}: {exc}")
        setups.append({"build_inputs_s": build_s, "start_to_ready_s": ready_s,
                       "setup_s": build_s + ready_s})
        results.append(json.loads((pdir / "result.json").read_text()))

    attempted, failed, problems = check_outputs(workload, results)
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)
    rounds = [r for res in results for r in res["rounds"]]
    plain = [r for r in rounds if not r["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "processes": PROCESSES,
        "environment": results[0]["environment"],
        "setup": setups,
        "peak_rss_mb": [res["peak_rss_mb"] for res in results],
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_cpu_s": [r["cpu_s"] for r in plain],
        "op_median_s": {op.key: statistics.median(r["op_s"][i] for r in plain)
                        for i, op in enumerate(workload.ops)},
        "problems": problems,
    }
    if args.trace:
        metrics, summary = layer_metrics(spec["per_layer"], results)
        record["trace_summary"] = summary
        record["traced_round_wall_s"] = [r["wall_s"] for r in rounds if r["traced"]]
        record["spans"] = [res["spans"] for res in results]
    else:
        values = {
            "wall_s": statistics.median(record["round_wall_s"]),
            "peak_rss_mb": statistics.median(record["peak_rss_mb"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    record["metrics"] = metrics
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"cpu_count {env['cpu_count']}, threads {env['threads']}")
    print(f"rounds: {len(rounds)} ({len(plain)} untraced) over {PROCESSES} processes; "
          f"record: {run_dir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
