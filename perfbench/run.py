"""The homogdirac benchmark: one workload, a closed loop of fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
One client runs operations back to back, each in a fresh worker process
(`worker.py`) with one BLAS thread: at least three (one untraced/traced
pair when tracing), then more while one more still ends within S seconds
at the median pace so far; operation i gets the seed
N * 100000 + i.  Every output is checked against the workload's oracle.

With `--trace 0` the last line of standard output is
    {"correct", "attempted", "failed", "metrics": wall_s, setup_s, peak_rss_mb}
where `attempted` and `failed` count oracle checks (fail_ratio is
failed / attempted).  With `--trace 1` each seed runs untraced and then
traced; the metrics are the per-layer ones from `tracing.PER_LAYER` and
`trace.overhead_s`, and the traced output must equal the untraced one.
Earlier lines give provenance and a readable summary; the full record of
the run is written to `perfbench/out/`.

Exit status 2, with nothing printed on standard output, when the
checkout holds no `src/homogdirac` or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# the first operation after set-up often runs slower; the median of three
# or more leaves it out.  A traced run needs one untraced/traced pair.
MIN_OPS = 3
SEED_STRIDE = 100_000
DEADLINE_S = 170.0  # every run ends well inside the 180 s it is allowed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the program default (one thread) is what every run measures
    env.pop("HOMOG_DIRAC_THREADS", None)
    # one BLAS thread: on a machine of few shared cores a second BLAS thread
    # measures the neighbours' load more than the program
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def call_worker(args: list, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run_ops(workload: str, seed: int, seconds: float, trace: bool, start: float) -> list:
    """Closed loop of operations: MIN_OPS, then more while the next one,
    as long as the median one so far, still ends within `seconds`."""
    min_ops = 1 if trace else MIN_OPS
    ops = []
    took = []
    i = 0
    t0 = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - t0 + statistics.median(took) <= seconds:
        t_op = time.perf_counter()
        op_seed = seed * SEED_STRIDE + i
        base = ["--workload", workload, "--seed", str(op_seed)]
        op = {"seed": op_seed}
        try:
            op["untraced"] = call_worker(base, DEADLINE_S - (time.perf_counter() - start))
            if trace:
                spans = OUT / f"{workload}.spans.json"
                op["traced"] = call_worker(base + ["--trace", "--spans", str(spans)],
                                           DEADLINE_S - (time.perf_counter() - start))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            op["error"] = str(exc)
            ops.append(op)
            break
        ops.append(op)
        took.append(time.perf_counter() - t_op)
        i += 1
    return ops


def op_checks(op: dict, trace: bool) -> list:
    """Every oracle check of one operation, as (name, passed)."""
    if "error" in op:
        return [("operation-completed", False)]
    checks = [(name, ok) for name, ok, _ in op["untraced"]["checks"]]
    if trace:
        checks += [(name, ok) for name, ok, _ in op["traced"]["checks"]]
        checks.append(("trace.digest-matches-untraced",
                       op["traced"]["digest"] == op["untraced"]["digest"]))
    return checks


def summarize(ops: list, trace: bool, setup: list) -> dict:
    """The result line: check counts and the metrics of this mode."""
    checks = [c for op in ops for c in op_checks(op, trace)]
    failed = sum(1 for _, ok in checks if not ok)
    done = [op for op in ops if "error" not in op]
    metrics = {}
    if done and not trace:
        metrics["wall_s"] = {"value": statistics.median(op["untraced"]["wall_s"] for op in done),
                             "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(op["untraced"]["peak_rss_mb"] for op in done), "unit": "MB"}
    elif done:
        for name, kind, _ in PER_LAYER:
            metrics[name] = {"value": statistics.median(op["traced"]["layers"][name] for op in done),
                             "unit": UNITS[kind]}
        # each pair ran back to back on one seed, so machine drift cancels best
        metrics["trace.overhead_s"] = {
            "value": statistics.median(op["traced"]["wall_s"] - op["untraced"]["wall_s"]
                                       for op in done), "unit": "s"}
    return {"correct": failed == 0 and len(done) == len(ops), "attempted": len(checks),
            "failed": failed, "metrics": metrics}


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "homogdirac" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'homogdirac'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)

    # the first import may compile bytecode; it is not part of the set-up time
    call_worker(["--setup"], DEADLINE_S)
    setup = [] if trace else [call_worker(["--setup"], DEADLINE_S)["setup_s"]
                              for _ in range(SETUP_REPEATS)]
    ops = run_ops(args.workload, args.seed, args.seconds, trace, start)
    result = summarize(ops, trace, setup)

    first = next((op["untraced"] for op in ops if "untraced" in op), {})
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "homog_dirac_threads": "unset (program default 1)",
        "blas_thread_vars": {name: "1" for name in BLAS_THREAD_VARS},
        "program": first.get("program"),
        "inputs": [op["untraced"]["inputs"] for op in ops if "untraced" in op],
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": provenance, "setup_s": setup, "ops": ops,
                   "result": result}, fh, indent=1, default=str)

    print(json.dumps({"provenance": provenance}))
    walls = [op["untraced"]["wall_s"] for op in ops if "untraced" in op]
    if walls:
        q1, q2, q3 = quartiles(walls)
        print(f"{args.workload}: {len(walls)} operations, wall_s median {q2:.4f} s "
              f"(quartiles {q1:.4f}..{q3:.4f})")
    if first:
        print(f"output sha256 of the first operation (information only): {first['digest']}")
    print(f"fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / max(1, result['attempted']):.4f} (ratio)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
