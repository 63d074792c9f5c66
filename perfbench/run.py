"""radialcap benchmark entry point.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 25 --trace 0

Runs one workload (verdicts, profiles, hitting or cli) from the root of a
checkout against ``src/`` as it stands there.  ``--trace 0`` times a closed
loop for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
runs one cycle of the workload's ops untraced, under span tracing and
untraced again, and reports the per-layer metrics.  Every op result is checked against an
oracle.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
environment, failures, warnings and the per-function trace table, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
SETUP_RUNS = 4            # extra processes that only set up; setup_s is the median
DEADLINE_S = 170.0        # the whole run, set-up runs included


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_threads() -> int:
    """RADIALCAP_THREADS as the package would resolve it, capped at nproc."""
    try:
        requested = max(1, int(os.environ.get("RADIALCAP_THREADS", "")))
    except ValueError:
        requested = min(4, nproc())
    return min(requested, nproc())


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_worker(args, env, deadline, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verdicts", "profiles", "hitting", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="cap the number of ops (self-check runs only)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "radialcap" / "__init__.py").is_file():
        print(f"no radialcap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not list((ROOT / "configs").glob("*.json")):
        print(f"no configs under {ROOT / 'configs'}", file=sys.stderr)
        return 2
    specs = metric_specs()

    threads = pinned_threads()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["RADIALCAP_THREADS"] = str(threads)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_docs = []
        if args.trace == 0:
            setup_docs = [run_worker(args, env, deadline, "--setup-only")
                          for _ in range(SETUP_RUNS)]
        extra = ("--spans-out", f"{stem}-spans.npz") if args.trace else ()
        doc = run_worker(args, env, deadline, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    setup_docs.append(doc)
    setup_samples = [d["setup_s"] for d in setup_docs]
    failures = [f for d in setup_docs for f in d["failures"]]
    warmup_failed = sum(d["warmup_failed"] for d in setup_docs)
    if args.trace == 0:
        values = dict(doc, setup_s=statistics.median(setup_samples))
        wanted = specs["end_to_end"]
    else:
        values = doc["layers"]
        wanted = specs["per_layer"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    result = {
        "correct": doc["failed"] == 0 and warmup_failed == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result,
        "fail_rate": doc["failed"] / doc["attempted"],
        "setup_samples_s": setup_samples,
        "environment": dict(doc["environment"], nproc=nproc(),
                            radialcap_threads=threads, git_commit=git_commit(),
                            src_lines=src_lines()),
        "worker": doc,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env_line = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={doc['attempted']} failed={doc['failed']} "
          f"fail_rate={record['fail_rate']:.4g}")
    if args.trace == 0:
        probes = sorted(b["probe_ms"] for b in doc["blocks"])
        print(f"timings scaled to a 1 ms machine probe (block probe medians "
              f"{probes[0]:.3g}-{probes[-1]:.3g} ms): latency samples={doc['latency_samples']}, "
              f"op_p90_ms is p{doc['op_p90_percentile']:g}; setup samples={len(setup_samples)}")
        raw = doc["raw"]
        print(f"unscaled: ops_per_s={raw['ops_per_s']:.4g} "
              f"op_p50_ms={raw['op_p50_ms']:.4g} op_p90_ms={raw['op_p90_ms']:.4g}")
        print("setup_s unscaled: " + " ".join(
            f"{d['setup_raw_s']:.4g}" for d in setup_docs))
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_line.items()))
    if doc["warnings"]:
        print("warnings: " + "; ".join(f"{k} x{v}" for k, v in doc["warnings"].items()))
    for failure in failures:
        print(f"failure: {failure}")
    print(f"record: {stem.relative_to(ROOT)}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
