"""One workload process: set up, run the timed closed loop (or the traced
pass), check every result, and print one JSON document as the last line.

Run by ``run.py``; ``--setup-only`` stops after set-up so that set-up can be
timed in several fresh processes.
"""

from __future__ import annotations

import time

SETUP_T0 = time.perf_counter()   # set-up time counts from here

import argparse                  # noqa: E402
import json                      # noqa: E402
import math                      # noqa: E402
import random                    # noqa: E402
import resource                  # noqa: E402
import sys                       # noqa: E402
import warnings                  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path         # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_SHOWN = 5
BLOCKS = 20         # the timed phase is cut into this many blocks
PROBE_EVERY_S = 0.1  # least time between two machine probes
PROBE_REF_S = 1e-3  # timings are reported as if the machine probe took this long
# Ops slowed less than the probe did: over 30 runs of three workloads, this
# exponent gave the lowest spread between runs overall (1 over-corrected
# profiles).
PROBE_EXP = 0.75


class WarningCounter:
    """Counts every Python warning, by category and source line, while
    active (the default filter would show each location only once)."""

    def __init__(self):
        self.counts = Counter()
        self._ctx = None

    def __enter__(self):
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        self._ctx.__exit__(*exc)

    def _record(self, message, category, filename, lineno, file=None, line=None):
        try:
            where = Path(filename).resolve().relative_to(ROOT)
        except ValueError:
            where = Path(filename).name
        self.counts[f"{category.__name__} {where}:{lineno}"] += 1


def run_ops(workload, ops, start=0, seconds=None, probe_every=None):
    """Closed loop over ``ops`` from index ``start``: once through, or
    cycling until ``seconds`` have passed.  With ``probe_every``, the
    machine probe runs before the first op and then between ops at least
    that many seconds apart."""
    latencies, labels, failures, probes = [], [], [], []
    n_failed = 0
    probe_time = 0.0
    next_probe = 0.0
    i = start
    t_start = time.perf_counter()
    while True:
        if probe_every is not None and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            probes.append(machine_probe())
            probe_time += time.perf_counter() - t0
            next_probe = t0 + probe_every
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        labels.append(workload.label(op))
        if error is None:
            try:
                error = workload.check(op, result)
            except Exception as exc:  # an oracle that raises is a failed op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            n_failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(error)
        if seconds is None:
            if i - start >= len(ops):
                break
        elif time.perf_counter() - t_start >= seconds:
            break
    return {"latencies": latencies, "labels": labels, "failed": n_failed,
            "failures": failures, "probes": probes,
            "wall": time.perf_counter() - t_start - probe_time, "next": i}


def machine_probe() -> float:
    """Seconds for a fixed run of small numpy operations that does not touch
    radialcap (about 1 ms): how fast the shared machine is running right
    now.  Of the probes tried (an interpreter loop, numpy on 512, 8192 and
    131072 elements, and a mix), this one tracked the slowdown of classify
    and simulate_radial closest."""
    import numpy as np

    arr = np.linspace(1.0, 2.0, 512)
    t0 = time.perf_counter()
    for _ in range(500):
        arr = np.sqrt(arr + 1.0)
    return time.perf_counter() - t0


def timed_phase(workload, ops, seconds):
    """BLOCKS equal blocks of closed loop, with the machine probe run every
    PROBE_EVERY_S between ops.

    Other tenants of a shared machine slow every op, by up to 2x for
    seconds to minutes at a time, and the probe slows with them.  A block's
    probe time is the median of its probes, and the timing metrics scale
    each block's times by (PROBE_REF_S / probe time) ** PROBE_EXP.  The
    unscaled figures go to the record as ``raw``."""
    blocks, nxt = [], 0
    for _ in range(BLOCKS):
        block = run_ops(workload, ops, nxt, seconds / BLOCKS, PROBE_EVERY_S)
        block["probe_s"] = sorted(block["probes"])[len(block["probes"]) // 2]
        nxt = block["next"]
        blocks.append(block)
    cycle_len = min(workload.cycle_len, len(ops))
    summary = block_summary(blocks, cycle_len, PROBE_EXP)
    summary["raw"] = block_summary(blocks, cycle_len)
    summary["blocks"] = [{"probe_ms": b["probe_s"] * 1e3,
                          "probes_ms": [x * 1e3 for x in b["probes"]],
                          "latencies_ms": [x * 1e3 for x in b["latencies"]],
                          "wall_s": b["wall"]} for b in blocks]
    every = [x for b in blocks for x in b["latencies"]]
    summary["attempted"] = len(every)
    summary["failed"] = sum(b["failed"] for b in blocks)
    summary["failures"] = [f for b in blocks for f in b["failures"]][:MAX_FAILURES_SHOWN]
    summary["by_label"] = by_label([lab for b in blocks for lab in b["labels"]], every)
    summary["timed_s"] = sum(b["wall"] for b in blocks)
    return summary


def block_summary(blocks, cycle_len, scale_exp=0.0):
    """Throughput over ``blocks`` and latency percentiles over their whole
    cycles of ops, so that every run weighs each op of the schedule alike.
    Each block's times are scaled by (PROBE_REF_S / its probe time) **
    ``scale_exp``; 0 leaves them as measured."""
    scale = [(PROBE_REF_S / b["probe_s"]) ** scale_exp for b in blocks]
    latencies = [x * k for b, k in zip(blocks, scale) for x in b["latencies"]]
    whole = len(latencies) // cycle_len * cycle_len
    summary = latency_summary(latencies[:whole] if whole else latencies)
    summary["ops_per_s"] = len(latencies) / sum(b["wall"] * k for b, k in zip(blocks, scale))
    return summary


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100.0)) - 1]


def latency_summary(latencies):
    """Median and p90; when fewer than 10 samples lie beyond p90, the
    highest percentile that still has 10 beyond it (the median at least)."""
    values = sorted(latencies)
    n = len(values)
    tail_q = max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))
    return {
        "op_p50_ms": percentile(values, 50) * 1e3,
        "op_p90_ms": percentile(values, tail_q) * 1e3,
        "op_p90_percentile": tail_q,
        "latency_samples": n,
    }


def by_label(labels, latencies):
    """Op count and median latency per kind of op (model, family or
    subcommand and config), over every block."""
    groups = {}
    for label, lat in zip(labels, latencies):
        groups.setdefault(label, []).append(lat)
    return {label: {"ops": len(v), "p50_ms": sorted(v)[len(v) // 2] * 1e3}
            for label, v in sorted(groups.items())}


def backend_used():
    """Which Monte Carlo kernel ``backend="auto"`` runs, by spying on the
    kernels' entry points during a tiny simulation."""
    import radialcap as rc
    import radialcap.diffusion as diffusion

    seen = []
    spies = {"numpy": "_simulate_numpy", "numba": "_build_kernel"}
    originals = {}
    for label, attr in spies.items():
        fn = getattr(diffusion, attr, None)
        if fn is None:
            continue
        originals[attr] = fn

        def spy(*args, _fn=fn, _label=label, **kwargs):
            seen.append(_label)
            return _fn(*args, **kwargs)

        setattr(diffusion, attr, spy)
    try:
        cfg = rc.DiffusionConfig(dt=1e-2, paths=4, seed=0, r_inner=0.5, r_outer=2.0,
                                 max_time=1.0)
        rc.simulate_radial(rc.ModelSpace.euclidean(3), 1.0, cfg)
    finally:
        for attr, fn in originals.items():
            setattr(diffusion, attr, fn)
    return seen[0] if seen else "unknown"


def environment():
    import numpy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "mc_backend_auto": backend_used(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    import radialcap
    src = (ROOT / "src").resolve()
    if src not in Path(radialcap.__file__).resolve().parents:
        print(f"radialcap imported from {radialcap.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, workloads.load_reference())
    ops = workload.build(random.Random(args.seed))
    if args.ops is not None:
        ops = ops[:args.ops]
    warmup = run_ops(workload, workload.warmup())
    setup_raw_s = time.perf_counter() - SETUP_T0
    probe_s = sorted(machine_probe() for _ in range(5))[2]
    doc = {"setup_s": setup_raw_s * (PROBE_REF_S / probe_s) ** PROBE_EXP,
           "setup_raw_s": setup_raw_s,
           "setup_probe_ms": probe_s * 1e3, "warmup_failed": warmup["failed"],
           "failures": warmup["failures"]}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    counter = WarningCounter()
    if args.trace == 0:
        cpu0 = time.process_time()
        with counter:
            summary = timed_phase(workload, ops, args.seconds)
        doc["failures"] += summary.pop("failures")
        doc.update(summary, process_cpu_s=time.process_time() - cpu0)
    else:
        import numpy as np
        import spans

        # untraced, traced, untraced again: the overhead is taken against
        # the mean of the two untraced passes over the same ops
        trace_ops = ops[:min(len(ops), workload.trace_ops)]
        cpu0 = time.process_time()
        plain = run_ops(workload, trace_ops)
        cpu_s = time.process_time() - cpu0
        tracer = spans.Tracer()
        tracer.install()
        try:
            with counter:
                traced = run_ops(workload, trace_ops)
        finally:
            tracer.uninstall()
        again = run_ops(workload, trace_ops)
        passes = (plain, traced, again)
        table = tracer.aggregate()
        layers = spans.layer_metrics(table, tracer.counts)
        layers["process.cpu_s"] = cpu_s
        layers["warnings.count"] = sum(counter.counts.values())
        layers["trace.overhead_s"] = traced["wall"] - 0.5 * (plain["wall"] + again["wall"])
        doc["failures"] += [f for run in passes for f in run["failures"]]
        doc.update({
            "attempted": sum(len(run["latencies"]) for run in passes),
            "failed": sum(run["failed"] for run in passes),
            "layers": layers,
            "spans": table,
            "missing_targets": tracer.missing,
            "span_count": len(tracer.span_name),
            "untraced_s": [plain["wall"], again["wall"]],
            "traced_s": traced["wall"],
        })
        if args.spans_out:
            np.savez_compressed(args.spans_out, **tracer.spans())
    doc["warnings"] = dict(counter.counts)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["environment"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
