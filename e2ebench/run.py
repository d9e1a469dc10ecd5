"""End-to-end benchmark of the profile -> train -> predict -> search pipeline.

One run:

    python3 e2ebench/run.py --workload policy-pair --seed 3 --seconds 5 --trace 0

builds the workload's inputs from ``--seed`` (timed as set-up, several
times, median reported), then runs whole rounds of the workload's timed
operations until ``--seconds`` have passed (at least one), checks the
outputs, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced round (see tracing.py), and a per-layer
table is printed above the JSON and the spans are written to
``.e2ebench/<workload>-seed<seed>.jsonl``.

Repeat mode runs each run in a fresh interpreter and prints each
metric's median and quartiles:

    python3 e2ebench/run.py --workload all --repeat 10 --seed 1 --seconds 5

Load comes from this one process: every ``n_jobs`` is 1 and the BLAS /
OpenMP pools are pinned to one thread before NumPy loads.  Times are
reference seconds: wall time scaled by the host's speed, which calibration
slices run by an interval timer measure all through the run (see
hostclock.py).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("profile-long", "policy-pair", "replan-chain")


def _import_program(clock=None):
    """Import the program from this checkout's ``src/``, or exit 2.

    Returns the workloads module and, with a clock, the import's
    reference seconds.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program at {SRC}/repro: nothing to benchmark\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    if clock is not None:
        clock.lap()
    import workloads  # noqa: F401  (imports the program's modules)

    import_s = clock.lap() if clock is not None else None
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(f"imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)
    return workloads, import_s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(wl, state, clock, seconds: float) -> list:
    outs = []
    start = time.perf_counter()
    while True:
        outs.append(wl.round(state, clock))
        if time.perf_counter() - start >= seconds:
            return outs


def _emit(correct: bool, outs: list, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(sum(o.attempted for o in outs)),
        "failed": int(sum(o.failed for o in outs)),
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }))


def _report_checks(checks) -> None:
    for name, ok, detail in checks.results:
        mark = "ok  " if ok else "FAIL"
        print(f"  [{mark}] {name}" + (f" ({detail})" if detail else ""))


def run_once(name: str, seed: int, seconds: float) -> int:
    with HostClock() as clock:
        wls, import_s = _import_program(clock)
        wl = wls.WORKLOADS[name]
        setup_times = []
        for _ in range(wl.setup_reps):
            clock.lap()
            state = wl.setup(seed)
            setup_times.append(clock.lap())
        outs = _run_rounds(wl, state, clock, seconds)
    peak = _peak_rss_mb()
    quality, checks = wl.finish(state, outs)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        **wls.metrics_common(outs),
        "peak_rss_mb": (peak, "MB"),
        **quality,
    }
    print(f"{name} seed={seed}: {len(outs)} round(s), median round "
          f"{_median(o.wall for o in outs):.3f} s wall = "
          f"{_median(o.seconds for o in outs):.3f} reference s; clock rate "
          f"{clock.rate:.3f} over {len(clock.rates)} calibrations taking "
          f"{clock.calibration_s:.2f} s; checks:")
    _report_checks(checks)
    _emit(checks.ok, outs, metrics)
    return 0 if checks.ok else 1


def run_traced(name: str, seed: int, seconds: float) -> int:
    wls, _ = _import_program()
    import tracing as trace

    wl = wls.WORKLOADS[name]
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    phase = tracer.begin("bench.setup", phase="setup")
    state = wl.setup(seed)
    tracer.end(phase)
    trace.uninstall(undo)
    with HostClock() as clock:
        untraced = _run_rounds(wl, state, clock, seconds)
        undo = trace.install(tracer)
        phase = tracer.begin("bench.round", phase="run")
        traced_out = wl.round(state, clock)
        tracer.end(phase)
        trace.uninstall(undo)

    _, checks = wl.finish(state, [traced_out])
    metrics = trace.per_layer_metrics(tracer.spans)
    round_s, uncovered = trace.round_coverage(tracer.spans, phase)
    untraced_s = _median(o.seconds for o in untraced)
    metrics["trace.uncovered_share"] = (uncovered / round_s, "ratio")
    metrics["trace.overhead"] = (traced_out.seconds / untraced_s - 1.0, "ratio")

    out_dir = ROOT / ".e2ebench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"{name} seed={seed}: traced round {traced_out.seconds:.3f} vs "
          f"untraced median {untraced_s:.3f} reference s over {len(untraced)} "
          f"round(s); clock rate {clock.rate:.3f}; layer spans "
          f"are wall seconds and hold the calibrations that ran inside them "
          f"({clock.calibration_s / sum(w for _, w in clock.laps):.1%} of the "
          f"timed wall time).  Top-level layer spans leave {uncovered:.3f} s "
          f"({uncovered / round_s:.2%}) of the round uncovered; spans -> {path}")
    print(f"{'phase':6} {'layer span':30} {'calls':>7} {'total s':>9} "
          f"{'self s':>9} {'% of round':>10}")
    for row in trace.layer_table(tracer.spans):
        share = (f"{row['total_s'] / round_s:10.1%}" if row["phase"] == "run"
                 else f"{'-':>10}")
        print(f"{row['phase']:6} {row['name']:30} {row['calls']:7d} "
              f"{row['total_s']:9.3f} {row['self_s']:9.3f} {share}")
    print("checks:")
    _report_checks(checks)
    _emit(checks.ok, [traced_out], metrics)
    return 0 if checks.ok else 1


def _median(values) -> float:
    return statistics.median(list(values))


def run_repeat(names, first_seed: int, n: int, seconds: float, trace: int) -> int:
    """Each run in a fresh interpreter; median and quartiles per metric."""
    status = 0
    summary = {}
    for name in names:
        values: dict[str, list] = {}
        shares = set()
        for seed in range(first_seed, first_seed + n):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stdout.write(proc.stdout + proc.stderr)
                print(f"{name} seed={seed}: exit {proc.returncode}")
                status = 1
                continue
            rec = json.loads(lines[-1])
            shares.add((rec["failed"], rec["attempted"]))
            for k, m in rec["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"\n{name}: {n} runs, seeds {first_seed}..{first_seed + n - 1}, "
              f"(failed, attempted) seen: {sorted(shares)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10}")
        summary[name] = {}
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            summary[name][k] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": vals}
            print(f"  {k:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:10.2%}"
                  f"   [{' '.join(f'{v:.4g}' for v in vals)}]")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times in fresh interpreters, seeds seed..seed+N-1")
    args = p.parse_args(argv)
    if args.repeat:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        return run_repeat(names, args.seed, args.repeat, args.seconds, args.trace)
    if args.workload == "all":
        p.error("--workload all needs --repeat")
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    return run_once(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
