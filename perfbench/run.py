"""Benchmark of the cournotlab command line, run in one process.

    python3 perfbench/run.py --workload {sweep,spectra,orbits} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from
``src/`` next to this directory, and the benchmark stops with exit code
2 when it is missing.  The run sets up (imports, inputs from the seed,
one untimed warm-up item), then repeats the workload's round of
``cournotlab.cli.main(argv)`` calls until ``--seconds`` have passed and
the workload's minimum item count is reached, finishing the round it is
in.  Outputs go to a scratch directory under ``perfbench/.work/`` and are
checked after the timed phase: the first round against the oracles of
``oracles.py``, every later round and one more untimed call of the first
item byte for byte against the first round.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the same run is made with every layer wrapped in spans and
the last line reports the per-layer metrics (spans go to
``perfbench/.work/trace-<workload>.csv``).  The line before it records
the seed, the machine and the versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the load is a single process, and threads beyond the
# two cores would measure the scheduler
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
READY = "ready"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "spectra", "orbits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, work: Path):
    """Import the program, generate the inputs and run the warm-up item."""
    from cournotlab import cli
    import workloads

    items = workloads.GENERATORS[workload](seed)
    rc = cli.main(workloads.warmup_item(workload) + ["--out", str(work / "warmup.out")])
    if rc != 0:
        raise RuntimeError(f"warm-up item exited {rc}")
    return cli, items


def time_setup(args) -> float:
    """Median wall time from spawning a fresh interpreter to the end of its
    set-up, over SETUP_REPEATS probes started one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return statistics.median(times)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: at p=75 over 40 values, 10 lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def csv_rows(path: Path) -> int:
    """Data rows of a CSV output (comment and header lines excluded)."""
    if path.suffix != ".csv":
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def run(args, work: Path) -> dict:
    cli, items = set_up(args.workload, args.seed, work)
    if args.setup_probe:
        print(READY, flush=True)
        return {}

    import spans
    import workloads

    tracer = None
    call = cli.main
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        call = lambda argv: tracer.call_item(cli.main, argv)  # noqa: E731

    min_items = workloads.MIN_ITEMS[args.workload]
    durations, codes = [], []
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            for i, item in enumerate(items):
                argv = item.args + ["--out", str(work / f"r{rounds}-{i}{item.suffix}")]
                t0 = time.perf_counter()
                codes.append(call(argv))
                durations.append(time.perf_counter() - t0)
            rounds += 1
            if time.perf_counter() - start >= args.seconds and len(codes) >= min_items:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks: round 0 against the oracles, later rounds byte for byte
    check_start = time.perf_counter()
    first = [work / f"r0-{i}{item.suffix}" for i, item in enumerate(items)]
    problems = {}
    for i, item in enumerate(items):
        if codes[i] != 0:
            problems[i] = [f"exit code {codes[i]}"]
            continue
        try:
            found = item.check(first, i)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[i] = found
    # one more, untimed call of the first item: the same inputs give the
    # same bytes, also when the run had a single round
    again = work / f"again{items[0].suffix}"
    if 0 not in problems and (
        cli.main(items[0].args + ["--out", str(again)]) != 0
        or again.read_bytes() != first[0].read_bytes()
    ):
        problems[0] = ["a repeated call wrote different bytes"]
    failed = 0
    for k, rc in enumerate(codes):
        r, i = divmod(k, len(items))
        path = work / f"r{r}-{i}{items[i].suffix}"
        if i in problems or rc != 0:
            failed += 1
        elif r > 0 and path.read_bytes() != first[i].read_bytes():
            failed += 1
            problems.setdefault(i, []).append(f"round {r} output differs from round 0")
    check_s = time.perf_counter() - check_start

    tail = workloads.TAIL_PERCENTILE[args.workload]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "items_per_round": len(items),
        "timed_wall_s": wall, "check_s": check_s,
        "tail_percentile": tail,
        **machine(),
        "problems": {f"{items[i].args[0]}#{i}": p[:3] for i, p in problems.items()},
    }
    if tracer is not None:
        rows = [csv_rows(path) for path in first] * rounds
        layer = tracer.summary(rows)
        tracer.write(WORK / f"trace-{args.workload}.csv")
        metrics = {name: {"value": v, "unit": spans.UNITS[name]} for name, v in layer.items()}
    else:
        metrics = {
            "items_per_s": {"value": len(codes) / wall, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(durations) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": percentile(durations, tail) * 1e3, "unit": "ms"},
            "setup_s": {"value": time_setup(args), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    return {
        "correct": failed == 0,
        "attempted": len(codes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cournotlab" / "__init__.py").is_file():
        print(f"error: no cournotlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
