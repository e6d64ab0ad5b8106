"""Benchmark of the pskrates command line, one workload per run.

    python3 pskbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src and driven
in-process through ``pskrates.cli.main(argv)`` with stdout captured, the way
a user runs it. Set-up (import, input generation, warm-up) is repeated and
its median reported; then whole rounds of the workload run until --seconds
have passed. Every item's output is checked against pskbench/reference.py
after timing. The last stdout line is the JSON result; with --trace 1 the
metrics are per-layer counts and self times from a separate traced pass.
"""

import os
import sys

# single process, single BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PSKRATES_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
#: inputs are generated for this many rounds; a run stops earlier on time
MAX_ROUNDS = 200

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fresh_cli():
    """Import pskrates.cli from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "pskrates" or m.startswith("pskrates.")]:
        del sys.modules[name]
    cli = importlib.import_module("pskrates.cli")
    if Path(cli.__file__).resolve().parent != SRC / "pskrates":
        raise ImportError(f"pskrates imported from {cli.__file__}, not from {SRC}")
    return cli


def _invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def setup(workload, seed):
    """Import, generate every round's inputs and warm up; returns (cli, rounds, seconds)."""
    start = time.perf_counter()
    cli = _fresh_cli()
    rounds = [workloads.WORKLOADS[workload](seed, r) for r in range(MAX_ROUNDS)]
    for argv in workloads.WARMUP[workload]:
        code, _, err = _invoke(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}: {err}")
    return cli, rounds, time.perf_counter() - start


def run_round(cli, items, records):
    """Run one round, appending (item, exit code, stdout, stderr, seconds); returns seconds."""
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        code, out, err = _invoke(cli, item.argv)
        records.append((item, code, out, err, time.perf_counter() - t0))
    return time.perf_counter() - start


def run_rounds(cli, rounds, seconds, records):
    """Run whole rounds until `seconds` have passed; returns the elapsed time."""
    start = time.perf_counter()
    for items in rounds:
        run_round(cli, items, records)
        if time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start


def run_traced(cli, rounds, seconds, records):
    """Run each round untraced, then again traced, until `seconds` have passed.

    Returns the tracer, the number of traced rounds and traced / untraced time.
    Pairing every traced round with the same round untraced keeps slow drift
    of the machine out of the overhead ratio.
    """
    tracer = Tracer()
    untraced = traced = 0.0
    start = time.perf_counter()
    for done, items in enumerate(rounds, start=1):
        untraced += run_round(cli, items, records)
        first = len(records)
        tracer.install()
        try:
            traced += run_round(cli, items, records)
        finally:
            tracer.uninstall()
        tracer.counts["cli.csv_bytes"] += sum(len(rec[2].encode()) for rec in records[first:])
        if time.perf_counter() - start >= seconds:
            break
    return tracer, done, traced / untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pskrates" / "__init__.py").is_file():
        print(f"error: no pskrates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        cli, rounds, seconds = setup(args.workload, args.seed)
        setups.append(seconds)

    records = []
    metrics = {}
    if args.trace:
        tracer, traced_rounds, overhead = run_traced(cli, rounds, args.seconds, records)
        for line in tracer.per_call_table():
            print(line)
        for name, (value, unit) in tracer.metrics(traced_rounds).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        elapsed = run_rounds(cli, rounds, args.seconds, records)

    attempted = len(records)
    completed = [rec[4] for rec in records if rec[1] == 0]
    failed = attempted - len(completed)
    problems = workloads.Checker().check(records)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": len(completed) / elapsed, "unit": "1/s"},
            "item_ms.p50": {"value": statistics.median(completed) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not problems and bool(completed), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
