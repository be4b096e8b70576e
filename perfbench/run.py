"""Run one benchmark workload against the matterslit sources in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Items of the workload, made from the seed, go through ``matterslit.cli.main``
in this process in a closed loop until S seconds of item time have passed,
in whole rounds.  Each item's outputs are checked after its clock stops.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  See README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: threaded OpenBLAS in the
# panel reductions burns a second core for no gain in wall time and makes
# the timings depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_START = time.perf_counter()

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# setup_s is the median over this process and four fresh ones, whose set-ups
# are spread over the timed loop so that they meet the machine in different states
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # set up, print the set-up time and exit: one sample of setup_s
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def _load_program():
    """Put this checkout's src/ first on the path; refuse any other matterslit."""
    package = ROOT / "src" / "matterslit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no matterslit sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import matterslit

    if Path(matterslit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported matterslit from {matterslit.__file__}, not {package}")


def _items(workload, seed: int):
    rng = random.Random(f"{workload.name}:{seed}")
    k = 0
    while True:
        yield workload.make_item(rng, k)
        k += 1


def _output_bytes(argvs) -> int:
    return sum(
        os.path.getsize(argv[argv.index("--output") + 1]) for argv in argvs if "--output" in argv
    )


def _run_item(workload, item, tracer, check=True):
    """Time one item, then check it.  Returns (seconds, 'ok' | 'failed' | 'wrong')."""
    argvs = workload.prepare(item, OUT)
    start = time.perf_counter()
    try:
        result = workload.run(item, argvs)
    except Exception:
        traceback.print_exc()
        result = None
    elapsed = time.perf_counter() - start
    if result is None or any(code != 0 for code in result["codes"]):
        print(f"perfbench: {workload.name} item failed to run", file=sys.stderr)
        return elapsed, "failed"
    if not check:
        return elapsed, "ok"
    tracer.record("cli.output_mb", _output_bytes(argvs) / 1e6)
    try:
        fails = workload.check(item, OUT, result, tracer.record)
    except Exception:
        traceback.print_exc()
        fails = ["the check raised"]
    for message in fails:
        print(f"perfbench: {workload.name}: {message}", file=sys.stderr)
    return elapsed, "wrong" if fails else "ok"


def _setup_probe(args) -> float:
    """Set-up time of a fresh process: imports, input generation, one warm-up item."""
    probe = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=PROBE_TIMEOUT_S, text=True,
    )
    return float(probe.stdout.split()[-1])


def _declared(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    args = _parse_args()
    _load_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    items = _items(workload, args.seed)
    _run_item(workload, next(items), tracer, check=False)  # warm-up
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    try:
        if args.trace:
            tracer.install()
        setup = [setup_s]
        probes_due = [] if args.trace else [
            k * args.seconds / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)
        ]

        times, outcomes = [], []
        while sum(times) < args.seconds:
            while probes_due and sum(times) >= probes_due[0]:
                setup.append(_setup_probe(args))
                probes_due.pop(0)
            for _ in range(workload.round_size):
                tracer.item = len(times)
                elapsed, outcome = _run_item(workload, next(items), tracer)
                times.append(elapsed)
                outcomes.append(outcome)
        items_per_s = len(times) / sum(times)
        setup += [_setup_probe(args) for _ in probes_due]
        if args.trace:
            print(f"perfbench: traced items_per_s {items_per_s!r}", file=sys.stderr)
            # one item of every other workload, so that each per-layer metric is
            # measured; they come last and unwarmed, because a warm-up would
            # leave its allocations behind for the timed loop
            for other in workloads.WORKLOADS.values():
                if other is not workload:
                    tracer.item = other.name
                    outcomes.append(_run_item(other, next(_items(other, args.seed)), tracer)[1])
            metrics = tracing.layer_metrics(tracer)
            section = "per_layer"
        else:
            metrics = {
                "items_per_s": items_per_s,
                "item_p50_ms": statistics.median(times) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "setup_s": statistics.median(setup),
            }
            section = "end_to_end"
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    units = _declared(section)
    if set(units) != set(metrics):
        sys.exit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    print(json.dumps({
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
