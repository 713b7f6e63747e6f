"""Benchmark of the rtm package.

Run from the root of an rtm checkout:

    python3 bench/run.py --workload suggest --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed in BENCHMARK.json and described in
bench/workloads.py.  A run generates the workload's inputs from --seed in
a child process (bench/generate.py), then measures them in this process,
a single-threaded closed loop with one client:

  --trace 0  set up several times, then run operations until --seconds
             have passed (at least one per draw), checking each; prints
             the end-to-end metrics.  Their times, except a p99 tail, are
             scaled to a fixed reference host speed by bench/hostspeed.py,
             which samples the host's speed throughout the run; the times
             as measured are printed on an earlier line
  --trace 1  one untraced pass (one set-up, operations for --seconds, at
             least one), then the same work again with the tracer
             installed; prints the per-layer metrics and
             trace.overhead_ratio, the traced pass's wall time over the
             untraced one's, and writes the spans to
             .bench_out/<workload>-seed<seed>-spans.jsonl

Earlier lines of standard output give the environment, the operation
count and any failed checks; the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
error_rate is failed / attempted.  Inputs are written under .bench_work/
in the working directory and removed at exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy loads: the benchmark measures single-threaded BLAS
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB",
                    "neg_elbo_per_token": "nats/token"}


def use_checkout_src():
    """Import rtm from this checkout's src/, or exit with an error."""
    if not (SRC / "rtm" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'rtm'} not found; run from the root of an rtm checkout")
    sys.path.insert(0, str(SRC))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-exponential", "eval-sigmoid", "suggest"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the operation loop runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: 15-25 doc corpora with K=4, for the smoke test")
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "load_avg_1m": os.getloadavg()[0], "client_processes": 1,
            "client_threads": 1}


def _result(failures, attempted, metrics, units):
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def measure(runner, config, inputs, work, args):
    """Untraced run: the end-to-end metrics, times scaled by host speed."""
    from hostspeed import REFERENCE_SPEED, HostProbe
    from workloads import tail_percentile

    with HostProbe() as probe:
        outcome = runner(config, inputs, work, args.seconds, least=config.draws,
                         clock=probe)
    if not outcome.bounds:
        sys.exit("error: no operation completed: " + "; ".join(outcome.failures))
    metrics = outcome.end_to_end()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload}: {outcome.attempted} operations, {len(outcome.failures)} "
          f"failed; op p50 {metrics['op_p50_ms']:.4g} ms, "
          f"p{tail_percentile(outcome.attempted):.4g} {metrics['op_tail_ms']:.4g} ms "
          f"over {outcome.attempted} samples; setup median of {len(outcome.setups)}")
    print(f"as measured: {json.dumps(outcome.end_to_end(scaled=False))}; host speed "
          f"{probe.mean_speed():.1f} probe units/s over {len(probe.samples)} samples, "
          f"reference {REFERENCE_SPEED:g}")
    return _result(outcome.failures, outcome.attempted, metrics, END_TO_END_UNITS)


def trace(runner, config, inputs, work, args, env):
    """Traced run: an untraced pass, then the same work traced."""
    from tracer import Tracer, per_layer

    start = time.perf_counter()
    plain = runner(config, inputs, work, args.seconds, setups=1)
    plain_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        traced = runner(config, inputs, work, args.seconds, ops=plain.attempted,
                        setups=1, span=tracer.span)
        traced_s = time.perf_counter() - start
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl",
                       {"workload": args.workload, "seed": args.seed, "size": args.size,
                        "operations": traced.attempted, "env": env})
    layers = per_layer(tracer, traced.quality_medians(), traced_s, plain_s)
    print(f"{args.workload}: traced {traced.attempted} operations in {traced_s:.3f} s, "
          f"untraced in {plain_s:.3f} s")
    return _result(plain.failures + traced.failures, plain.attempted + traced.attempted,
                   {name: value for name, (value, _) in layers.items()},
                   {name: unit for name, (_, unit) in layers.items()})


def main(argv=None):
    args = parse_args(argv)
    use_checkout_src()
    from workloads import CONFIGS, RUNNERS

    config = CONFIGS[args.size][args.workload]
    work = Path.cwd() / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "generate.py"), "--workload",
                        args.workload, "--seed", str(args.seed), "--size", args.size,
                        "--out", str(inputs)], check=True, timeout=600)
        env = environment()
        print("env " + json.dumps(env))
        runner = RUNNERS[args.workload]
        if args.trace:
            result = trace(runner, config, inputs, work, args, env)
        else:
            result = measure(runner, config, inputs, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
