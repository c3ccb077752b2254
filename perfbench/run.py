"""matdeg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads: census, decompose, queries, planes-par (see README.md).

``--trace 0`` measures the end-to-end metrics for about S seconds of work;
``--trace 1`` makes one untraced and one traced serial pass and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Set-up (import plus input
generation) is sampled several times, each in a fresh process, and the
median is reported; the measuring process takes the inputs of the first
sample.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"

# Set-up samples per run, each in a fresh process.
SETUP_SAMPLES = {"census": 9, "decompose": 3, "queries": 3, "planes-par": 9}
WORKLOAD_NAMES = tuple(SETUP_SAMPLES)

UNITS = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_ZERO = (
    "queries.rank_p50_ms",
    "queries.compare_p50_ms",
    "queries.iso_p50_ms",
    "queries.canonical_p50_ms",
    "queries.min_above_p50_ms",
    "pool.speedup",
    "pool.overhead_s",
)


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_emitted")) or name == "pool.speedup":
        return "ratio"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample in a fresh process
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--emit-inputs", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import matdeg from ./src and the workloads module; returns
    (workloads module, import seconds)."""
    if not (SRC / "matdeg" / "__init__.py").is_file():
        raise SystemExit("error: %s/matdeg not found; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import matdeg

    t1 = time.perf_counter()
    if Path(matdeg.__file__).resolve().parent != (SRC / "matdeg").resolve():
        raise SystemExit("error: imported matdeg from %s, not %s" % (matdeg.__file__, SRC))
    import workloads

    return workloads, t1 - t0


def setup_sample_child(args):
    """One set-up sample: import, then build and prepare the inputs."""
    wl, imp = import_library()
    w = wl.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    raw = w.make_inputs(args.seed)
    w.prepare(raw)
    out = {"import_s": imp, "inputs_s": time.perf_counter() - t0}
    if args.emit_inputs:
        out["inputs"] = raw
    print(json.dumps(out))


def run_child(args, emit_inputs):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-sample"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    if emit_inputs:
        cmd.append("--emit-inputs")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: set-up sample failed (exit %d)" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_sample:
        setup_sample_child(args)
        return 0
    wl, _ = import_library()
    w = wl.WORKLOADS[args.workload]
    samples = [run_child(args, emit_inputs=(i == 0)) for i in range(SETUP_SAMPLES[args.workload])]
    # the inputs come from a set-up sample, so this process's peak RSS holds
    # the program's state and the timed work, not the input generation
    inputs = w.prepare(samples[0].pop("inputs"))
    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in samples)

    if args.trace:
        from spans import Tracer, summarize

        tracer = Tracer()
        metrics, attempted, failed, _ = w.trace(inputs, tracer)
        tracer.write(TRACES / ("%s-seed%d.tsv.gz" % (args.workload, args.seed)))
        layer = summarize(tracer.spans)
        layer.update(metrics)
        for name in PER_LAYER_ZERO:
            layer.setdefault(name, 0.0)
        layer["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
        layer["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in samples)
        layer["failed_frac"] = failed / attempted
        out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layer.items())}
    else:
        metrics, attempted, failed, peak = w.measure(inputs, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak
        out = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
