"""swgfem benchmark: one workload per process, one JSON result line.

    python3 swgbench/run.py --workload study|sweep|large --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  With --trace 0 the last stdout line holds the end-to-end metrics
(setup_s, run_s, op_p50_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a traced run and the tracing overhead.  Results and
traces are also written under .swgbench/.  See swgbench/README.md.
"""

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".swgbench"

#: Cold set-ups, each in a fresh process; setup_s reports their median.
SETUP_REPEATS = 5


class Tally:
    """Timings and outcomes of the operations of some whole rounds."""

    def __init__(self):
        self.rounds = 0
        self.spans = []       # (label, start, end) of each operation run
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.failures = {}


def run_rounds(workload, first, tally, ref, *, seconds=None, rounds=None):
    """Run whole rounds until `seconds` have passed or `rounds` are done.

    Only the calls into the program are timed; each output is checked
    right after its call, outside the timer, and then dropped.  The
    reference kernel is sampled between operations.
    """
    start = time.perf_counter()
    r = first
    while True:
        for op in workload.round_ops(r):
            ref.maybe_sample()
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            tally.spans.append((op.label, t, time.perf_counter()))
            tally.attempted += 1
            if isinstance(out, Exception):
                tally.failed += 1
                tally.failures.setdefault(op.label, f"{type(out).__name__}: {out}")
                continue
            try:
                tally.errors += op.check(out)
            except Exception as exc:  # a check that cannot read the output rejects it
                tally.errors.append(f"{op.label}: unreadable output ({exc!r})")
            out = None
        tally.rounds += 1
        r += 1
        done = tally.rounds >= rounds if rounds is not None else \
            time.perf_counter() - start >= seconds
        if done:
            return r


def op_medians(tally, ref=None):
    """Each operation's median time over the rounds of a run, in wall
    seconds or, given the reference, in seconds at reference speed.

    Every round runs the same operations, so the medians summed give the
    time of one round, and a burst of load on the machine that hits one
    round is left out.
    """
    times = {}
    for label, start, end in tally.spans:
        scale = ref.scale(start, end) if ref is not None else 1.0
        times.setdefault(label, []).append((end - start) * scale)
    return [statistics.median(v) for v in times.values()]


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_probe_s(args, ref):
    """Median set-up time over fresh processes: imports, problem
    construction and one warm-up solve, all paid cold each time.  Returns
    (wall seconds, seconds at reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref.burst()
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        end = time.perf_counter()
        ref.burst()
        walls.append(float(done.stdout.split()[-1]))
        scaled.append(walls[-1] * ref.scale(start, end))
    return statistics.median(walls), statistics.median(scaled)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "sweep", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "swgfem" / "__init__.py").is_file():
        print(f"swgbench: no swgfem sources under {SRC}", file=sys.stderr)
        return 2
    if not args.setup_probe:
        for tree in (SRC, Path(__file__).resolve().parent):
            compileall.compile_dir(str(tree), quiet=1)
    os.environ["SWG_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # numpy, scipy and the whole swgfem package with its CLI
    import_s = time.perf_counter() - t0
    from reference import Reference
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        t = time.perf_counter()
        wl.setup()
        if args.setup_probe:
            print(import_s + time.perf_counter() - t)
            return 0
        ref = Reference()
        plain = Tally()
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            cpu = time.process_time()
            next_round = run_rounds(wl, 0, plain, ref, seconds=args.seconds / 2)
            cpu = (time.process_time() - cpu) / plain.rounds
            traced, tracer = Tally(), Tracer()
            with tracer.installed():
                run_rounds(wl, next_round, traced, ref, rounds=plain.rounds)
            ref.burst()
            gauge = ref if wl.gauged else None
            metrics = tracer.layer_metrics(traced.rounds)
            metrics["process.cpu_s"] = metric(cpu, "s")
            metrics["trace.overhead_s"] = metric(
                sum(op_medians(traced, gauge)) - sum(op_medians(plain, gauge)), "s")
            with open(OUT_DIR / f"trace-{tag}.json", "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": traced.rounds,
                           "columns": ["layer", "start", "end", "parent"],
                           "spans": tracer.records()}, fh)
            tallies = (plain, traced)
        else:
            setup_wall, setup_s = setup_probe_s(args, ref)
            run_rounds(wl, 0, plain, ref, seconds=args.seconds)
            ref.burst()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            medians = op_medians(plain, ref if wl.gauged else None)
            walls = op_medians(plain)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "run_s": metric(sum(medians), "s"),
                "op_p50_s": metric(statistics.median(medians), "s"),
                "peak_rss_mb": metric(peak_mb, "MB"),
            }
            wall = {"setup_s": setup_wall, "run_s": sum(walls),
                    "op_p50_s": statistics.median(walls)}
            print(f"swgbench: wall seconds {wall}, reference scale "
                  f"{sum(medians) / sum(walls):.4f} over {len(ref.seconds)} samples",
                  file=sys.stderr)
            tallies = (plain,)

        errors = [e for tally in tallies for e in tally.errors]
        errors += wl.finish()
        errors += wl.self_test()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for tally in tallies:
        for label, why in tally.failures.items():
            print(f"swgbench: {label} failed: {why}", file=sys.stderr)
    for e in errors[:20]:
        print(f"swgbench: check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": metrics,
    }
    print(f"swgbench: {args.workload} seed={args.seed} rounds={plain.rounds} "
          f"ops={plain.attempted}", file=sys.stderr)
    line = json.dumps(result)
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
