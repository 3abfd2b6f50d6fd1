"""pdzip benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload serve-counts --seed 1 --seconds 15 --trace 0

It imports pdzip from ./src, generates the workload's inputs from the
seed, measures for about --seconds, checks every result, prints a
readable report and, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end metrics BENCHMARK.json lists; with
--trace 1 the run is repeated with every pdzip layer wrapped in spans and
the metrics are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pdzip", "__init__.py")):
        print(f"no pdzip sources under {src}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        lib = workloads.Lib(src)
        rec = workloads.Recorder()
        if not args.trace:
            run(lib, rec, args.seed, args.seconds, tmp)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values, notes = workloads.end_to_end(rec, rss)
            wanted = spec["end_to_end"]
            records = [rec]
        else:
            # an untraced pass sets the amount of work; the traced pass
            # repeats exactly that work, so their difference is the overhead
            plan = run(lib, rec, args.seed, max(1.0, args.seconds / 5), tmp)
            tracer = layers.Tracer()
            traced = workloads.Recorder(tracer)
            run(workloads.Lib(src, tracer), traced, args.seed, args.seconds, tmp, plan)
            overhead = sum(traced.seconds.values()) - sum(rec.seconds.values())
            values = layers.layer_metrics(tracer, [m["name"] for m in spec["per_layer"]],
                                          len(traced.floor_violations), overhead)
            notes = ["self time by op (top layers):", *layers.layer_report(tracer),
                     f"tracing overhead: {overhead:.3f} s over "
                     f"{sum(rec.seconds.values()):.3f} s of untraced op time",
                     f"succinct.smooth.floor_violations = {len(traced.floor_violations)} count "
                     f"(known defect, not counted as a failure)"]
            wanted = spec["per_layer"]
            records = [rec, traced]
    except KeyError as exc:
        print(f"cannot compute the metrics: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for r in records:
        for problem in r.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
