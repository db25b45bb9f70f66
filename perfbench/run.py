"""Run one PEACE benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload roam-join --seed 1 --seconds 30 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same workload
with span tracing, reports the per-layer metrics and writes the spans
to ``perfbench/out/``.  Problems found by the correctness checks go to
standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("roam-join", "metro-revocation")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", default="SS512",
                        help="pairing preset (TEST runs in seconds; for "
                             "the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, HERE]
    from peacebench import layers, workloads
    from peacebench.trace import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    world = workloads.run(args.workload, args.seed, args.seconds,
                          preset=args.preset, tracer=tracer)
    if tracer is not None:
        tracer.uninstall()
        metrics = layers.per_layer(tracer, world)
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(
            out, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {name: (value, workloads.END_TO_END_UNITS[name])
                   for name, value in workloads.end_to_end(world).items()}
    for failure in world.failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    for problem in world.problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    figures = world.figures
    p90 = workloads.percentile(figures.handshake_ms, 0.9)
    print(f"# {args.workload} seed={args.seed}: "
          f"{len(figures.handshake_ms)} accepted handshakes, "
          f"{figures.decided} M.2 decided, {len(figures.wave_ms)} waves, "
          f"{len(figures.goodputs)} rounds, "
          f"{figures.payload_bytes} payload bytes; handshake p90 "
          + (f"{p90:.1f} ms" if p90 is not None else "n/a (too few samples)")
          + "; setup repeats " + ", ".join(f"{s:.2f}" for s in
                                           figures.setup_s) + " s")
    print(json.dumps({
        "correct": not world.problems,
        "attempted": world.attempted,
        "failed": len(world.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
