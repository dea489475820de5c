#!/usr/bin/env python3
"""Host-time benchmark of the qcdoc simulator.

    python3 perfbench/run.py --workload mesh_cg --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binary from source into .bench_build,
runs the workload in its own process in closed loop for --seconds, checks
every operation's outputs (pinned values at the default seed, invariants at
any seed) and prints, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from a span trace written to .bench_build/trace-<workload>-<seed>.json).
setup_s and solve_s are read on the benchmark's reference clock, which
rescales host seconds to a fixed host speed (cpp/ref_clock.h); the wall
seconds of every round are printed beside them.
Run from the root of the repository.
"""

import argparse
import json
import subprocess
import sys

import harness


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    try:
        harness.build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_out = harness.BUILD_DIR / f"trace-{args.workload}-{args.seed}.json"
    rounds, end, error = harness.run_binary(args.workload, args.seed,
                                            args.seconds, args.trace, trace_out)
    pins = harness.load_pins(args.workload, args.seed)
    attempted, failed, notes = harness.account(rounds, pins, error)

    for rnd in rounds:
        print(f"# round {rnd['round']}{' traced' if rnd['traced'] else ''}: "
              f"setup {rnd['setup_ref_s']:.4f} s, solve {rnd['solve_ref_s']:.4f} s "
              f"(wall {rnd['setup_s']:.4f} s, {rnd['solve_s']:.4f} s), "
              f"{rnd['events']} events, digest {rnd['digest']}")
    print(f"# {args.workload} seed {args.seed}: "
          f"{'pinned outputs' if pins else 'invariants only'}, "
          f"{failed}/{attempted} operations failed, "
          f"fail_frac {failed / attempted:.4g}")
    for note in notes:
        print(f"# FAILED {note}")

    if error is not None or not rounds:
        print(harness.result_line(False, attempted, failed, {}))
        return 1
    if args.trace:
        values = harness.per_layer(rounds, end, json.loads(trace_out.read_text()))
        if sorted(values) != sorted(harness.PER_LAYER):
            print("perfbench: traced metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(harness.PER_LAYER))}",
                  file=sys.stderr)
            return 1
        for name in harness.PER_LAYER:
            why = ""
            if values[name] == 0:
                why = ("; 0 here: "
                       + (harness.zero_reason(args.workload, name) or "UNEXPECTED"))
            print(f"# {name} = {values[name]:.6g} {harness.UNITS[name]} "
                  f"(should move {harness.MOVES[name]}{why})")
        print(f"# trace: {trace_out}")
    else:
        values = harness.end_to_end(rounds, end)
    print(harness.result_line(failed == 0, attempted, failed, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
