#!/usr/bin/env python3
"""Rewrites pins.json from one round of every workload at the default seed.

    python3 perfbench/pin.py

The pinned outputs are the simulated machine's results, which a change to
the simulator alone must leave identical.  Re-pin only for a change that is
meant to alter them, and say so in its description.
"""

import json
import sys

import harness


def main():
    harness.build()
    pins = {}
    for workload in harness.WORKLOADS:
        rounds, _, error = harness.run_binary(workload, harness.DEFAULT_SEED,
                                              0, 0, None)
        if error is not None:
            sys.exit(f"{workload}: {error}")
        failures = [op for op in rounds[0]["ops"] if not op["ok"]]
        if failures:
            sys.exit(f"{workload}: {failures[0]['name']}: {failures[0]['failure']}")
        pins[workload] = [
            {"name": op["name"], **{k: op[k] for k in harness.pinned_fields(op)}}
            for op in rounds[0]["ops"]]
    harness.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {harness.PINS}")


if __name__ == "__main__":
    main()
