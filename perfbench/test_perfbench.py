#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/test_perfbench.py

The Binaries tests build the benchmark binaries (as run.py does), run the
self-test, which checks that a solve through the tracing Dirac wrapper is
bit-identical to the same solve through the bare operator, and run one
traced faulted_cg run through run.py.
"""

import copy
import json
import re
import subprocess
import sys
import unittest

import harness

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(id_, parent, name, ts, dur, probe=0.0, **args):
    return {"id": id_, "parent": parent, "name": name, "ts": ts, "dur": dur,
            "probe": probe, "run": 1, "args": args}


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = harness.SPEC
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, METRIC_NAME)
            self.assertRegex(harness.UNITS[name], UNIT)

    def test_every_per_layer_metric_says_what_it_moves(self):
        self.assertEqual(sorted(harness.MOVES), sorted(harness.PER_LAYER))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(0, -1, "bench.solve", 0.0, 10.0),
            span(1, 0, "lattice.solve.cg", 1.0, 6.0, **{"lattice.iterations": 1}),
            span(2, 1, "lattice.dirac", 2.0, 1.5, probe=0.25),
            span(3, 1, "lattice.dirac", 4.0, 2.0),
            span(4, 0, "fault.audit", 8.0, 0.5),
        ]
        selfs = harness.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 6.0 - 0.5)
        # The tracer's reads around a child count in no layer.
        self.assertAlmostEqual(selfs[1], 6.0 - 3.5 - 0.25)
        self.assertAlmostEqual(selfs[2], 1.5)
        layers = harness.round_layers(spans)
        self.assertAlmostEqual(layers["lattice.solve_s"], 6.0)
        self.assertAlmostEqual(layers["lattice.solve_self_s"], 2.25)
        self.assertAlmostEqual(layers["lattice.dirac_s"], 3.5)
        self.assertEqual(layers["lattice.dirac_calls"], 2)
        self.assertAlmostEqual(layers["fault.audit_s"], 0.5)

    def test_useful_iter_frac_counts_rolled_back_iterations(self):
        # An audited CG that ran 9 iterations, of which a rollback discarded
        # 5: two recomputed residuals (3 Dirac calls each) plus 2 per
        # iteration run.
        calls = 3 * 2 + 2 * 9
        spans = [span(0, -1, "lattice.solve.cg_audited", 0.0, 1.0,
                      **{"lattice.iterations": 4, "lattice.restarts": 1})]
        spans += [span(1 + i, 0, "lattice.dirac", 0.01 * i, 0.005)
                  for i in range(calls)]
        layers = harness.round_layers(spans)
        self.assertAlmostEqual(layers["lattice.useful_iter_frac"], 4 / 9)
        # Solvers outside the CG loop are left out of the ratio.
        spans[0]["name"] = "lattice.solve.mixed"
        self.assertEqual(harness.round_layers(spans)["lattice.useful_iter_frac"], 0)

    def test_per_layer_values_from_round_records(self):
        events = [{"name": s["name"], "ph": "X", "ts": s["ts"] * 1e6,
                   "dur": s["dur"] * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"], "run": 1,
                            "probe_us": 0, **s["args"]}}
                  for s in [span(0, -1, "bench.solve", 0.0, 1.1,
                                 **{"sim.events": 50, "scu.words": 10}),
                            span(1, 0, "lattice.dirac", 0.2, 0.5)]]
        rounds = [{"round": 0, "traced": False, "solve_ref_s": 1.0,
                   "ops": [{"end_cycle": 7}]},
                  {"round": 1, "traced": True, "solve_ref_s": 1.1,
                   "ops": [{"end_cycle": 7}]}]
        values = harness.per_layer(rounds, {"pool_blocks": 3},
                                   {"traceEvents": events})
        self.assertEqual(values["sim.pool_blocks"], 3)
        self.assertAlmostEqual(values["trace_overhead_frac"], 0.1)
        self.assertAlmostEqual(values["sim.events_per_word"], 5.0)
        self.assertEqual(values["sim.end_cycle"], 7)


class Pins(unittest.TestCase):
    def pinned_round(self, workload):
        """A round whose every operation reports exactly its pinned outputs."""
        ops = []
        for pin in harness.load_pins(workload, harness.DEFAULT_SEED):
            op = {"ok": True, "failure": "", "residual_bits": "0",
                  "field_fnv": "0", "end_cycle": 0, "iterations": 0,
                  "restarts": 0, "link_checksums": False, "decoded": False}
            op.update(pin)
            ops.append(op)
        return {"round": 0, "ops": ops}

    def test_every_workload_is_pinned(self):
        pins = json.loads(harness.PINS.read_text())
        self.assertEqual(sorted(pins), sorted(harness.WORKLOADS))

    def test_matching_outputs_pass(self):
        for workload in harness.WORKLOADS:
            pins = harness.load_pins(workload, harness.DEFAULT_SEED)
            attempted, failed, notes = harness.account(
                [self.pinned_round(workload)], pins, None)
            self.assertEqual((attempted, failed), (len(pins), 0), notes)

    def test_a_wrong_pin_fails_its_operation(self):
        for workload in harness.WORKLOADS:
            pins = copy.deepcopy(harness.load_pins(workload, harness.DEFAULT_SEED))
            rnd = self.pinned_round(workload)
            key = harness.pinned_fields(pins[0])[0]
            pins[0][key] = "wrong" if isinstance(pins[0][key], str) else -1
            attempted, failed, notes = harness.account([rnd], pins, None)
            self.assertEqual(failed, 1, notes)
            self.assertGreater(failed / attempted, 0)

    def test_other_seeds_check_invariants_only(self):
        self.assertIsNone(harness.load_pins("mesh_cg", 987654))
        rnd = self.pinned_round("mesh_cg")
        rnd["ops"][0]["ok"] = False
        rnd["ops"][0]["failure"] = "link checksums differ"
        self.assertEqual(harness.account([rnd], None, None)[:2], (1, 1))

    def test_a_dead_binary_fails_everything(self):
        rnd = self.pinned_round("faulted_cg")
        pins = harness.load_pins("faulted_cg", harness.DEFAULT_SEED)
        attempted, failed, _ = harness.account([rnd], pins, "timed out")
        self.assertEqual(attempted, 2 * len(pins))
        self.assertEqual(failed, attempted)


class ResultLine(unittest.TestCase):
    def test_times_are_read_on_the_reference_clock(self):
        rounds = [{"traced": False, "setup_s": 0.1, "solve_s": 9.0,
                   "setup_ref_s": 0.05, "solve_ref_s": 4.5 + i}
                  for i in range(3)]
        values = harness.end_to_end(rounds, {"peak_rss_mb": 158.0})
        self.assertEqual(values, {"setup_s": 0.05, "solve_s": 5.5,
                                  "peak_rss_mb": 158.0})

    def test_parses_back(self):
        values = {"setup_s": 0.8127, "solve_s": 5.25, "peak_rss_mb": 158.0}
        parsed = json.loads(harness.result_line(True, 3, 0, values))
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(parsed["metrics"]["solve_s"], {"value": 5.25, "unit": "s"})


class Binaries(unittest.TestCase):
    def test_traced_solve_matches_and_trace_parses_back(self):
        harness.build()
        path = harness.BUILD_DIR / "selftest-trace.json"
        proc = subprocess.run([str(harness.BUILD_DIR / "perfbench_selftest"),
                               str(path)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        spans = harness.load_spans(json.loads(path.read_text()))
        iterations = int(re.search(r"(\d+) iterations", proc.stdout).group(1))
        layers = harness.round_layers(spans)
        self.assertEqual(layers["lattice.iterations"], iterations)
        # The Dirac-call arithmetic behind useful_iter_frac holds for CG.
        self.assertEqual(layers["lattice.dirac_calls"], 3 + 2 * iterations)
        self.assertEqual(layers["lattice.useful_iter_frac"], 1.0)
        self.assertGreater(layers["lattice.dirac_s"], 0)
        self.assertLess(layers["lattice.dirac_s"], layers["lattice.solve_s"])
        # Halo exchanges on the four-node machine run engine events, and the
        # span counters see them.
        self.assertGreater(sum(s["args"].get("sim.events", 0) for s in spans
                               if s["name"] == "lattice.dirac"), 0)

    def test_a_traced_run_reports_every_per_layer_metric(self):
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
             "faulted_cg", "--seed", str(harness.DEFAULT_SEED), "--seconds",
             "0", "--trace", "1"],
            capture_output=True, text=True, cwd=harness.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(sorted(result["metrics"]), sorted(harness.PER_LAYER))
        self.assertNotIn("UNEXPECTED", proc.stdout)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        # The injected corruption lands after the first clean audit, so the
        # rollback discards iterations.
        self.assertGreaterEqual(values["lattice.restarts"], 1)
        self.assertLess(values["lattice.useful_iter_frac"], 1.0)
        trace = harness.BUILD_DIR / f"trace-faulted_cg-{harness.DEFAULT_SEED}.json"
        self.assertTrue(harness.load_spans(json.loads(trace.read_text())))


if __name__ == "__main__":
    unittest.main()
