"""Build, run and score the qcdoc host-time benchmark.

run.py is the command line; this module holds the parts the self-tests
exercise: the pin check, the span self-time arithmetic and the metric
computations.  Everything is measured from outside the
library: the benchmark binary (cpp/main.cpp) prints one JSON object per
round and, on a traced run, a Chrome trace-event file whose spans carry
counter deltas.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "qcdoc_perfbench"
PINS = BENCH_DIR / "pins.json"

# The workloads and every metric's name, unit and better direction are
# declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Operations are pinned at this seed; other seeds check invariants only.
DEFAULT_SEED = 1
# A killed or hung benchmark binary must still leave time to report within
# 180 s.
CHILD_TIMEOUT_S = 150

# The end-to-end metric and workload each per-layer metric should move,
# which BENCHMARK.json has no field for.  A metric's layer is its name's
# prefix, a src/ module; trace_overhead_frac is the benchmark's own cost.
MOVES = {
    "machine.construct_s": "setup_s on mesh_cg",
    "host.boot_s": "setup_s on mesh_cg",
    "host.alloc_s": "setup_s on mesh_cg",
    "host.boot_events": "setup_s on mesh_cg",
    "host.boot_packets": "setup_s on mesh_cg (model value)",
    "host.sweep_s": "setup_s on faulted_cg",
    "fault.arm_s": "setup_s on faulted_cg",
    "lattice.setup_s": "setup_s on every workload",
    "sim.events": "solve_s on mesh_cg and faulted_cg",
    "sim.events_per_s": "solve_s on mesh_cg and faulted_cg",
    "sim.events_per_word": "solve_s on mesh_cg and faulted_cg",
    "sim.cross_shard_events": "solve_s on mesh_cg",
    "sim.windows_parallel": "solve_s on mesh_cg",
    "sim.windows_serial": "solve_s on mesh_cg",
    "sim.windows_host": "solve_s on mesh_cg",
    "sim.barrier_wait_s": "solve_s on mesh_cg",
    "sim.shard_imbalance": "solve_s on mesh_cg",
    "sim.pool_blocks": "peak_rss_mb",
    "sim.end_cycle": "nothing (model value)",
    "scu.words": "nothing (model value: payload words)",
    "scu.acks": "solve_s on mesh_cg and faulted_cg",
    "scu.resends": "solve_s on faulted_cg",
    "scu.detected_errors": "solve_s on faulted_cg",
    "scu.undetected_errors": "solve_s on faulted_cg",
    "hssl.frames": "solve_s on mesh_cg and faulted_cg",
    "hssl.bits": "solve_s on mesh_cg and faulted_cg",
    "hssl.bits_flipped": "solve_s on faulted_cg",
    "hssl.retrains": "solve_s on faulted_cg",
    "lattice.solve_s": "solve_s on krylov_node",
    "lattice.dirac_s": "solve_s on krylov_node",
    "lattice.dirac_calls": "solve_s on krylov_node",
    "lattice.solve_self_s": "solve_s on krylov_node",
    "lattice.iterations": "solve_s on krylov_node",
    "lattice.restarts": "solve_s on faulted_cg",
    "lattice.useful_iter_frac": "solve_s on faulted_cg",
    "lattice.flops": "nothing (model value)",
    "fault.audit_s": "solve_s on faulted_cg",
    "fault.audits": "solve_s on faulted_cg",
    "fault.audit_failures": "solve_s on faulted_cg",
    "snapshot.capture_s": "solve_s on faulted_cg",
    "snapshot.encode_s": "solve_s on faulted_cg",
    "snapshot.decode_s": "solve_s on faulted_cg",
    "snapshot.bytes": "peak_rss_mb on faulted_cg",
    "machine.compute_cycles": "nothing (model value)",
    "machine.comm_cycles": "nothing (model value)",
    "machine.global_cycles": "nothing (model value)",
    "memsys.edram_bytes": "nothing (model value, computed from field sizes)",
    "memsys.ddr_bytes": "nothing (model value, computed from field sizes)",
    "trace_overhead_frac": "nothing (tracing cost)",
}

# Why a per-layer metric reads zero on a workload: the workload never makes
# that call, or its machine never does that work.  Keys are metric names or
# whole layers.
_SERIAL = ("serial engine: no shards, windows or barriers",
           ("sim.cross_shard_events", "sim.windows_parallel",
            "sim.windows_serial", "sim.windows_host", "sim.barrier_wait_s",
            "sim.shard_imbalance"))
_ERROR_FREE = ("BER 0: no bit errors, resends or retrains",
               ("scu.resends", "scu.detected_errors", "scu.undetected_errors",
                "hssl.bits_flipped", "hssl.retrains"))
_ZERO_REASONS = {
    "mesh_cg": [_ERROR_FREE,
                ("every window of the solve runs in parallel",
                 ("sim.windows_serial", "sim.windows_host")),
                ("no health sweep", ("host.sweep_s",)),
                ("no faults armed, audited or rolled back",
                 ("fault", "lattice.restarts")),
                ("no checkpoints", ("snapshot",)),
                ("every field fits in EDRAM", ("memsys.ddr_bytes",))],
    "krylov_node": [("one node has no links: its solves run no engine events",
                     ("sim", "scu", "hssl", "machine.comm_cycles",
                      "machine.global_cycles")),
                    ("no health sweep", ("host.sweep_s",)),
                    ("no faults armed, audited or rolled back",
                     ("fault", "lattice.restarts")),
                    ("no checkpoints", ("snapshot",))],
    "faulted_cg": [_SERIAL,
                   ("the marginal wire retrains in the set-up sweep",
                    ("hssl.retrains",)),
                   ("every field fits in EDRAM", ("memsys.ddr_bytes",))],
}


def zero_reason(workload, metric):
    for reason, keys in _ZERO_REASONS.get(workload, []):
        if metric in keys or metric.split(".")[0] in keys:
            return reason
    return None


# --- building ---------------------------------------------------------------

def build():
    """Configure (once) and build the binaries; raises CalledProcessError."""
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


# --- running ----------------------------------------------------------------

def run_binary(workload, seed, seconds, trace, trace_out):
    """Runs one workload in its own process.  Returns (rounds, end, error):
    the parsed round objects, the closing object (None if the process did
    not finish) and a description of how it failed, or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    error = None
    try:
        # On timeout run() kills the binary and waits for it to end.
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode != 0:
            error = f"qcdoc_perfbench exited with status {proc.returncode}"
    except subprocess.TimeoutExpired as e:
        stdout, stderr = e.stdout or b"", e.stderr or b""
        error = f"qcdoc_perfbench timed out after {CHILD_TIMEOUT_S} s"
    if error is not None:
        # The simulator logs warnings on stderr; keep the binary's own last word.
        last = [line for line in stderr.decode(errors="replace").splitlines()
                if "WARN" not in line][-1:]
        error += f": {last[0]}" if last else ""
    rounds, end = [], None
    for line in stdout.decode(errors="replace").splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:  # a line cut short by a kill
            error = error or f"unreadable output: {line[:80]}"
            continue
        if obj["type"] == "round":
            rounds.append(obj)
        elif obj["type"] == "end":
            end = obj
    if error is None and end is None:
        error = "qcdoc_perfbench output ended early"
    return rounds, end, error


# --- correctness ------------------------------------------------------------

PINNED_SOLVE = ("residual_bits", "field_fnv", "end_cycle", "iterations",
                "restarts", "link_checksums")
PINNED_CHECKPOINT = ("iterations", "decoded")


def pinned_fields(op):
    return PINNED_CHECKPOINT if op["name"] == "checkpoint" else PINNED_SOLVE


def op_failures(op, pin):
    """Why one operation failed: its own invariant checks, then (when a pin
    exists for this seed) every pinned output that differs."""
    reasons = []
    if not op["ok"]:
        reasons.append(op["failure"])
    if pin is not None:
        if pin.get("name") != op["name"]:
            reasons.append(f"expected operation {pin.get('name')}")
        for key in pinned_fields(op):
            if key in pin and pin[key] != op[key]:
                reasons.append(f"{key} {op[key]} != pinned {pin[key]}")
    return reasons


def load_pins(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINS.read_text()).get(workload)


def account(rounds, pins, error):
    """(attempted, failed, notes).  With `error` set the process died or
    hung, so every operation it ran or was running counts as failed."""
    attempted, failed, notes = 0, 0, []
    for rnd in rounds:
        ops = rnd["ops"]
        for i, op in enumerate(ops):
            pin = None
            if pins is not None:
                pin = pins[i] if i < len(pins) else {"name": "nothing"}
            reasons = op_failures(op, pin)
            attempted += 1
            if reasons:
                failed += 1
                notes.append(f"round {rnd['round']} {op['name']}: "
                             + "; ".join(reasons))
        if pins is not None and len(ops) < len(pins):
            attempted += len(pins) - len(ops)
            failed += len(pins) - len(ops)
            notes.append(f"round {rnd['round']}: {len(pins) - len(ops)} "
                         "pinned operations missing")
    if error is not None:
        # The round in flight when the binary died never reported.
        attempted += len(pins) if pins else (len(rounds[0]["ops"]) if rounds else 1)
        failed = attempted
        notes.append(error)
    return attempted, failed, notes


# --- metrics ----------------------------------------------------------------

def end_to_end(rounds, end):
    """Set-up and solve times are read on the reference clock
    (cpp/ref_clock.h), which cancels the host's drifting speed."""
    return {
        "setup_s": median([r["setup_ref_s"] for r in rounds]),
        "solve_s": median([r["solve_ref_s"] for r in rounds if not r["traced"]]),
        "peak_rss_mb": end["peak_rss_mb"],
    }


def self_times(spans):
    """Self time of each span (keyed by id): its duration minus the time its
    child spans cover, counting the tracer's reads of a child's counters,
    which lie just outside the child.  Spans nest on one thread, so
    children are disjoint and lie inside their parent."""
    out = {s["id"]: s["dur"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["dur"] + s["probe"]
    return out


def load_spans(trace):
    """Flattens Chrome trace events into span dicts (times in seconds)."""
    spans = []
    for ev in trace["traceEvents"]:
        args = dict(ev["args"])
        spans.append({
            "name": ev["name"], "id": args.pop("id"), "parent": args.pop("parent"),
            "run": args.pop("run"), "ts": ev["ts"] * 1e-6, "dur": ev["dur"] * 1e-6,
            "probe": args.pop("probe_us") * 1e-6, "args": args,
        })
    return spans


# Solvers built on the CG loop of lattice/cg.cpp.  Each recomputed residual
# -- the initial one and one per rollback -- costs three Dirac applications
# and each iteration run two.
CG_SOLVES = ("lattice.solve.cg", "lattice.solve.cg_audited")


def useful_iter_frac(solves, dirac):
    """Iterations kept over iterations run, over the CG solves whose Dirac
    applications are traced.  A rollback discards the iterations run since
    the last clean checkpoint; the solver reports only the kept ones, and
    the traced Dirac calls give the ones run."""
    calls = {}
    for d in dirac:
        calls[d["parent"]] = calls.get(d["parent"], 0) + 1
    kept = run = 0
    for s in solves:
        if s["name"] in CG_SOLVES and calls.get(s["id"]):
            restarts = s["args"].get("lattice.restarts", 0)
            kept += s["args"].get("lattice.iterations", 0)
            run += (calls[s["id"]] - 3 * (1 + restarts)) / 2
    return kept / run if run > 0 else 0.0


def round_layers(spans):
    """Per-layer metrics of one traced round from its spans."""
    m = {}
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["dur"] for s in by_name.get(name, []))

    def arg_sum(name, key):
        return sum(s["args"].get(key, 0) for s in by_name.get(name, []))

    m["machine.construct_s"] = total("machine.construct")
    m["host.boot_s"] = total("host.boot")
    m["host.alloc_s"] = total("host.alloc")
    m["host.sweep_s"] = total("host.sweep")
    m["fault.arm_s"] = total("fault.arm")
    m["lattice.setup_s"] = total("lattice.setup")
    m["host.boot_events"] = arg_sum("host.boot", "sim.events")
    m["host.boot_packets"] = arg_sum("host.boot", "host.boot_packets")

    # Every counter the tracer read at the solve phase's boundaries; the
    # shard imbalance is a ratio, so the worst one counts.
    solve = by_name.get("bench.solve", [])
    m["sim.shard_imbalance"] = 0.0
    for s in solve:
        for key, v in s["args"].items():
            if key == "sim.shard_imbalance":
                m[key] = max(m[key], v)
            else:
                m[key] = m.get(key, 0) + v
    solve_s = sum(s["dur"] for s in solve)
    events = m.get("sim.events", 0)
    words = m.get("scu.words", 0)
    m["sim.events_per_s"] = events / solve_s if solve_s > 0 else 0.0
    m["sim.events_per_word"] = events / words if words > 0 else 0.0

    solves = [s for s in spans if s["name"].startswith("lattice.solve")]
    dirac = by_name.get("lattice.dirac", [])
    m["lattice.solve_s"] = sum(s["dur"] for s in solves)
    m["lattice.solve_self_s"] = sum(selfs[s["id"]] for s in solves)
    m["lattice.dirac_s"] = sum(s["dur"] for s in dirac)
    m["lattice.dirac_calls"] = len(dirac)
    m["lattice.iterations"] = sum(s["args"].get("lattice.iterations", 0)
                                  for s in solves)
    m["lattice.restarts"] = sum(s["args"].get("lattice.restarts", 0)
                                for s in solves)
    m["lattice.useful_iter_frac"] = useful_iter_frac(solves, dirac)

    m["fault.audit_s"] = total("fault.audit")
    m["fault.audits"] = len(by_name.get("fault.audit", []))
    m["fault.audit_failures"] = arg_sum("fault.audit", "fault.audit_failures")
    m["snapshot.capture_s"] = total("snapshot.capture")
    m["snapshot.encode_s"] = total("snapshot.encode")
    m["snapshot.decode_s"] = total("snapshot.decode")
    m["snapshot.bytes"] = arg_sum("snapshot.encode", "snapshot.bytes")
    return m


def per_layer(rounds, end, trace):
    """Medians over the traced rounds, plus the values read from the round
    records and the tracing overhead."""
    spans = load_spans(trace)
    traced = [r for r in rounds if r["traced"]]
    per_round = [round_layers([s for s in spans if s["run"] == r["round"]])
                 for r in traced]
    m = {key: median([layers[key] for layers in per_round])
         for key in per_round[0]}
    m["sim.pool_blocks"] = end["pool_blocks"]
    m["sim.end_cycle"] = median([max(op["end_cycle"] for op in r["ops"])
                                 for r in traced])
    plain = median([r["solve_ref_s"] for r in rounds if not r["traced"]])
    with_trace = median([r["solve_ref_s"] for r in traced])
    m["trace_overhead_frac"] = (with_trace - plain) / plain
    return m


def result_line(correct, attempted, failed, values):
    metrics = {name: {"value": float(v), "unit": UNITS[name]}
               for name, v in values.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
