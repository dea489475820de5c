// qcdoc_perfbench: runs one benchmark workload in closed loop and prints
// one JSON object per round on stdout, then a closing "end" object.
//
//   qcdoc_perfbench --workload mesh_cg --seed 1 --seconds 20 --trace 0
//
// A round is one set-up plus one measured solve phase; rounds repeat until
// the round end nearest to --seconds.  Each phase is timed on the wall clock
// and on a ReferenceClock that runs for the whole process.  With --trace 1
// the odd rounds record spans (written to --trace-out as Chrome trace-event
// JSON) and the even rounds run untraced, so one process measures the
// tracing overhead too.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "sim/event_fn.h"
#include "workloads.h"

namespace {

using perfbench::OpRecord;
using perfbench::RoundResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(perfbench::u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string op_json(const OpRecord& r) {
  return "{\"name\":" + json_string(r.name) +
         ",\"ok\":" + (r.ok ? "true" : "false") +
         ",\"failure\":" + json_string(r.failure) +
         ",\"residual_bits\":" + hex(r.residual_bits) +
         ",\"field_fnv\":" + hex(r.field_fnv) +
         ",\"end_cycle\":" + std::to_string(r.end_cycle) +
         ",\"iterations\":" + std::to_string(r.iterations) +
         ",\"restarts\":" + std::to_string(r.restarts) +
         ",\"link_checksums\":" + (r.link_checksums ? "true" : "false") +
         ",\"decoded\":" + (r.decoded ? "true" : "false") +
         ",\"true_residual\":" + num(r.true_residual) + "}";
}

std::string round_json(int round, bool traced, const RoundResult& r) {
  std::string ops;
  for (const OpRecord& op : r.ops) {
    if (!ops.empty()) ops += ',';
    ops += op_json(op);
  }
  return "{\"type\":\"round\",\"round\":" + std::to_string(round) +
         ",\"traced\":" + (traced ? "true" : "false") +
         ",\"setup_s\":" + num(r.setup_s) + ",\"solve_s\":" + num(r.solve_s) +
         ",\"setup_ref_s\":" + num(r.setup_ref_s) +
         ",\"solve_ref_s\":" + num(r.solve_ref_s) +
         ",\"events\":" + std::to_string(r.events) +
         ",\"digest\":" + hex(r.digest) + ",\"ops\":[" + ops + "]}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "qcdoc_perfbench: %s\nusage: qcdoc_perfbench --workload "
               "<mesh_cg|krylov_node|faulted_cg> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  unsigned long long seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == workload;
  }
  if (!known) usage_error("unknown workload '" + workload + "'");
  if (seconds < 0 || (trace != 0 && trace != 1)) {
    usage_error("--seconds and --trace are required");
  }

  perfbench::Tracer tracer;
  const perfbench::ReferenceClock clock;
  const auto start = perfbench::Clock::now();
  try {
    for (int round = 0;; ++round) {
      // A traced run needs one untraced and one traced round.
      const bool traced = trace == 1 && round % 2 == 1;
      tracer.set_enabled(traced);
      tracer.set_run(round);
      const auto round_start = perfbench::Clock::now();
      const RoundResult r = perfbench::run_round(workload, seed, tracer, clock);
      const double round_s = perfbench::seconds_since(round_start);
      std::printf("%s\n", round_json(round, traced, r).c_str());
      std::fflush(stdout);
      // Stop on the round end nearest to --seconds, so a run lasts about
      // --seconds however long its rounds are.
      const bool enough_rounds = trace == 0 || round >= 1;
      if (enough_rounds &&
          perfbench::seconds_since(start) + round_s / 2 >= seconds) {
        break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qcdoc_perfbench: %s\n", e.what());
    return 1;
  }
  if (trace == 1 && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << tracer.chrome_json();
    if (!out) {
      std::fprintf(stderr, "qcdoc_perfbench: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  // Pool blocks are never returned, so the process total is the high-water
  // mark of pooled event actions.
  std::printf(
      "{\"type\":\"end\",\"peak_rss_mb\":%s,\"pool_blocks\":%llu}\n",
      num(peak_rss_mb()).c_str(),
      static_cast<unsigned long long>(
          qcdoc::sim::detail::action_alloc_stats().pool_blocks));
  return 0;
}
