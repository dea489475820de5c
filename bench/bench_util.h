// Shared helpers for the experiment benches: every bench prints a
// paper-vs-measured table for its experiment id from DESIGN.md.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "perf/report.h"

namespace qcdoc::bench {

// Which sanitizers this binary was built with (set by the top-level
// CMakeLists from QCDOC_SANITIZE / QCDOC_TSAN / QCDOC_UBSAN).
#ifndef QCDOC_SANITIZER_TAG
#define QCDOC_SANITIZER_TAG "none"
#endif

inline const char* sanitizer_tag() { return QCDOC_SANITIZER_TAG; }

inline void print_header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", claim);
  // Machine-readable build provenance: numbers measured under a sanitizer
  // are an order of magnitude off and must never be quoted as real perf.
  std::printf("{\"bench_env\": {\"sanitizer\": \"%s\"}}\n", sanitizer_tag());
  std::printf("==============================================================\n");
}

inline void print_rows(const std::vector<perf::Row>& rows) {
  std::printf("%s", perf::format_table(rows).c_str());
}

/// Print how many threads a machine's engine runs on and how hard it
/// worked.  Every bench and example calls this so the QCDOC_SIM_THREADS knob
/// is visible in output; simulated results are bit-identical regardless,
/// only wall clock changes.
inline void print_engine(machine::Machine& m) {
  std::printf("%s\n", perf::format_engine_report(m.engine().report()).c_str());
}

// --- Machine-readable engine-bench output ----------------------------------

/// One measured engine run for BENCH_*.json.
struct EngineBenchRun {
  int threads = 1;
  u64 events = 0;
  double wall_seconds = 0;
  u64 digest = 0;
};

/// Write the engine-scaling measurements as a small JSON document so CI and
/// EXPERIMENTS.md tooling can consume them without scraping stdout.  The
/// `bench_env` tag travels with the numbers: figures measured under a
/// sanitizer are an order of magnitude off and must never be quoted as real
/// performance.
inline void write_engine_bench_json(const char* path,
                                    const std::vector<EngineBenchRun>& runs,
                                    double speedup, bool deterministic) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"engine\",\n");
  std::fprintf(f, "  \"bench_env\": {\"sanitizer\": \"%s\"},\n",
               sanitizer_tag());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const EngineBenchRun& r = runs[i];
    const double rate =
        r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
    std::fprintf(f,
                 "    {\"threads\": %d, "
                 "\"events\": %llu, \"wall_seconds\": %.3f, "
                 "\"events_per_sec\": %.0f, \"digest\": \"%016llx\"}%s\n",
                 r.threads,
                 static_cast<unsigned long long>(r.events), r.wall_seconds,
                 rate, static_cast<unsigned long long>(r.digest),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"deterministic\": %s\n", deterministic ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace qcdoc::bench
