#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lattice/linalg.h"
#include "machine/bsp.h"
#include "machine/machine.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Sample Probe::sample() const {
  Sample s;
  auto put = [&s](const char* name, double v) {
    s.values.emplace_back(name, v);
  };
  if (machine != nullptr) {
    const qcdoc::sim::EngineReport rep = machine->engine().report();
    put("sim.events", static_cast<double>(rep.events));
    put("sim.cross_shard_events", static_cast<double>(rep.cross_shard_events));
    put("sim.windows_parallel", static_cast<double>(rep.windows_parallel));
    put("sim.windows_serial", static_cast<double>(rep.windows_serial));
    put("sim.windows_host", static_cast<double>(rep.windows_host));
    put("sim.barrier_wait_s", rep.barrier_stall_seconds);
    s.shard_events = rep.shard_events;

    const qcdoc::net::MeshNet& mesh = machine->mesh();
    auto stat = [&mesh](const char* name) {
      return static_cast<double>(mesh.total_stat(name));
    };
    put("scu.words", stat("scu.data_received"));
    put("scu.acks", stat("scu.acks"));
    put("scu.resends", stat("scu.nack_resends") + stat("scu.timeout_resends") +
                           stat("scu.sup_resends"));
    put("scu.detected_errors", stat("scu.detected_errors"));
    put("scu.undetected_errors", stat("scu.undetected_errors"));
    put("hssl.frames", stat("hssl.frames"));
    put("hssl.bits", stat("hssl.bits"));
    put("hssl.bits_flipped", stat("hssl.bits_flipped"));
    put("hssl.retrains", stat("hssl.retrains"));
  }
  if (bsp != nullptr) {
    put("machine.compute_cycles", bsp->compute_cycles());
    put("machine.comm_cycles", bsp->comm_cycles());
    put("machine.global_cycles", bsp->global_cycles());
  }
  if (ops != nullptr) {
    const qcdoc::lattice::TrafficByPrecision& t = ops->traffic();
    double edram = 0;
    double ddr = 0;
    for (const auto& p : t) {
      edram += p.edram_bytes;
      ddr += p.ddr_bytes;
    }
    put("lattice.flops", qcdoc::lattice::total_flops(t));
    put("memsys.edram_bytes", edram);
    put("memsys.ddr_bytes", ddr);
  }
  return s;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& name, const Probe* probe) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back().id;
  span.run = run_;
  // Counters are read outside the span's interval; the time spent reading
  // them is kept apart so that it counts in no layer's self time.
  const double probe_start = now_us();
  open_.push_back(
      {span.id, probe, probe != nullptr ? probe->sample() : Sample{}});
  span.start_us = now_us();
  span.probe_us = span.start_us - probe_start;
  spans_.push_back(std::move(span));
  return open_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  // ScopedSpan closes spans innermost first, so `id` is the last open one.
  const Open open = std::move(open_.back());
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = now_us();
  const Sample after = open.probe != nullptr ? open.probe->sample() : Sample{};
  span.probe_us += now_us() - span.end_us;
  // A counter absent at begin (its object was built inside the span)
  // started from zero.
  for (const auto& [name, v] : after.values) {
    double before = 0;
    for (const auto& [bname, bv] : open.begin.values) {
      if (bname == name) before = bv;
    }
    span.args.emplace_back(name, v - before);
  }
  if (!after.shard_events.empty() &&
      after.shard_events.size() == open.begin.shard_events.size()) {
    double total = 0;
    double peak = 0;
    for (std::size_t i = 0; i < after.shard_events.size(); ++i) {
      const double d = static_cast<double>(after.shard_events[i] -
                                           open.begin.shard_events[i]);
      total += d;
      peak = std::max(peak, d);
    }
    if (total > 0) {
      const double mean =
          total / static_cast<double>(after.shard_events.size());
      span.args.emplace_back("sim.shard_imbalance", peak / mean);
    }
  }
}

void Tracer::arg(int id, const std::string& key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out += ",";
    first = false;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out += "\n{\"name\":\"" + s.name + "\",\"cat\":\"" + layer +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    append_number(out, s.start_us);
    out += ",\"dur\":";
    append_number(out, s.end_us - s.start_us);
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"run\":" + std::to_string(s.run) + ",\"probe_us\":";
    append_number(out, s.probe_us);
    for (const auto& [key, v] : s.args) {
      out += ",\"" + key + "\":";
      append_number(out, v);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
