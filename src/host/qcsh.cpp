#include "host/qcsh.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>

namespace qcdoc::host {

Cycle RetryPolicy::delay(int attempt, Rng& rng) const {
  double d = static_cast<double>(base_delay_cycles);
  for (int i = 0; i < attempt; ++i) d *= multiplier;
  d = std::min(d, static_cast<double>(max_delay_cycles));
  const double jitter = 0.5 + 0.5 * rng.next_double();
  return static_cast<Cycle>(d * jitter) + 1;
}

SubmitOutcome submit_with_retry(JobScheduler& sched, const JobSpec& spec,
                                const RetryPolicy& policy, Rng& rng) {
  const int attempts = std::max(1, policy.max_attempts);
  SubmitOutcome out;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    out = sched.submit(spec);
    if (out.accepted || out.error == SubmitError::kBadRequest) return out;
    if (attempt + 1 >= attempts) return out;
    // Backoff in simulated time, honouring the scheduler's own hint; the
    // scheduler keeps pumping (draining the queue) while the client waits.
    const Cycle wait = std::max(out.retry_after, policy.delay(attempt, rng));
    sched.run_for(wait);
  }
  return out;
}
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    tokens.push_back(tok);
  }
  return tokens;
}

/// Parse a whole decimal token; false on any other character.
bool parse_int(std::string_view text, int* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc{} && ptr == end;
}

/// Parse exactly "4x4x2x2x1x1" into a Shape; false on malformed input.
bool parse_shape(std::string_view text, torus::Shape* shape) {
  for (int d = 0; d < torus::kMaxDims; ++d) {
    const bool last = d + 1 == torus::kMaxDims;
    const std::size_t cut = last ? text.size() : text.find_first_of("xX");
    int e = 0;
    if (cut == std::string_view::npos || !parse_int(text.substr(0, cut), &e) ||
        e < 1) {
      return false;
    }
    shape->extent[d] = e;
    if (!last) text.remove_prefix(cut + 1);
  }
  return true;
}

}  // namespace

Qcsh::Qcsh(Qdaemon* daemon) : daemon_(daemon) {}

void Qcsh::register_application(const std::string& name, Application app) {
  applications_[name] = std::move(app);
}

std::vector<std::string> Qcsh::execute(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return {};
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "boot") return cmd_boot();
  if (cmd == "status") return cmd_status();
  if (cmd == "alloc") return cmd_alloc(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "release") return cmd_release(args);
  if (cmd == "partitions") return cmd_partitions();
  exit_code_ = 1;
  return {"qcsh: unknown command '" + cmd + "'"};
}

std::vector<std::string> Qcsh::run_script(const std::string& script) {
  std::vector<std::string> stream;
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    auto out = execute(line);
    stream.insert(stream.end(), out.begin(), out.end());
  }
  return stream;
}

std::vector<std::string> Qcsh::cmd_boot() {
  const auto& report = daemon_->boot();
  std::ostringstream out;
  out << "booted " << report.nodes_ready << " nodes ("
      << report.jtag_packets << " jtag + " << report.udp_packets
      << " udp packets); partition interrupts "
      << (report.partition_interrupt_ok ? "ok" : "FAILED");
  return {out.str()};
}

std::vector<std::string> Qcsh::cmd_status() {
  if (!daemon_->booted()) {
    exit_code_ = 1;
    return {"qcsh: machine not booted"};
  }
  std::map<std::string, int> counts;
  const int n = daemon_->machine_nodes();
  for (int i = 0; i < n; ++i) {
    counts[to_string(daemon_->node_state(NodeId{static_cast<u32>(i)}))]++;
  }
  std::vector<std::string> out;
  for (const auto& [state, count] : counts) {
    out.push_back(state + ": " + std::to_string(count));
  }
  out.push_back("free: " + std::to_string(daemon_->free_nodes()));
  const auto failed = daemon_->failed_nodes();
  if (!failed.empty()) {
    std::string line = "failed nodes:";
    for (const auto nd : failed) {
      line += ' ';
      line += std::to_string(nd.value);
    }
    out.push_back(line);
  }
  return out;
}

std::vector<std::string> Qcsh::cmd_alloc(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    exit_code_ = 1;
    return {"usage: alloc <name> <e0>x<e1>x<e2>x<e3>x<e4>x<e5> <dims>"};
  }
  if (!daemon_->booted()) {
    exit_code_ = 1;
    return {"qcsh: machine not booted"};
  }
  if (partitions_.contains(args[0])) {
    exit_code_ = 1;
    return {"qcsh: partition '" + args[0] + "' already exists"};
  }
  torus::Shape box;
  if (!parse_shape(args[1], &box)) {
    exit_code_ = 1;
    return {"qcsh: bad shape '" + args[1] + "'"};
  }
  int dims = 0;
  if (!parse_int(args[2], &dims) || dims < 1 || dims > torus::kMaxDims) {
    exit_code_ = 1;
    return {"qcsh: dimensionality must be 1..6"};
  }
  const auto handle = daemon_->allocate_partition(args[0], box, dims);
  if (!handle) {
    exit_code_ = 1;
    return {"qcsh: no free " + args[1] + " box"};
  }
  partitions_[args[0]] = *handle;
  return {"partition '" + args[0] + "': " +
          handle->partition->logical_shape().to_string() + " (" +
          std::to_string(handle->partition->num_nodes()) + " nodes)"};
}

std::vector<std::string> Qcsh::cmd_run(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    exit_code_ = 1;
    return {"usage: run <partition> <application> [args...]"};
  }
  auto pit = partitions_.find(args[0]);
  if (pit == partitions_.end()) {
    exit_code_ = 1;
    return {"qcsh: no partition '" + args[0] + "'"};
  }
  auto ait = applications_.find(args[1]);
  if (ait == applications_.end()) {
    exit_code_ = 1;
    return {"qcsh: no application '" + args[1] + "'"};
  }
  const std::vector<std::string> app_args(args.begin() + 2, args.end());
  const auto result = daemon_->run_job(
      pit->second,
      [&](comms::Communicator& comm, std::vector<std::string>& out) {
        ait->second(comm, app_args, out);
      });
  if (!result.ok) {
    exit_code_ = 1;
    return {"qcsh: job failed"};
  }
  return result.output;
}

std::vector<std::string> Qcsh::cmd_release(
    const std::vector<std::string>& args) {
  if (args.size() != 1 || partitions_.find(args[0]) == partitions_.end()) {
    exit_code_ = 1;
    return {"qcsh: no partition to release"};
  }
  daemon_->release_partition(partitions_[args[0]]);
  partitions_.erase(args[0]);
  return {"released '" + args[0] + "'"};
}

std::vector<std::string> Qcsh::cmd_partitions() {
  std::vector<std::string> out;
  for (const auto& [name, handle] : partitions_) {
    out.push_back(name + ": " +
                  handle.partition->logical_shape().to_string());
  }
  if (out.empty()) out.push_back("(none)");
  return out;
}

}  // namespace qcdoc::host
