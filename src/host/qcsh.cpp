#include "host/qcsh.h"

#include <algorithm>
#include <sstream>

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

/// Parse "4x4x2x2x1x1" into a Shape; false on malformed input.
bool parse_shape(const std::string& text, torus::Shape* shape) {
  std::istringstream in(text);
  for (int d = 0; d < torus::kMaxDims; ++d) {
    int e = 0;
    if (!(in >> e) || e < 1) return false;
    shape->extent[d] = e;
    if (d + 1 < torus::kMaxDims) {
      char x = 0;
      if (!(in >> x) || (x != 'x' && x != 'X')) return false;
    }
  }
  return true;
}

}  // namespace

Qcsh::Qcsh(Qdaemon* daemon) : daemon_(daemon) {}

void Qcsh::register_application(const std::string& name, Application app) {
  applications_[name] = std::move(app);
}

void Qcsh::attach_scheduler(JobScheduler* sched, std::string user) {
  scheduler_ = sched;
  user_ = std::move(user);
}

void Qcsh::register_job(const std::string& name,
                        std::function<StepStatus(JobContext&)> body) {
  job_bodies_[name] = std::move(body);
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
  if (cmd == "submit") return cmd_submit(args);
  if (cmd == "jobs") return cmd_jobs();
  if (cmd == "job") return cmd_job(args);
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
  torus::Shape box;
  if (!parse_shape(args[1], &box)) {
    exit_code_ = 1;
    return {"qcsh: bad shape '" + args[1] + "'"};
  }
  const int dims = std::atoi(args[2].c_str());
  if (dims < 1 || dims > torus::kMaxDims) {
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

std::vector<std::string> Qcsh::cmd_submit(
    const std::vector<std::string>& args) {
  if (scheduler_ == nullptr) {
    exit_code_ = 1;
    return {"qcsh: no scheduler attached"};
  }
  if (args.size() != 4) {
    exit_code_ = 1;
    return {"usage: submit <job-name> <body> <e0>x<e1>x<e2>x<e3>x<e4>x<e5> "
            "<dims>"};
  }
  const auto bit = job_bodies_.find(args[1]);
  if (bit == job_bodies_.end()) {
    exit_code_ = 1;
    return {"qcsh: no job body '" + args[1] + "'"};
  }
  JobSpec spec;
  spec.name = args[0];
  spec.user = user_;
  spec.image = args[1];
  if (!parse_shape(args[2], &spec.box)) {
    exit_code_ = 1;
    return {"qcsh: bad shape '" + args[2] + "'"};
  }
  spec.logical_dims = std::atoi(args[3].c_str());
  spec.body = bit->second;
  const SubmitOutcome out =
      submit_with_retry(*scheduler_, spec, retry_policy_, retry_rng_);
  if (!out.accepted) {
    exit_code_ = 1;
    return {"qcsh: submit rejected (" + std::string(to_string(out.error)) +
            "): " + out.detail};
  }
  return {"job " + std::to_string(out.id) + " ('" + spec.name +
          "') accepted"};
}

std::vector<std::string> Qcsh::cmd_jobs() {
  if (scheduler_ == nullptr) {
    exit_code_ = 1;
    return {"qcsh: no scheduler attached"};
  }
  std::vector<std::string> out;
  for (const JobStatusInfo& j : scheduler_->jobs()) {
    out.push_back(std::to_string(j.id) + " " + j.name + " (" + j.user +
                  "): " + to_string(j.state) + ", " +
                  std::to_string(j.steps) + " steps, " +
                  std::to_string(j.migrations) + " migrations");
  }
  if (out.empty()) out.push_back("(no jobs)");
  return out;
}

std::vector<std::string> Qcsh::cmd_job(const std::vector<std::string>& args) {
  if (scheduler_ == nullptr) {
    exit_code_ = 1;
    return {"qcsh: no scheduler attached"};
  }
  if (args.size() != 1) {
    exit_code_ = 1;
    return {"usage: job <id>"};
  }
  const JobStatusInfo j = scheduler_->status(std::atoi(args[0].c_str()));
  if (j.id < 0) {
    exit_code_ = 1;
    return {"qcsh: no job '" + args[0] + "'"};
  }
  std::vector<std::string> out;
  out.push_back("job " + std::to_string(j.id) + " '" + j.name + "' user '" +
                j.user + "' state " + to_string(j.state));
  out.push_back("  steps " + std::to_string(j.steps) + ", requeues " +
                std::to_string(j.requeues) + ", migrations " +
                std::to_string(j.migrations) + ", cycles " +
                std::to_string(j.cycles_run));
  if (j.failure != fault::JobFailure::kNone) {
    out.push_back("  failure: " + std::string(fault::to_string(j.failure)) +
                  " (" + j.detail + ")");
  }
  std::size_t cursor = 0;
  for (const JobEvent& e : scheduler_->events_since(j.id, &cursor)) {
    out.push_back("  [" + std::to_string(e.at) + "] " +
                  to_string(e.state) + ": " + e.note);
  }
  for (const std::string& line : j.output) out.push_back("  > " + line);
  return out;
}

}  // namespace qcdoc::host
