// The qcsh: QCDOC's command-line interface (paper Section 3.1).
//
// "The command line interface to QCDOC is a modified UNIX tcsh, which we
// call the qcsh.  The qcsh runs with the UID of the application programmer,
// gathers commands to send to the qdaemon and manages the returning data
// stream."
//
// The model is a small command interpreter over the qdaemon: scripts (or
// interactive lines) allocate partitions, run registered applications,
// query node status and release resources, with every command's output
// returned as the data stream the real qcsh would print.  Batch jobs go to
// the JobScheduler directly; submit_with_retry below is that client's
// backoff, and the shell has no job commands.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host/qdaemon.h"
#include "host/scheduler.h"

namespace qcdoc::host {

/// Client-side retry with exponential backoff and deterministic jitter: the
/// qcsh half of the scheduler's backpressure contract.  delay(attempt)
/// grows as base * multiplier^attempt, capped at max_delay, scaled by a
/// jitter factor in [0.5, 1.0) drawn from the caller's Rng -- so a storm of
/// clients de-synchronizes without wall-clock entropy, and a fixed seed
/// replays the exact same retry schedule.
struct RetryPolicy {
  Cycle base_delay_cycles = 1024;
  Cycle max_delay_cycles = 1u << 20;
  double multiplier = 2.0;
  int max_attempts = 8;

  Cycle delay(int attempt, Rng& rng) const;
};

/// Submit with retry: on a retryable rejection, waits the maximum of the
/// scheduler's retry_after hint and the policy's backoff (simulated time;
/// the scheduler keeps pumping, draining its queue, while the client
/// waits), then resubmits.  Returns the final outcome -- accepted, or the
/// last rejection after `max_attempts`.
SubmitOutcome submit_with_retry(JobScheduler& sched, const JobSpec& spec,
                                const RetryPolicy& policy, Rng& rng);

class Qcsh {
 public:
  /// An application the shell can `run`: receives the communicator of the
  /// partition it was launched on plus the command's arguments.
  using Application =
      std::function<void(comms::Communicator&, const std::vector<std::string>&,
                         std::vector<std::string>& out)>;

  explicit Qcsh(Qdaemon* daemon);

  /// Make an application launchable by name.
  void register_application(const std::string& name, Application app);

  /// Execute one command line; returns the output lines.  Commands:
  ///   boot
  ///   status
  ///   alloc <name> <e0>x<e1>x<e2>x<e3>x<e4>x<e5> <dims>
  ///   run <partition> <application> [args...]
  ///   release <partition>
  ///   partitions
  /// Unknown commands and malformed or refused ones report an error line
  /// (exit_code() becomes nonzero).
  std::vector<std::string> execute(const std::string& line);

  /// Run a whole script (one command per line, '#' comments allowed);
  /// returns the concatenated data stream.
  std::vector<std::string> run_script(const std::string& script);

  int exit_code() const { return exit_code_; }

 private:
  std::vector<std::string> cmd_boot();
  std::vector<std::string> cmd_status();
  std::vector<std::string> cmd_alloc(const std::vector<std::string>& args);
  std::vector<std::string> cmd_run(const std::vector<std::string>& args);
  std::vector<std::string> cmd_release(const std::vector<std::string>& args);
  std::vector<std::string> cmd_partitions();

  Qdaemon* daemon_;
  std::map<std::string, Application> applications_;
  std::map<std::string, PartitionHandle> partitions_;
  int exit_code_ = 0;
};

}  // namespace qcdoc::host
