// Long-running DSE job server (DESIGN.md §13).
//
// JobServer watches a spool directory for job specs (dse/job.hpp format)
// and runs them — several concurrently, each with per-job progress
// streaming, cooperative cancellation and PR-5 checkpoint/restore. The
// spool is plain files, so any tool that can write JSON can submit work
// and any tool that can read it can watch:
//
//   <spool>/jobs/<id>.json         submit: drop a spec here
//   <spool>/running/<id>.json      claimed specs (rename = atomic claim)
//   <spool>/results/<id>/...       artifacts (sweep.json / pareto.json)
//   <spool>/status/<id>.json       progress stream (atomically rewritten)
//   <spool>/done/<id>.json         finished specs (state in status file)
//   <spool>/cancel/<id>            cancel: create this marker file
//   <spool>/checkpoints/<id>/      crash-resume state
//
// Crash recovery: on startup every spec still in running/ is re-adopted
// and resumed from its checkpoints — a SIGKILL'd server restarted on the
// same spool finishes its in-flight jobs with byte-identical artifacts.
// Graceful shutdown (SIGINT/SIGTERM -> RequestShutdown) checkpoints
// in-flight jobs at the next cell boundary and leaves them in running/.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace gnoc {

/// Server knobs (see gnoc_server --help).
struct ServerOptions {
  std::string spool;  ///< spool root; created if missing
  int max_jobs = 2;   ///< concurrently running jobs
  int poll_ms = 200;  ///< spool scan interval
  /// Drain mode: process the current backlog (running/ + jobs/), then
  /// exit instead of waiting for more work. What CI and tests use.
  bool once = false;
};

/// The spool-directory job server.
class JobServer {
 public:
  explicit JobServer(ServerOptions options);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Runs the accept/execute loop until shutdown (or, with `once`, until
  /// the backlog drains). Returns the number of failed jobs (0 = all
  /// succeeded or none ran).
  int Run();

  /// Requests a graceful stop: no new claims, in-flight jobs checkpoint
  /// and park in running/. Async-signal-safe (sets an atomic flag).
  void RequestShutdown() { shutdown_.store(true); }

  /// Creates the cancel marker for `id`.
  void Cancel(const std::string& id);

  const ServerOptions& options() const { return options_; }

 private:
  struct Worker;

  std::string Dir(const std::string& sub) const;
  /// True when jobs/ holds an unclaimed spec (no claim is made).
  bool HasWaiting() const;
  /// Claims the next job: recovery backlog first, then jobs/ by rename.
  /// Returns the claimed id or "" when none are waiting.
  std::string ClaimNext();
  void StartJob(const std::string& id);
  /// Joins finished workers; returns the number still running.
  std::size_t ReapWorkers(bool wait_all);
  void WriteStatus(const std::string& id, const std::string& state, int done,
                   int total, const std::string& detail,
                   const std::string& artifact, const std::string& error);

  ServerOptions options_;
  std::atomic<bool> shutdown_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::string> recovery_;  ///< running/ ids found at startup
  std::atomic<int> failed_jobs_{0};
};

}  // namespace gnoc
