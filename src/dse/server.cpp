#include "dse/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/serialize.hpp"
#include "dse/job.hpp"

namespace fs = std::filesystem;

namespace gnoc {

/// One in-flight job: the executing thread plus its completion flag (the
/// manager loop joins finished workers without blocking on running ones).
struct JobServer::Worker {
  std::string id;
  std::thread thread;
  std::atomic<bool> finished{false};
};

JobServer::JobServer(ServerOptions options) : options_(std::move(options)) {
  for (const char* sub :
       {"jobs", "running", "results", "status", "done", "cancel",
        "checkpoints"}) {
    fs::create_directories(Dir(sub));
  }
  // Specs still in running/ are orphans of a killed server on this spool:
  // re-adopt them (sorted for determinism) ahead of new submissions.
  for (const auto& entry : fs::directory_iterator(Dir("running"))) {
    if (entry.path().extension() == ".json") {
      recovery_.push_back(entry.path().stem().string());
    }
  }
  std::sort(recovery_.begin(), recovery_.end());
}

JobServer::~JobServer() { ReapWorkers(/*wait_all=*/true); }

std::string JobServer::Dir(const std::string& sub) const {
  return options_.spool + "/" + sub;
}

void JobServer::Cancel(const std::string& id) {
  AtomicWriteFile(Dir("cancel") + "/" + id, "");
}

void JobServer::WriteStatus(const std::string& id, const std::string& state,
                            int done, int total, const std::string& detail,
                            const std::string& artifact,
                            const std::string& error) {
  std::ostringstream oss;
  JsonWriter w(oss);
  w.BeginObject();
  w.Key("id").Value(id);
  w.Key("state").Value(state);
  w.Key("done").Value(done);
  w.Key("total").Value(total);
  w.Key("detail").Value(detail);
  if (!artifact.empty()) w.Key("artifact").Value(artifact);
  if (!error.empty()) w.Key("error").Value(error);
  w.EndObject();
  AtomicWriteFile(Dir("status") + "/" + id + ".json", oss.str());
}

bool JobServer::HasWaiting() const {
  for (const auto& entry : fs::directory_iterator(Dir("jobs"))) {
    if (entry.path().extension() == ".json") return true;
  }
  return false;
}

std::string JobServer::ClaimNext() {
  if (!recovery_.empty()) {
    const std::string id = recovery_.front();
    recovery_.erase(recovery_.begin());
    return id;
  }
  std::vector<std::string> waiting;
  for (const auto& entry : fs::directory_iterator(Dir("jobs"))) {
    if (entry.path().extension() == ".json") {
      waiting.push_back(entry.path().stem().string());
    }
  }
  std::sort(waiting.begin(), waiting.end());  // FIFO by id, deterministic
  for (const std::string& id : waiting) {
    std::error_code ec;
    fs::rename(Dir("jobs") + "/" + id + ".json",
               Dir("running") + "/" + id + ".json", ec);
    if (!ec) return id;  // rename = atomic claim (loser of a race skips)
  }
  return "";
}

void JobServer::StartJob(const std::string& id) {
  auto worker = std::make_unique<Worker>();
  Worker* w = worker.get();
  w->id = id;
  w->thread = std::thread([this, w, id] {
    const std::string spec_path = Dir("running") + "/" + id + ".json";
    const std::string cancel_path = Dir("cancel") + "/" + id;
    // The last reported progress: a finished job keeps its counts.
    int done = 0;
    int total = 0;
    const auto finish = [&](const std::string& state,
                            const std::string& artifact,
                            const std::string& error) {
      WriteStatus(id, state, done, total, "", artifact, error);
      std::error_code ec;
      fs::rename(spec_path, Dir("done") + "/" + id + ".json", ec);
      fs::remove(cancel_path, ec);
    };
    try {
      std::ifstream in(spec_path);
      std::ostringstream text;
      text << in.rdbuf();
      JobSpec spec = JobSpec::Parse(text.str());
      spec.id = id;
      WriteStatus(id, "running", 0, 0, "", "", "");
      const auto should_stop = [this, &cancel_path] {
        return shutdown_.load() || fs::exists(cancel_path);
      };
      const auto progress = [&](int now_done, int now_total,
                                const std::string& detail) {
        done = now_done;
        total = now_total;
        WriteStatus(id, "running", done, total, detail, "", "");
      };
      const JobOutcome outcome =
          RunJob(spec, Dir("results") + "/" + id, Dir("checkpoints") + "/" + id,
                 should_stop, progress);
      if (outcome.completed) {
        finish("done", outcome.artifact, "");
      } else if (fs::exists(cancel_path)) {
        // Cancelled on purpose: retire the spec and drop its checkpoints —
        // a cancelled job must not resurrect on the next server start.
        std::error_code ec;
        fs::remove_all(Dir("checkpoints") + "/" + id, ec);
        finish("cancelled", "", "");
      } else {
        // Graceful shutdown: park in running/ so the next server run
        // resumes from the checkpoints.
        WriteStatus(id, "preempted", done, total, "", "", "");
      }
    } catch (const std::exception& e) {
      failed_jobs_.fetch_add(1);
      finish("failed", "", e.what());
    }
    w->finished.store(true);
  });
  workers_.push_back(std::move(worker));
}

std::size_t JobServer::ReapWorkers(bool wait_all) {
  std::size_t running = 0;
  for (auto it = workers_.begin(); it != workers_.end();) {
    Worker& w = **it;
    if (wait_all || w.finished.load()) {
      if (w.thread.joinable()) w.thread.join();
      it = workers_.erase(it);
    } else {
      ++running;
      ++it;
    }
  }
  return running;
}

int JobServer::Run() {
  while (!shutdown_.load()) {
    const std::size_t running = ReapWorkers(/*wait_all=*/false);
    std::size_t active = running;
    while (active < static_cast<std::size_t>(options_.max_jobs)) {
      const std::string id = ClaimNext();
      if (id.empty()) break;
      StartJob(id);
      ++active;
    }
    if (options_.once && active == 0 && recovery_.empty() && !HasWaiting()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
  }
  ReapWorkers(/*wait_all=*/true);
  return failed_jobs_.load();
}

}  // namespace gnoc
