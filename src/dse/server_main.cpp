// gnoc_server — the DSE job server binary (DESIGN.md §13).
//
// Watches a spool directory for JSON job specs (sweeps and Pareto
// searches, see dse/job.hpp) and runs them with checkpoint/restore, so a
// killed server restarted on the same spool finishes its in-flight jobs.
//
//   gnoc_server spool=/tmp/dse                 # serve until SIGINT/SIGTERM
//   gnoc_server spool=/tmp/dse once=true       # drain the backlog, exit
//
// Submit a job by writing its spec to <spool>/jobs/<id>.json; cancel it by
// creating <spool>/cancel/<id> (dse/server.hpp has the spool layout).

#include <csignal>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "dse/server.hpp"

namespace {

gnoc::JobServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  gnoc::FlagSet flags("gnoc_server",
                      "DSE job server: runs sweep and pareto-search jobs "
                      "from a spool directory with checkpoint/restore");
  flags.AddString("spool", "", "spool root directory (required)",
                  [](const std::string& v) {
                    return v.empty() ? "spool directory is required"
                                     : std::string();
                  });
  flags.AddInt("jobs", 2, "concurrently running jobs", [](std::int64_t v) {
    return v < 1 ? "must be >= 1" : std::string();
  });
  flags.AddInt("poll_ms", 200, "spool scan interval (ms)", [](std::int64_t v) {
    return v < 1 ? "must be >= 1" : std::string();
  });
  flags.AddBool("once", false, "drain the current backlog, then exit");

  gnoc::Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const gnoc::CliError& e) {
    std::cerr << "gnoc_server: " << e.what() << std::endl;
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  gnoc::ServerOptions options;
  options.spool = args.GetString("spool");
  options.max_jobs = static_cast<int>(args.GetInt("jobs", 2));
  options.poll_ms = static_cast<int>(args.GetInt("poll_ms", 200));
  options.once = args.GetBool("once", false);
  if (options.spool.empty()) {
    std::cerr << "gnoc_server: spool= is required (see help)" << std::endl;
    return 2;
  }

  try {
    gnoc::JobServer server(options);
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    const int failed = server.Run();
    g_server = nullptr;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gnoc_server: " << e.what() << std::endl;
    return 2;
  }
}
