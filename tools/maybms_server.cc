// maybms_server: the I-SQL network server binary.
//
//   maybms_server [--host H] [--port P] [--engine explicit|decomposed]
//                 [--max-connections N] [--idle-timeout-ms MS]
//                 [--storage memory|paged] [--storage-dir DIR]
//                 [--threads N] [--statement-timeout-ms MS]
//                 [--max-worlds N] [--mem-budget-mb MB] [--cancel-on-drain]
//
// Prints "maybms_server listening on H:P" once serving (port 0 binds an
// ephemeral port and prints the real one — scripts parse this line).
// SIGTERM/SIGINT trigger a graceful drain: in-flight statements finish,
// their responses flush, every connection closes, and the process exits
// 0 with a drain summary.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "base/string_util.h"
#include "server/server.h"

namespace {

// Self-pipe: the only async-signal-safe thing the handler does is write
// one byte; the main thread blocks on the read end.
int g_signal_pipe[2] = {-1, -1};

void HandleTermination(int /*signum*/) {
  char byte = 1;
  // Ignore a full pipe — a shutdown is already pending.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--engine explicit|decomposed]\n"
      "          [--max-connections N] [--idle-timeout-ms MS]\n"
      "          [--storage memory|paged] [--storage-dir DIR] [--threads N]\n"
      "          [--statement-timeout-ms MS] [--max-worlds N]\n"
      "          [--mem-budget-mb MB] [--cancel-on-drain]\n",
      argv0);
  return 2;
}

using maybms::ParseDecimalInto;

}  // namespace

int main(int argc, char** argv) {
  maybms::server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.host = v;
    } else if (arg == "--port") {
      if (!ParseDecimalInto(next(), &options.port)) return Usage(argv[0]);
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "explicit") == 0) {
        options.session.engine = maybms::isql::EngineMode::kExplicit;
      } else if (std::strcmp(v, "decomposed") == 0) {
        options.session.engine = maybms::isql::EngineMode::kDecomposed;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-connections") {
      if (!ParseDecimalInto(next(), &options.max_connections)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--idle-timeout-ms") {
      if (!ParseDecimalInto(next(), &options.idle_timeout_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--storage") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "memory") == 0) {
        options.session.storage = maybms::isql::StorageMode::kMemory;
      } else if (std::strcmp(v, "paged") == 0) {
        options.session.storage = maybms::isql::StorageMode::kPaged;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--storage-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.session.storage_dir = v;
    } else if (arg == "--threads") {
      if (!ParseDecimalInto(next(), &options.session.threads)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--statement-timeout-ms") {
      if (!ParseDecimalInto(next(), &options.session.statement_timeout_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-worlds") {
      if (!ParseDecimalInto(next(), &options.session.max_worlds)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--mem-budget-mb") {
      if (!ParseDecimalInto(next(), &options.session.mem_budget_mb)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--cancel-on-drain") {
      options.cancel_statements_on_drain = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleTermination;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  auto server = maybms::server::Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "maybms_server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::printf("maybms_server listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);

  // Block until SIGTERM/SIGINT.
  char byte;
  ssize_t n;
  do {
    n = ::read(g_signal_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);

  (*server)->Shutdown();
  std::printf("maybms_server drained cleanly: %llu statements, "
              "%llu connections served, %llu refused\n",
              static_cast<unsigned long long>((*server)->statements_served()),
              static_cast<unsigned long long>(
                  (*server)->connections_accepted()),
              static_cast<unsigned long long>(
                  (*server)->connections_refused()));
  return 0;
}
