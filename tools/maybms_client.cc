// maybms_client: a small I-SQL wire client for maybms_server.
//
//   maybms_client [--host H] [--port P] [--timeout-ms MS]
//                 [--deadline-ms MS] [--retries N] -e "statement;"
//   maybms_client [--host H] [--port P] [...] < script.sql
//
// With -e, sends exactly one request and prints the response. Without,
// reads stdin, sends one request per ';'-terminated statement (so a
// multi-statement script round-trips statement by statement, matching
// the interactive shell), and prints each response. Exits nonzero on a
// transport failure or any error response.
//
// --deadline-ms attaches a per-statement deadline to every request (a
// governed frame, protocol.h); the server enforces the tighter of this
// and its own configured limit. --retries N retries transient overload
// outcomes only — connect failure and the server's capacity refusal —
// with exponential backoff + jitter; a statement's own resource errors
// are final. Off by default.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "base/string_util.h"
#include "server/net.h"
#include "server/protocol.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--timeout-ms MS] "
               "[--deadline-ms MS] [--retries N] [-e \"statement;\"]\n",
               argv0);
  return 2;
}

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int timeout_ms = 30'000;
  uint32_t deadline_ms = 0;  // 0 = no request deadline
  maybms::server::RetryPolicy retry;
};

/// Sends one request; prints the response text. Returns 0 on an OK
/// response, 1 otherwise. `conn` is the persistent connection for the
/// no-retry path; with retries enabled each attempt reconnects (the
/// server closes refused connections, so reuse is impossible anyway).
int RunStatement(const ClientConfig& config, const maybms::server::Fd* conn,
                 const std::string& sql) {
  const std::string request =
      config.deadline_ms == 0
          ? sql
          : maybms::server::EncodeGovernedRequest(config.deadline_ms, sql);
  auto reply = config.retry.max_retries > 0
                   ? maybms::server::RoundTripWithRetry(
                         config.host, config.port, request, config.timeout_ms,
                         config.retry)
                   : maybms::server::RoundTrip(*conn, request,
                                               config.timeout_ms);
  if (!reply.ok()) {
    std::fprintf(stderr, "maybms_client: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  if (reply->first != maybms::StatusCode::kOk) {
    std::fprintf(stderr, "ERROR (%s): %s\n",
                 maybms::StatusCodeToString(reply->first),
                 reply->second.c_str());
    return 1;
  }
  if (!reply->second.empty()) {
    std::fputs(reply->second.c_str(), stdout);
    if (reply->second.back() != '\n') std::fputc('\n', stdout);
  }
  return 0;
}

using maybms::ParseDecimalInto;

}  // namespace

int main(int argc, char** argv) {
  ClientConfig config;
  std::string statement;
  bool have_statement = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.host = v;
    } else if (arg == "--port") {
      if (!ParseDecimalInto(next(), &config.port)) return Usage(argv[0]);
    } else if (arg == "--timeout-ms") {
      if (!ParseDecimalInto(next(), &config.timeout_ms)) return Usage(argv[0]);
    } else if (arg == "--deadline-ms") {
      if (!ParseDecimalInto(next(), &config.deadline_ms)) return Usage(argv[0]);
    } else if (arg == "--retries") {
      if (!ParseDecimalInto(next(), &config.retry.max_retries)) {
        return Usage(argv[0]);
      }
    } else if (arg == "-e") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      statement = v;
      have_statement = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.port == 0) {
    std::fprintf(stderr, "maybms_client: --port is required\n");
    return Usage(argv[0]);
  }

  // The persistent connection of the no-retry path; the retry path
  // connects per attempt inside RoundTripWithRetry.
  maybms::server::Fd conn;
  if (config.retry.max_retries == 0) {
    auto connected = maybms::server::ConnectTo(config.host, config.port);
    if (!connected.ok()) {
      std::fprintf(stderr, "maybms_client: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    conn = std::move(*connected);
  }

  if (have_statement) {
    return RunStatement(config, &conn, statement);
  }

  // Stdin mode: buffer until a line ends the current statement with ';'.
  int rc = 0;
  std::string pending;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!pending.empty()) pending.push_back('\n');
    pending += line;
    // Send once the buffered text ends in ';' (ignoring trailing blanks).
    size_t end = pending.find_last_not_of(" \t\r\n");
    if (end == std::string::npos || pending[end] != ';') continue;
    rc |= RunStatement(config, &conn, pending);
    pending.clear();
  }
  if (pending.find_first_not_of(" \t\r\n") != std::string::npos) {
    rc |= RunStatement(config, &conn, pending);
  }
  return rc;
}
