// maybms-lint-fixture: tools/maybms_server.cc
// Known-bad fixture: atoi/atol/atoll in a command-line tool. They wrap or
// truncate silently ("--port 70000" became 4464, "--max-worlds abc" ran
// ungoverned); flags go through ParseDecimal instead.
#include <cstdlib>

namespace {

void Violations(const char* v) {
  int port = std::atoi(v);           // expect-lint: forbidden-api
  long budget = atol(v);             // expect-lint: forbidden-api
  long long worlds = std::atoll (v);  // expect-lint: forbidden-api
  (void)port;
  (void)budget;
  (void)worlds;
}

void Sanctioned(const char* v) {
  // Mentions in comments and strings never count: atoi(v), atoll(v).
  const char* msg = "atoi(v) is forbidden";
  // Identifiers that merely contain the name are not calls to it.
  int my_atoi = 0;
  auto atoll_like = [](const char* s) { return s != nullptr; };
  (void)msg;
  (void)my_atoi;
  (void)atoll_like(v);
}

}  // namespace
