#include "bench/workloads.h"

#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>

#include "isql/formatter.h"

namespace maybms::bench {

std::string Fig1Script() {
  return R"sql(
    create table R (A text, B integer, C text, D integer);
    insert into R values
      ('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6), ('a2', 14, 'c3', 4),
      ('a2', 20, 'c4', 5), ('a3', 20, 'c5', 6);
    create table S (C text, E text);
    insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2');
  )sql";
}

std::string Fig3Script(int worlds) {
  // The six-world observation pattern of Figure 3, extended cyclically
  // when more worlds are requested.
  static const char* kGender2[] = {"cow", "cow", "bull", "bull", "cow", "bull"};
  static const char* kGender3[] = {"cow", "bull", "cow", "bull", "cow", "cow"};
  static const char* kPos1[] = {"b", "b", "b", "b", "c", "c"};
  static const char* kPos2[] = {"c", "c", "c", "c", "b", "b"};
  std::ostringstream script;
  script << "create table Obs (WID integer, Id integer, Species text, "
            "Gender text, Pos text);\n";
  script << "insert into Obs values ";
  for (int w = 0; w < worlds; ++w) {
    int p = w % 6;
    if (w > 0) script << ", ";
    script << "(" << w << ", 1, 'sperm', 'calf', '" << kPos1[p] << "'), "
           << "(" << w << ", 2, 'sperm', '" << kGender2[p] << "', '"
           << kPos2[p] << "'), "
           << "(" << w << ", 3, 'orca', '" << kGender3[p] << "', 'a')";
  }
  script << ";\n";
  script << "create table I as select Id, Species, Gender, Pos from Obs "
            "choice of WID;\n";
  return script.str();
}

std::string Fig5Script(int records) {
  std::ostringstream script;
  script << "create table R (SSN integer, TEL integer);\n";
  script << "insert into R values ";
  for (int i = 0; i < records; ++i) {
    if (i > 0) script << ", ";
    // Distinct SSN/TEL values per record; the swap doubt applies per row.
    script << "(" << (1000 + i) << ", " << (5000 + i) << ")";
  }
  script << ";\n";
  script << "create table S as "
            "select SSN, TEL, SSN as SSN', TEL as TEL' from R "
            "union select SSN, TEL, TEL as SSN', SSN as TEL' from R;\n";
  script << "create table T as select SSN', TEL' from S "
            "repair by key SSN, TEL;\n";
  return script.str();
}

std::string KeyViolationScript(int n_keys, int group_size, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> value(0, 99);
  std::uniform_int_distribution<int> weight(1, 9);
  std::ostringstream script;
  script << "create table R (K integer, V integer, W integer);\n";
  script << "insert into R values ";
  bool first = true;
  for (int k = 0; k < n_keys; ++k) {
    for (int g = 0; g < group_size; ++g) {
      if (!first) script << ", ";
      first = false;
      script << "(" << k << ", " << value(rng) << ", " << weight(rng) << ")";
    }
  }
  script << ";\n";
  return script.str();
}

std::unique_ptr<isql::Session> MakeSession(isql::EngineMode mode,
                                           size_t threads) {
  isql::SessionOptions options;
  options.engine = mode;
  options.max_display_worlds = 1 << 22;
  options.threads = threads;
  return std::make_unique<isql::Session>(options);
}

void MustExecute(isql::Session& session, const std::string& sql) {
  auto result = session.ExecuteScript(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark setup failed: %s\nscript: %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::abort();
  }
}

isql::QueryResult MustQuery(isql::Session& session, const std::string& sql) {
  auto result = session.Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark query failed: %s\nquery: %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::abort();
  }
  return std::move(result).value();
}

void PrintReproduction(const std::string& title, isql::Session& session,
                       const std::string& query) {
  std::printf("---- %s ----\n", title.c_str());
  std::printf("isql> %s\n", query.c_str());
  auto result = session.Execute(query);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", isql::FormatQueryResult(*result).c_str());
}

}  // namespace maybms::bench
