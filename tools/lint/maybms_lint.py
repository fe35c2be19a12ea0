#!/usr/bin/env python3
"""maybms_lint: repo-specific invariant lint for the MayBMS reproduction.

Turns the invariants documented in header comments into machine-checked
rules over `src/` and `tools/` (see docs/architecture.md, "Invariant
enforcement"):

  plan-schema-only   Prepared/planner plan structs (src/engine/planner.*,
                     prepared.*, dml.*) must hold schema-level state only:
                     no Table/Database/Value/Tuple/TableHandle/JoinIndex/
                     World members. Plans are executed once per world —
                     captured world data is exactly the bug class PR 3
                     removed.

  forbidden-api      No calls to deleted/forbidden APIs anywhere in src/
                     or tools/: atoi/atol/atoll (no range or error
                     check — use ParseDecimal, base/string_util.h),
                     GetMutableRelation (deleted in PR 5), const_cast on
                     Table/Database (bypasses the COW write protocol), raw
                     std::thread/std::jthread outside base/ (use
                     base::ThreadPool), std::mt19937 outside base/ (use
                     base::SplitMix64, which is O(1) to seed), and raw
                     file I/O (open/fopen/mmap/pread/pwrite/fsync/...)
                     outside src/storage/ (use storage::File, which the
                     fault injector and checksum layer instrument).

  unchecked-status   A bare expression statement calling a function that
                     returns Status/Result drops the error. Consume it,
                     wrap it in MAYBMS_RETURN_NOT_OK / MAYBMS_ASSIGN_OR_
                     RETURN, or annotate the intentional drop with
                     MAYBMS_IGNORE_STATUS. ([[nodiscard]] makes this a
                     compile error too; the lint keeps it testable via
                     fixtures and catches pre-compile review diffs.)

  ungoverned-world-loop
                     A range-for in src/worlds/*.cc iterating a worlds
                     collection (range names `worlds`/`worlds_`/
                     `.worlds`/`Worlds()`, or the loop variable is a
                     World) must be governed: GovernPoll / GovernCharge*
                     / ParallelFor in the loop body, or — for loops
                     whose iterations must not be torn apart by a
                     mid-loop abort — immediately before the loop (the
                     poll-before-mutate idiom of CreateBaseTable). A
                     per-world loop with no poll anywhere is how an
                     exponential fan-out escapes the statement deadline
                     (base/query_context.h). Loops that are genuinely
                     O(1)-per-iteration arithmetic can annotate
                     `maybms-lint: allow(ungoverned-world-loop)` with a
                     justification.

Suppressions: a comment `maybms-lint: allow(rule-a, rule-b)` on the same
line or the line directly above suppresses those rules for that line.

Self-test: `--selftest` runs the rules over tests/lint_selftest/. Each
fixture names its pretend location on line 1 with
`// maybms-lint-fixture: src/...` (rule scoping follows that path) and
marks every line that MUST be flagged with `// expect-lint: rule`. The
self-test fails if any expected finding is missed OR any unexpected
finding fires — so it proves both detection and suppression behavior.

Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage/internal
error.
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

PLAN_SCOPE_FILES = re.compile(r"src/engine/(planner|prepared|dml)\.(h|cc)$")
PLAN_STRUCT_NAME = re.compile(r"^(Prepared\w*|\w*Plan|\w*PlanCache)$")
PLAN_FORBIDDEN_TYPE = re.compile(
    r"\b(Table|Database|Value|Tuple|TableHandle|JoinIndex|World)\b")

ALLOW_RE = re.compile(r"maybms-lint:\s*allow\(([^)]*)\)")
FIXTURE_PATH_RE = re.compile(r"maybms-lint-fixture:\s*(\S+)")
EXPECT_RE = re.compile(r"expect-lint:\s*([\w\-, ]+)")

# Function-name harvest: `Status Name(`, `Result<T> Name(` in src headers.
HARVEST_RE = re.compile(r"\b(?:Status|Result<[^;{}=]*?>)\s+([A-Za-z_]\w*)\s*\(")
# Names ALSO declared with a void return somewhere (e.g. the void
# Tuple::Append(Value) vs the Status Table::Append(Tuple)) are ambiguous to
# a name-based check and are excluded: dropped Status returns of those
# overloads are caught by the class-level [[nodiscard]] at compile time,
# which resolves overloads exactly.
VOID_HARVEST_RE = re.compile(r"\bvoid\s+([A-Za-z_]\w*)\s*\(")

# A bare call at statement start: optional object/namespace chain, then a
# name, then '('. Anchored manually at statement boundaries.
CALL_RE = re.compile(
    r"\s*((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\(")

# ungoverned-world-loop: scope, worlds-ish range detection, and what
# counts as governance. The pre-loop window covers the sanctioned
# poll-before-mutate idiom (one GovernPoll right above a loop whose
# iterations must be all-or-nothing).
WORLD_LOOP_SCOPE = re.compile(r"src/worlds/[^/]+\.cc$")
WORLD_RANGE_RE = re.compile(r"\b(worlds_?|Worlds)\b")
WORLD_DECL_RE = re.compile(r"\bWorld\b")
GOVERN_RE = re.compile(
    r"\b(GovernPoll|GovernChargeWorlds|GovernChargeBytes|ParallelFor)\b")
WORLD_LOOP_PRE_CONTEXT = 300  # chars of stripped code before the `for`

FORBIDDEN_API_PATTERNS = [
    # (regex, exempt_path_prefix, message): a match is ignored when the
    # file's rule path starts with the exempt prefix (None = banned
    # everywhere in src/ and tools/).
    (re.compile(r"\bato(i|l|ll)\s*\("), None,
     "atoi/atol/atoll wrap or truncate silently on bad input — parse "
     "integers from outside the process with ParseDecimal "
     "(base/string_util.h), which is digits-only and range-checked"),
    (re.compile(r"\bGetMutableRelation\b"), None,
     "deleted API GetMutableRelation — use Database::MutableRelation "
     "(clone-on-unshared-write) or PutRelation"),
    (re.compile(r"\bconst_cast\s*<[^>]*\b(Table|Database)\b"), None,
     "const_cast on Table/Database bypasses the copy-on-write protocol "
     "(storage/catalog.h); mutate through MutableRelation"),
    (re.compile(r"\bstd::thread\b(?!::hardware_concurrency)"), "src/base/",
     "raw std::thread outside base/ — use base::ThreadPool::ParallelFor "
     "(deterministic chunking, first-error-by-index)"),
    (re.compile(r"\bstd::jthread\b"), "src/base/",
     "raw std::jthread outside base/ — use base::ThreadPool::ParallelFor"),
    (re.compile(r"\bstd::mt19937(_64)?\b"), "src/base/",
     "std::mt19937 outside base/ — use base::SplitMix64 (base/rng.h), "
     "which is O(1) to seed per sample"),
    # Raw file I/O outside src/storage/: every disk access must go through
    # storage::File so the fault injector sees it (crash-recovery tests
    # enumerate File ops as kill points — a bypassing write would be a
    # durability hole the battery cannot reach) and so page checksums
    # cannot be skipped. The lookbehind excludes member calls
    # (stream.open) while `::open(` still matches.
    (re.compile(r"(?<![\w.>])(open|openat|creat|fopen|mmap|munmap|pread|"
                r"pwrite|fsync|fdatasync|ftruncate)\s*\("), "src/storage/",
     "raw file I/O outside src/storage/ — go through storage::File "
     "(fault-injectable, checksummed); direct syscalls dodge the "
     "crash-recovery battery"),
]


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blanks comments and string/char literals, preserving offsets and
    newlines, so structural scans never match commented or quoted text."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^(\s]{0,16})\(', text[i:])
                if m and i > 0 and text[i - 1] == "R":
                    raw_delim = ")" + m.group(1) + '"'
                    state = RAW
                    i += m.end()
                    continue
                state = STRING
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = NORMAL
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state == STRING:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == CHAR:
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == RAW:
            if text.startswith(raw_delim, i):
                for j in range(len(raw_delim)):
                    out[i + j] = " "
                i += len(raw_delim)
                state = NORMAL
                continue
            if c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def line_of(text, offset, line_starts):
    """1-based line number of `offset` via the precomputed starts."""
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def parse_directives(raw_lines):
    """allow() suppressions (line -> rules), fixture path, expectations.

    An allow() on a comment-only line propagates forward through the rest
    of that comment block to the first code line below it, so a multi-line
    justification comment ending in code suppresses that code line (the
    idiom used for the sanctioned const_cast in storage/catalog.cc). An
    allow() trailing a code line applies to that line only.
    """
    allows = {}
    expects = {}
    fixture_path = None
    pending = set()
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        rules = set()
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        comment_only = line.strip().startswith("//") or not line.strip()
        if comment_only:
            pending |= rules
        else:
            merged = rules | pending
            pending = set()
            if merged:
                allows.setdefault(idx, set()).update(merged)
        m = FIXTURE_PATH_RE.search(line)
        if m:
            fixture_path = m.group(1)
        m = EXPECT_RE.search(line)
        if m:
            erules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            expects.setdefault(idx, set()).update(erules)
    return allows, expects, fixture_path


def suppressed(allows, line, rule):
    return rule in allows.get(line, set())


def scope_stack_scan(stripped):
    """Yields (start, end, innermost_named_scope) regions for member-level
    analysis: a simple brace tracker that names struct/class scopes and
    treats everything else (functions, enums, lambdas, initializers) as
    anonymous block scopes."""
    regions = []
    stack = []  # (kind, name) — kind in {"struct", "block", "enum"}
    head_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            head = stripped[head_start:i]
            m = None
            for m2 in re.finditer(r"\b(struct|class|enum|union|namespace)\b"
                                  r"(?:\s+class|\s+struct)?\s+([A-Za-z_][\w:<>]*)",
                                  head):
                m = m2
            kind = "block"
            name = ""
            if m and "(" not in head[m.end():]:
                kw = m.group(1)
                qualified = m.group(2)
                name = qualified.split("::")[-1].split("<")[0]
                if kw in ("struct", "class"):
                    kind = "struct"
                elif kw == "enum":
                    kind = "enum"
                else:
                    kind = "namespace"
            stack.append((kind, name, i + 1))
            head_start = i + 1
        elif c == "}":
            if stack:
                kind, name, start = stack.pop()
                if kind == "struct":
                    regions.append((start, i, name))
            head_start = i + 1
        elif c == ";":
            head_start = i + 1
        i += 1
    return regions, stack


def check_plan_schema_only(path_for_rules, stripped, line_starts, findings,
                           allows):
    if not PLAN_SCOPE_FILES.search(path_for_rules):
        return
    regions, _ = scope_stack_scan(stripped)
    for start, end, name in regions:
        if not PLAN_STRUCT_NAME.match(name):
            continue
        # Direct members only: blank nested brace regions inside this one.
        body = list(stripped[start:end])
        depth = 0
        for k, ch in enumerate(body):
            if ch == "{":
                depth += 1
                body[k] = " "
            elif ch == "}":
                depth -= 1
                body[k] = " "
            elif depth > 0 and ch != "\n":
                body[k] = " "
        body = "".join(body)
        # Strip access-specifier labels so they don't glue onto members.
        body = re.sub(r"\b(public|private|protected)\s*:", " ", body)
        pos = 0
        for stmt_m in re.finditer(r"[^;]*;", body):
            stmt = stmt_m.group(0)
            if "(" in stmt:
                continue  # function declaration / call, not a data member
            first_word = re.match(r"\s*([A-Za-z_]\w*)", stmt)
            if first_word and first_word.group(1) in (
                    "using", "typedef", "friend", "static_assert", "enum"):
                continue
            tm = PLAN_FORBIDDEN_TYPE.search(stmt)
            if tm:
                line = line_of(stripped, start + stmt_m.start() + tm.start(),
                               line_starts)
                if not suppressed(allows, line, "plan-schema-only"):
                    findings.append(Finding(
                        path_for_rules, line, "plan-schema-only",
                        f"plan struct '{name}' holds a '{tm.group(1)}' "
                        "member — prepared plans are schema-only and must "
                        "never capture world data (engine/prepared.h "
                        "invariant)"))
            pos = stmt_m.end()
        _ = pos


def check_forbidden_api(path_for_rules, stripped, line_starts, findings,
                        allows):
    norm_path = path_for_rules.replace("\\", "/")
    for pattern, exempt_prefix, message in FORBIDDEN_API_PATTERNS:
        if exempt_prefix and norm_path.startswith(exempt_prefix):
            continue
        for m in pattern.finditer(stripped):
            line = line_of(stripped, m.start(), line_starts)
            if not suppressed(allows, line, "forbidden-api"):
                findings.append(
                    Finding(path_for_rules, line, "forbidden-api", message))


def harvest_status_functions(header_texts):
    """Names of functions declared to return Status/Result in src headers,
    minus names that are ambiguous (also declared returning void)."""
    names = set()
    void_names = set()
    for text in header_texts:
        for m in HARVEST_RE.finditer(text):
            names.add(m.group(1))
        for m in VOID_HARVEST_RE.finditer(text):
            void_names.add(m.group(1))
    names -= void_names
    # Never treat control keywords as calls, whatever the harvest found.
    names -= {"if", "while", "for", "switch", "return", "sizeof", "catch"}
    return names


def match_paren_close(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_brace_close(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def range_for_split(header):
    """Splits a for-header at the range-for ':' (top nesting level, not
    part of '::'). Returns (decl, range_expr) or None for a classic for."""
    depth = 0
    i, n = 0, len(header)
    while i < n:
        c = header[i]
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == ":" and depth <= 0:
            if i + 1 < n and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            return header[:i], header[i + 1:]
        i += 1
    return None


def check_ungoverned_world_loop(path_for_rules, stripped, line_starts,
                                findings, allows):
    if not WORLD_LOOP_SCOPE.search(path_for_rules):
        return
    for m in re.finditer(r"\bfor\s*\(", stripped):
        open_idx = stripped.index("(", m.end() - 1)
        close_idx = match_paren_close(stripped, open_idx)
        if close_idx < 0:
            continue
        split = range_for_split(stripped[open_idx + 1:close_idx])
        if split is None:
            continue
        decl, range_expr = split
        if not (WORLD_RANGE_RE.search(range_expr)
                or WORLD_DECL_RE.search(decl)):
            continue
        k = close_idx + 1
        while k < len(stripped) and stripped[k].isspace():
            k += 1
        if k < len(stripped) and stripped[k] == "{":
            end = match_brace_close(stripped, k)
            body = stripped[k:end + 1] if end >= 0 else stripped[k:]
        else:
            semi = stripped.find(";", k)
            body = stripped[k:semi + 1] if semi >= 0 else stripped[k:]
        pre = stripped[max(0, m.start() - WORLD_LOOP_PRE_CONTEXT):m.start()]
        if GOVERN_RE.search(body) or GOVERN_RE.search(pre):
            continue
        line = line_of(stripped, m.start(), line_starts)
        if not suppressed(allows, line, "ungoverned-world-loop"):
            findings.append(Finding(
                path_for_rules, line, "ungoverned-world-loop",
                "per-world loop with no governance: add GovernPoll/"
                "GovernCharge* in the body (or one GovernPoll directly "
                "before the loop if a mid-loop abort would tear state), "
                "route it through ParallelFor, or justify an O(1)-"
                "arithmetic loop with maybms-lint: "
                "allow(ungoverned-world-loop)"))


def check_unchecked_status(path_for_rules, stripped, line_starts, findings,
                           allows, status_names):
    # Statement anchors: file start and positions right after ; { } : ).
    # A newline is deliberately NOT an anchor — an assignment or argument
    # list continued onto the next line must not look like a fresh
    # statement. The anchored \s* below spans newlines, so a call that is
    # the next *statement* is still found from the previous ;/{/} anchor.
    for m in re.finditer(r"(?:\A|[;{}:)])", stripped):
        anchor = m.end()
        # A ':' anchor means a label (case/public/private) — the second
        # colon of a '::' scope operator is mid-expression, not a
        # statement boundary (`return Status::OK();` must not look like a
        # bare `OK();`).
        if m.group(0) == ":" and anchor >= 2 and stripped[anchor - 2] == ":":
            continue
        call = CALL_RE.match(stripped, anchor)
        if not call:
            continue
        name = call.group(2)
        if name not in status_names:
            continue
        open_idx = stripped.index("(", call.end(2))
        close_idx = match_paren_close(stripped, open_idx)
        if close_idx < 0:
            continue
        after = stripped[close_idx + 1:close_idx + 64]
        after_stripped = after.lstrip()
        if not after_stripped.startswith(";"):
            continue
        # Reject matches that are actually declarations/definitions: the
        # chain must be empty or an object expression, and a preceding
        # type token would have been part of the previous statement.
        before = stripped[max(0, anchor - 64):anchor]
        if re.search(r"\breturn\s*$", before):
            continue
        line = line_of(stripped, call.start(2), line_starts)
        if not suppressed(allows, line, "unchecked-status"):
            findings.append(Finding(
                path_for_rules, line, "unchecked-status",
                f"result of Status/Result-returning call '{name}(...)' is "
                "dropped — check it, propagate with MAYBMS_RETURN_NOT_OK/"
                "MAYBMS_ASSIGN_OR_RETURN, or annotate the intentional "
                "drop with MAYBMS_IGNORE_STATUS"))


def analyze_file(disk_path, path_for_rules, status_names):
    raw = disk_path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    allows, expects, _ = parse_directives(raw_lines)
    stripped = strip_code(raw)
    line_starts = [0]
    for k, ch in enumerate(stripped):
        if ch == "\n":
            line_starts.append(k + 1)
    findings = []
    check_plan_schema_only(path_for_rules, stripped, line_starts, findings,
                           allows)
    check_forbidden_api(path_for_rules, stripped, line_starts, findings,
                        allows)
    check_ungoverned_world_loop(path_for_rules, stripped, line_starts,
                                findings, allows)
    check_unchecked_status(path_for_rules, stripped, line_starts, findings,
                           allows, status_names)
    # Overlapping anchors (e.g. both colons of a `::`) can report the same
    # site twice; one finding per (line, rule) is enough.
    unique = {}
    for f in findings:
        unique.setdefault((f.line, f.rule), f)
    findings = [unique[k] for k in sorted(unique)]
    return findings, expects


def collect_default_files(root):
    files = []
    for pattern in ("src/**/*.h", "src/**/*.cc", "tools/**/*.h",
                    "tools/**/*.cc"):
        files.extend(sorted(root.glob(pattern)))
    return files


def load_status_names(root, extra_files=()):
    texts = []
    for header in sorted(root.glob("src/**/*.h")):
        texts.append(strip_code(header.read_text(encoding="utf-8",
                                                 errors="replace")))
    for f in extra_files:
        texts.append(strip_code(
            pathlib.Path(f).read_text(encoding="utf-8", errors="replace")))
    return harvest_status_functions(texts)


def run_lint(root, files):
    status_names = load_status_names(root)
    all_findings = []
    for f in files:
        rel = str(f.relative_to(root)) if f.is_relative_to(root) else str(f)
        findings, _ = analyze_file(f, rel, status_names)
        all_findings.extend(findings)
    return all_findings


def run_selftest(root):
    fixture_dir = root / "tests" / "lint_selftest"
    fixtures = sorted(list(fixture_dir.glob("*.h")) +
                      list(fixture_dir.glob("*.cc")))
    if not fixtures:
        print(f"lint selftest: no fixtures found under {fixture_dir}",
              file=sys.stderr)
        return 2
    status_names = load_status_names(root, fixtures)
    failures = 0
    total_expected = 0
    for f in fixtures:
        raw_lines = f.read_text(encoding="utf-8").splitlines()
        _, expects, fixture_path = parse_directives(raw_lines)
        if fixture_path is None:
            print(f"{f}: missing '// maybms-lint-fixture: src/...' header",
                  file=sys.stderr)
            failures += 1
            continue
        findings, _ = analyze_file(f, fixture_path, status_names)
        got = {}
        for finding in findings:
            got.setdefault(finding.line, set()).add(finding.rule)
        total_expected += sum(len(v) for v in expects.values())
        for line, rules in sorted(expects.items()):
            missing = rules - got.get(line, set())
            for rule in sorted(missing):
                print(f"{f.name}:{line}: expected [{rule}] but the linter "
                      "did not flag it", file=sys.stderr)
                failures += 1
        for line, rules in sorted(got.items()):
            unexpected = rules - expects.get(line, set())
            for rule in sorted(unexpected):
                print(f"{f.name}:{line}: unexpected [{rule}] finding",
                      file=sys.stderr)
                failures += 1
    if failures:
        print(f"lint selftest FAILED ({failures} mismatches)",
              file=sys.stderr)
        return 1
    print(f"lint selftest OK ({len(fixtures)} fixtures, "
          f"{total_expected} expected findings all flagged, no extras)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO_ROOT,
                        help="repository root (default: inferred)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture self-test instead of linting")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="files to lint (default: src/ and tools/ "
                             "**/*.{h,cc})")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    if args.selftest:
        return run_selftest(root)

    files = args.files or collect_default_files(root)
    findings = run_lint(root, files)
    for finding in findings:
        print(finding)
    if findings:
        print(f"maybms_lint: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"maybms_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
