#include "sleeplint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "sleeplint_facts.h"
#include "sleeplint_lexer.h"
#include "sleeplint_policy.h"
#include "sleeplint_wp.h"

namespace sleeplint {

namespace {

// ---------------------------------------------------------------------------
// Source preparation (lexing + allow markers)
// ---------------------------------------------------------------------------

/// A lexed file plus its escape markers. The lexer blanks comments and
/// all string forms (including raw strings) from `lexed.code` while the
/// markers are read from `lexed.comments` — so a quoted
/// "sleeplint: allow(...)" in a string literal is data, not an escape.
struct PreparedSource {
  LexedSource lexed;
  /// Rules allowed per line via `// sleeplint: allow(<rule>)`; an entry
  /// suppresses diagnostics on its own line and the following line.
  std::vector<std::vector<std::string>> allows;
  /// Rules waived for the file via `// sleeplint: allow-file(<rule>)`.
  std::vector<std::string> file_allows;
  /// bad-allow findings: markers naming no known rule.
  std::vector<Diagnostic> marker_diagnostics;
};

bool KnownRule(std::string_view rule) {
  const auto& all = AllRules();
  return std::find(all.begin(), all.end(), rule) != all.end();
}

/// Scans one comment line for allow/allow-file markers. Unknown rule
/// names become bad-allow diagnostics: a typoed escape that silently
/// suppresses nothing is worse than no escape at all.
void ExtractAllows(const std::string& path, std::string_view comment,
                   int line, std::vector<std::string>& line_allows,
                   std::vector<std::string>& file_allows,
                   std::vector<Diagnostic>& marker_diagnostics) {
  struct Marker {
    std::string_view text;
    bool file_scope;
  };
  static constexpr Marker kMarkers[] = {
      {"sleeplint: allow(", false},
      {"sleeplint: allow-file(", true},
  };
  for (const auto& marker : kMarkers) {
    std::size_t pos = 0;
    while ((pos = comment.find(marker.text, pos)) !=
           std::string_view::npos) {
      const std::size_t open = pos + marker.text.size();
      const std::size_t close = comment.find(')', open);
      if (close == std::string_view::npos) break;
      std::string rule{comment.substr(open, close - open)};
      // Placeholders in documentation ("...", "<rule>") are not
      // escapes and not typos — only identifier-shaped names count.
      const bool identifier_shaped =
          !rule.empty() &&
          std::all_of(rule.begin(), rule.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '-';
          });
      if (!identifier_shaped) {
        pos = close;
        continue;
      }
      if (KnownRule(rule)) {
        (marker.file_scope ? file_allows : line_allows)
            .push_back(std::move(rule));
      } else {
        Diagnostic diagnostic;
        diagnostic.path = path;
        diagnostic.line = line;
        diagnostic.rule = std::string(rules::kBadAllow);
        diagnostic.message = std::string(marker.file_scope
                                             ? "allow-file marker"
                                             : "allow marker") +
                             " names unknown rule \"" + rule +
                             "\"; see --list-rules for the catalogue";
        marker_diagnostics.push_back(std::move(diagnostic));
      }
      pos = close;
    }
  }
}

PreparedSource Prepare(const std::string& path, std::string_view content) {
  PreparedSource prepared;
  prepared.lexed = Lex(content);
  prepared.allows.resize(prepared.lexed.comments.size());
  for (std::size_t i = 0; i < prepared.lexed.comments.size(); ++i) {
    ExtractAllows(path, prepared.lexed.comments[i], static_cast<int>(i) + 1,
                  prepared.allows[i], prepared.file_allows,
                  prepared.marker_diagnostics);
  }
  return prepared;
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

std::string NormalizePath(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool IsHeaderPath(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when `token` occurs in `line` and is not immediately preceded by
/// an identifier character or a member/scope spelling that makes it a
/// different name. `allow_scope_prefix` controls whether `::token` (and
/// `.token` / `->token`) still counts as a match:
///   * for free functions like `time(` we *want* `std::time(`/`::time(`
///     to match, but not `x.time()` (our own accessors) — callers pass
///     member_call_exempt = true;
///   * for type names like `mt19937` any occurrence matches.
bool MatchesToken(const std::string& line, std::string_view token,
                  bool member_call_exempt) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const char prev = pos > 0 ? line[pos - 1] : '\0';
    const char prev2 = pos > 1 ? line[pos - 2] : '\0';
    bool excluded = IsIdentChar(prev);
    if (!excluded && member_call_exempt) {
      // `belief.time()` or `span->time()` is a member of ours, not libc.
      excluded = prev == '.' || (prev == '>' && prev2 == '-');
    }
    if (!excluded) return true;
    ++pos;
  }
  return false;
}

struct TokenRule {
  std::string_view token;
  bool member_call_exempt;
  std::string_view what;  ///< human name for the message
};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

constexpr TokenRule kWallclockTokens[] = {
    {"system_clock::now", false, "std::chrono::system_clock::now"},
    {"steady_clock::now", false, "std::chrono::steady_clock::now"},
    {"high_resolution_clock::now", false,
     "std::chrono::high_resolution_clock::now"},
    {"gettimeofday", false, "gettimeofday"},
    {"clock_gettime", false, "clock_gettime"},
    {"time(", true, "time()"},
    {"localtime(", true, "localtime()"},
    {"gmtime(", true, "gmtime()"},
};

constexpr TokenRule kRngTokens[] = {
    {"random_device", false, "std::random_device"},
    {"mt19937", false, "std::mt19937"},
    {"minstd_rand", false, "std::minstd_rand"},
    {"default_random_engine", false, "std::default_random_engine"},
    {"rand(", true, "rand()"},
    {"srand(", true, "srand()"},
    {"drand48", false, "drand48"},
    {"lrand48", false, "lrand48"},
};

constexpr TokenRule kRawFsTokens[] = {
    {"std::ofstream", false, "std::ofstream"},
    {"std::ifstream", false, "std::ifstream"},
    {"std::fstream", false, "std::fstream"},
    {"fopen(", true, "fopen()"},
    {"fsync(", true, "fsync()"},
    {"std::rename", false, "std::rename"},
    {"std::tmpfile", false, "std::tmpfile"},
};

// Raw socket/epoll syscalls. `bind(` and `connect(` are deliberately
// absent: std::bind and member connect() spellings would false-positive
// constantly, and no socket reaches bind/connect without first passing
// one of the tokens below.
constexpr TokenRule kRawSocketTokens[] = {
    {"socket(", true, "socket()"},
    {"accept(", true, "accept()"},
    {"accept4(", true, "accept4()"},
    {"listen(", true, "listen()"},
    {"epoll_create", false, "epoll_create"},
    {"epoll_ctl", false, "epoll_ctl"},
    {"epoll_wait", false, "epoll_wait"},
    {"setsockopt(", true, "setsockopt()"},
    {"getsockname(", true, "getsockname()"},
    {"recvfrom(", true, "recvfrom()"},
    {"sendto(", true, "sendto()"},
};

// Thread construction and std::thread::hardware_concurrency both match
// the type-name token; `#include <thread>` and std::this_thread do not.
constexpr TokenRule kRawThreadTokens[] = {
    {"std::thread", false, "std::thread"},
    {"std::jthread", false, "std::jthread"},
};

constexpr TokenRule kRawIoTokens[] = {
    {"std::cout", false, "std::cout"},
    {"std::cerr", false, "std::cerr"},
    {"std::clog", false, "std::clog"},
    {"printf(", true, "printf()"},
    {"fprintf(", true, "fprintf()"},
    {"puts(", true, "puts()"},
    {"putchar(", true, "putchar()"},
};

/// Narrow integer destinations for no-unchecked-narrowing. Plain
/// substring match after `static_cast<` — the serialization files only
/// ever cast to the fixed-width aliases.
constexpr std::string_view kNarrowTargets[] = {
    "std::uint8_t",  "std::uint16_t", "std::uint32_t", "std::int8_t",
    "std::int16_t",  "std::int32_t",  "uint8_t",       "uint16_t",
    "uint32_t",      "int8_t",        "int16_t",       "int32_t",
    "char",          "short",
};

bool IsNarrowingCast(const std::string& line) {
  std::size_t pos = 0;
  static constexpr std::string_view kCast = "static_cast<";
  while ((pos = line.find(kCast, pos)) != std::string::npos) {
    // Extract the target type up to the matching '>'.
    const std::size_t open = pos + kCast.size();
    const std::size_t close = line.find('>', open);
    if (close == std::string::npos) return false;
    std::string target = line.substr(open, close - open);
    // Trim whitespace and const.
    std::string cleaned;
    std::istringstream words{target};
    std::string word;
    while (words >> word) {
      if (word == "const") continue;
      if (!cleaned.empty()) cleaned.push_back(' ');
      cleaned += word;
    }
    for (const auto narrow : kNarrowTargets) {
      if (cleaned == narrow || cleaned == std::string("unsigned ") +
                                              std::string(narrow)) {
        return true;
      }
    }
    pos = close;
  }
  return false;
}

bool RuleEnabled(std::string_view rule,
                 const std::vector<std::string>& only_rules) {
  if (only_rules.empty()) return true;
  return std::find(only_rules.begin(), only_rules.end(), rule) !=
         only_rules.end();
}

bool LineAllows(const PreparedSource& source, std::size_t line_index,
                std::string_view rule) {
  const auto matches = [&](const std::vector<std::string>& allows) {
    return std::find(allows.begin(), allows.end(), rule) != allows.end();
  };
  if (matches(source.file_allows)) return true;
  if (matches(source.allows[line_index])) return true;
  return line_index > 0 && matches(source.allows[line_index - 1]);
}

/// header-hygiene: an include guard (#ifndef/#define pair) or #pragma
/// once must appear before any other preprocessor/code content.
bool HasIncludeGuard(const PreparedSource& source) {
  std::string guard_macro;
  for (const auto& line : source.lexed.code) {
    std::istringstream in{line};
    std::string tok;
    if (!(in >> tok)) continue;  // blank / comment-only line
    if (tok == "#pragma") {
      std::string what;
      if (in >> what && what == "once") return true;
      return false;  // some other pragma before any guard
    }
    if (tok == "#ifndef" && guard_macro.empty()) {
      in >> guard_macro;
      if (guard_macro.empty()) return false;
      continue;
    }
    if (tok == "#define" && !guard_macro.empty()) {
      std::string macro;
      in >> macro;
      return macro == guard_macro;
    }
    return false;  // real content before any guard
  }
  return false;  // empty file / no guard found
}

void CheckTokenRule(const std::string& path, const PreparedSource& source,
                    std::string_view rule, const TokenRule* tokens,
                    std::size_t n_tokens, std::string_view advice,
                    std::vector<Diagnostic>& out, int* suppressed) {
  for (std::size_t i = 0; i < source.lexed.code.size(); ++i) {
    for (std::size_t t = 0; t < n_tokens; ++t) {
      const auto& token = tokens[t];
      if (!MatchesToken(source.lexed.code[i], token.token,
                        token.member_call_exempt)) {
        continue;
      }
      if (LineAllows(source, i, rule)) {
        if (suppressed != nullptr) ++*suppressed;
        continue;
      }
      Diagnostic diagnostic;
      diagnostic.path = path;
      diagnostic.line = static_cast<int>(i) + 1;
      diagnostic.rule = std::string(rule);
      diagnostic.message =
          std::string(token.what) + " " + std::string(advice);
      out.push_back(std::move(diagnostic));
      break;  // one diagnostic per line per rule
    }
  }
}

/// Runs the per-line rules over one prepared file.
std::vector<Diagnostic> LintPrepared(
    const std::string& path, const PreparedSource& source,
    const std::vector<std::string>& only_rules, int* suppressed_by_allow) {
  std::vector<Diagnostic> diagnostics;
  using policy::Capability;

  if (RuleEnabled(rules::kBadAllow, only_rules)) {
    for (const auto& diagnostic : source.marker_diagnostics) {
      diagnostics.push_back(diagnostic);
    }
  }
  if (RuleEnabled(rules::kWallclock, only_rules) &&
      !policy::Grants(path, Capability::kClock)) {
    CheckTokenRule(path, source, rules::kWallclock, kWallclockTokens,
                   std::size(kWallclockTokens),
                   "reads a real clock; campaign code must use virtual time "
                   "(net/socket*, net/icmp* are exempt)",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kRng, only_rules) &&
      !policy::Grants(path, Capability::kRng)) {
    CheckTokenRule(path, source, rules::kRng, kRngTokens,
                   std::size(kRngTokens),
                   "is ambient randomness; use a seeded sleepwalk::Rng "
                   "(util/rng.h)",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kRawIo, only_rules) && policy::IsLibraryPath(path)) {
    CheckTokenRule(path, source, rules::kRawIo, kRawIoTokens,
                   std::size(kRawIoTokens),
                   "writes directly to a process stream; library code "
                   "reports through obs::Logger",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kRawFs, only_rules) && policy::IsLibraryPath(path) &&
      !policy::Grants(path, Capability::kFilesystem)) {
    CheckTokenRule(path, source, rules::kRawFs, kRawFsTokens,
                   std::size(kRawFsTokens),
                   "touches the filesystem directly; persist through "
                   "storage::Env (storage/file.h) so crash safety stays "
                   "provable (storage/ is exempt)",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kRawSocket, only_rules) &&
      policy::IsLibraryPath(path) &&
      !policy::Grants(path, Capability::kSocket)) {
    CheckTokenRule(path, source, rules::kRawSocket, kRawSocketTokens,
                   std::size(kRawSocketTokens),
                   "is a raw socket/epoll syscall; only net/socket*, "
                   "net/icmp*, rdns/dns_resolver and serve/ may touch "
                   "sockets",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kRawThread, only_rules) &&
      policy::IsLibraryPath(path) &&
      !policy::Grants(path, Capability::kThreads)) {
    CheckTokenRule(path, source, rules::kRawThread, kRawThreadTokens,
                   std::size(kRawThreadTokens),
                   "starts or names a raw thread; fan work out through "
                   "util::ParallelFor (util/parallel.h), the library's one "
                   "worker pool (util/parallel and serve/ are exempt)",
                   diagnostics, suppressed_by_allow);
  }
  if (RuleEnabled(rules::kNarrowing, only_rules) &&
      policy::IsSerializationPath(path)) {
    for (std::size_t i = 0; i < source.lexed.code.size(); ++i) {
      if (!IsNarrowingCast(source.lexed.code[i])) continue;
      if (LineAllows(source, i, rules::kNarrowing)) {
        if (suppressed_by_allow != nullptr) ++*suppressed_by_allow;
        continue;
      }
      Diagnostic diagnostic;
      diagnostic.path = path;
      diagnostic.line = static_cast<int>(i) + 1;
      diagnostic.rule = std::string(rules::kNarrowing);
      diagnostic.message =
          "raw static_cast to a narrower integer in a serialization file; "
          "use util::CheckedNarrow (util/narrow.h)";
      diagnostics.push_back(std::move(diagnostic));
    }
  }
  if (RuleEnabled(rules::kHygiene, only_rules) && IsHeaderPath(path)) {
    if (!HasIncludeGuard(source) && !source.lexed.code.empty() &&
        !LineAllows(source, 0, rules::kHygiene)) {
      Diagnostic diagnostic;
      diagnostic.path = path;
      diagnostic.line = 1;
      diagnostic.rule = std::string(rules::kHygiene);
      diagnostic.message =
          "header lacks an include guard (#ifndef/#define) or #pragma once";
      diagnostics.push_back(std::move(diagnostic));
    }
  }
  return diagnostics;
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

struct Baseline {
  /// Entries `path:rule` (whole file) and `path:line:rule`.
  std::unordered_set<std::string> file_rules;
  std::unordered_set<std::string> line_rules;
  bool error = false;
};

Baseline LoadBaseline(const std::string& path) {
  Baseline baseline;
  if (path.empty()) return baseline;
  std::ifstream in{path};
  if (!in) {
    baseline.error = true;
    return baseline;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    // path:line:rule has a digit-run between the last two colons.
    const std::size_t last = line.rfind(':');
    if (last == std::string::npos) continue;
    const std::size_t prev = line.rfind(':', last - 1);
    bool with_line = false;
    if (prev != std::string::npos && last > prev + 1) {
      with_line = std::all_of(line.begin() + static_cast<std::ptrdiff_t>(
                                                 prev + 1),
                              line.begin() + static_cast<std::ptrdiff_t>(last),
                              [](char c) { return c >= '0' && c <= '9'; });
    }
    if (with_line) {
      baseline.line_rules.insert(NormalizePath(line));
    } else {
      baseline.file_rules.insert(NormalizePath(line));
    }
  }
  return baseline;
}

bool BaselineMatches(const Baseline& baseline, const Diagnostic& diagnostic) {
  if (baseline.file_rules.count(diagnostic.path + ":" + diagnostic.rule) >
      0) {
    return true;
  }
  return baseline.line_rules.count(diagnostic.path + ":" +
                                   std::to_string(diagnostic.line) + ":" +
                                   diagnostic.rule) > 0;
}

// ---------------------------------------------------------------------------
// Walking
// ---------------------------------------------------------------------------

bool HasSourceExtension(const std::filesystem::path& path) {
  const auto ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

std::vector<std::string> CollectFiles(const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_directory(root, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(
               root, std::filesystem::directory_options::skip_permission_denied,
               ec);
           it != std::filesystem::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else {
      files.push_back(root);  // explicit file: scanned regardless of extension
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ---------------------------------------------------------------------------
// Output escaping
// ---------------------------------------------------------------------------

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      std::string(rules::kWallclock),     std::string(rules::kRng),
      std::string(rules::kRawIo),         std::string(rules::kRawFs),
      std::string(rules::kRawSocket),     std::string(rules::kRawThread),
      std::string(rules::kNarrowing),     std::string(rules::kHygiene),
      std::string(rules::kBadAllow),      std::string(rules::kLayering),
      std::string(rules::kIncludeCycle),  std::string(rules::kLockOrder),
      std::string(rules::kThrowingDtor),  std::string(rules::kThrowNoexcept),
      std::string(rules::kCrashContainment)};
  return kRules;
}

std::vector<Diagnostic> LintFile(const std::string& raw_path,
                                 std::string_view content,
                                 const std::vector<std::string>& only_rules,
                                 int* suppressed_by_allow) {
  const std::string path = NormalizePath(raw_path);
  const PreparedSource source = Prepare(path, content);
  return LintPrepared(path, source, only_rules, suppressed_by_allow);
}

Result Run(const Options& options) {
  Result result;
  const Baseline baseline = LoadBaseline(options.baseline_path);
  result.baseline_error = baseline.error;

  std::vector<FileFacts> facts_db;
  for (const auto& facts_path : options.facts_in) {
    std::ifstream in{facts_path, std::ios::binary};
    if (!in) {
      result.facts_error = true;
      result.facts_error_message = "cannot open facts file: " + facts_path;
      return result;
    }
    std::string error;
    if (!LoadFacts(in, facts_db, error)) {
      result.facts_error = true;
      result.facts_error_message = facts_path + ": " + error;
      return result;
    }
  }

  const bool need_facts =
      options.whole_program || !options.facts_out.empty();
  std::vector<Diagnostic> collected;

  for (const auto& file : CollectFiles(options.roots)) {
    std::ifstream in{file, std::ios::binary};
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    ++result.files_scanned;
    const std::string path = NormalizePath(file);
    const PreparedSource source = Prepare(path, content);
    std::vector<Diagnostic> file_diagnostics = LintPrepared(
        path, source, options.only_rules, &result.suppressed_by_allow);
    if (need_facts) {
      FileFacts facts = ExtractFacts(path, source.lexed, source.allows,
                                     source.file_allows);
      if (!options.facts_out.empty()) {
        // Shard mode: the per-line diagnostics ride in the dump so the
        // merge run reports everything in one place.
        for (auto& diagnostic : file_diagnostics) {
          facts.diagnostics.push_back(std::move(diagnostic));
        }
        file_diagnostics.clear();
      }
      facts_db.push_back(std::move(facts));
    }
    for (auto& diagnostic : file_diagnostics) {
      collected.push_back(std::move(diagnostic));
    }
  }

  if (!options.facts_out.empty()) {
    std::ofstream out{options.facts_out, std::ios::binary};
    if (!out) {
      result.facts_error = true;
      result.facts_error_message =
          "cannot write facts file: " + options.facts_out;
      return result;
    }
    DumpFacts(out, facts_db);
    return result;  // extraction shard: analysis happens at the merge
  }

  if (options.whole_program) {
    WholeProgramResult wp = AnalyzeWholeProgram(facts_db);
    result.lock_dot = std::move(wp.lock_dot);
    for (auto& diagnostic : wp.diagnostics) {
      if (RuleEnabled(diagnostic.rule, options.only_rules)) {
        collected.push_back(std::move(diagnostic));
      }
    }
  }

  std::sort(collected.begin(), collected.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
  for (auto& diagnostic : collected) {
    if (BaselineMatches(baseline, diagnostic)) {
      ++result.suppressed_by_baseline;
    } else {
      result.diagnostics.push_back(std::move(diagnostic));
    }
  }
  return result;
}

void PrintDiagnostics(std::ostream& out,
                      const std::vector<Diagnostic>& diagnostics) {
  for (const auto& diagnostic : diagnostics) {
    out << diagnostic.path << ':' << diagnostic.line << ": ["
        << diagnostic.rule << "] " << diagnostic.message << '\n';
  }
}

void RenderJson(std::ostream& out, const Result& result) {
  out << "{\"tool\":\"sleeplint\",\"filesScanned\":" << result.files_scanned
      << ",\"suppressedByAllow\":" << result.suppressed_by_allow
      << ",\"suppressedByBaseline\":" << result.suppressed_by_baseline
      << ",\"violations\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const auto& diagnostic = result.diagnostics[i];
    if (i > 0) out << ',';
    out << "{\"path\":\"" << JsonEscape(diagnostic.path)
        << "\",\"line\":" << diagnostic.line << ",\"rule\":\""
        << JsonEscape(diagnostic.rule) << "\",\"message\":\""
        << JsonEscape(diagnostic.message) << "\"}";
  }
  out << "]}\n";
}

void RenderSarif(std::ostream& out, const Result& result) {
  out << "{\"$schema\":"
         "\"https://json.schemastore.org/sarif-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"sleeplint\",\"informationUri\":"
         "\"https://example.invalid/sleepwalk/tools/sleeplint\","
         "\"rules\":[";
  const auto& all = AllRules();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"id\":\"" << JsonEscape(all[i]) << "\"}";
  }
  out << "]}},\"results\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const auto& diagnostic = result.diagnostics[i];
    if (i > 0) out << ',';
    out << "{\"ruleId\":\"" << JsonEscape(diagnostic.rule)
        << "\",\"level\":\"error\",\"message\":{\"text\":\""
        << JsonEscape(diagnostic.message)
        << "\"},\"locations\":[{\"physicalLocation\":{"
           "\"artifactLocation\":{\"uri\":\""
        << JsonEscape(diagnostic.path)
        << "\"},\"region\":{\"startLine\":"
        << (diagnostic.line > 0 ? diagnostic.line : 1) << "}}}]}";
  }
  out << "]}]}\n";
}

}  // namespace sleeplint
