#include "qa_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "qa_lint/internal.h"

namespace qa::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

const Rule kRules[] = {
    {"QA-ARCH-001", "illegal cross-layer include",
     "the dependency DAG in tools/arch_layers.txt is the architecture; an "
     "include edge the manifest does not allow couples layers that must "
     "stay separable (the market-protocol extraction depends on the "
     "market/allocation -> sim cut staying clean)"},
    {"QA-ARCH-002", "include cycle",
     "a cycle in the include graph means no layer order exists at all; "
     "every file in the cycle is one layer de facto and none of them can "
     "be built, tested or extracted alone"},
    {"QA-DET-001", "banned wall-clock / libc RNG call",
     "rand()/srand()/time()/clock() and the std::chrono clocks are "
     "nondeterministic global state; seeded runs draw randomness from "
     "util::Rng, and wall-clock reads go through util::MonotonicClock — the "
     "project's only whitelisted clock call site"},
    {"QA-DET-002", "RNG engine constructed outside src/util/rng.*",
     "std::mt19937 / std::random_device outside util::Rng forks the seed "
     "discipline and breaks byte-identical reruns"},
    {"QA-DET-003", "iteration over unordered container in a sim path",
     "unordered_map/set iteration order is implementation-defined; iterating "
     "one in src/sim, src/market or src/allocation breaks seeded "
     "reproducibility — use std::map or a sorted snapshot"},
    {"QA-DET-004", "wall-clock value reaches simulation state",
     "wall time is an observability side channel (DESIGN.md §9): a "
     "MonotonicClock reading may flow only into the QA_METRICS sidecar; "
     "any path into Federation/NodePool/allocator state or a non-sidecar "
     "call makes byte-identical seeded runs layout-dependent"},
    {"QA-HOT-001", "std::function in an event-queue consumer",
     "type-erased callbacks heap-allocate per event; the PR 1 hot-path "
     "rewrite exists precisely to keep EventQueue users allocation-free"},
    {"QA-NUM-001", "exact ==/!= on floating-point values",
     "bitwise float equality hides accumulated rounding; route the check "
     "through util::Near/RelDiff (src/util/mathutil.h) or suppress with a "
     "written reason"},
    {"QA-NUM-002", "float declaration in market/price code",
     "the paper's price dynamics are all double; a stray float silently "
     "halves the mantissa in the tatonnement update"},
    {"QA-OBS-001", "trace kind missing from src/obs/SCHEMA.md",
     "every kind EventKindName() can emit must be documented, or trace "
     "consumers cannot rely on the schema"},
    {"QA-OBS-002", "Recorder probe not gated by QA_OBS",
     "the recorder pointer is null when telemetry is off, so a bare "
     "recorder call dereferences a null pointer on every untraced run"},
    {"QA-OBS-003", "unregistered metric name at a MetricId() call site",
     "every metric a run can emit is declared once in "
     "src/obs/metrics/catalog.cc; a name looked up anywhere else that is "
     "not in the catalog is a typo MetricId() can only report at runtime"},
    {"QA-SHD-001", "mutable namespace-scope / static state in sharded code",
     "src/sim and src/allocation run on the sharded core's worker threads; "
     "a mutable global or static is shared across shards — a data race "
     "under threads and hidden cross-run state under any layout. Thread "
     "state through Federation/Allocator members instead"},
    {"QA-SHD-002", "mediator-lane state touched from shard-lane code",
     "code reachable from a shard-lane entry point (a RunWhileBefore drain "
     "callback, a chunked ParallelFor callback, DispatchShard) runs on "
     "worker threads between merge fences (DESIGN.md §8); touching "
     "mediator-lane members, shared accumulators or cross-shard NodePool "
     "state there is a data race under threads and a determinism leak "
     "single-threaded — route effects through Emit()/ScheduleNodeEvent()"},
    {"QA-SUP-001", "stale qa-lint suppression",
     "an allow() directive whose rule no longer fires on its line is dead "
     "weight that will silently swallow the next real finding there; "
     "delete it (emitted only under --stale-suppressions)"},
};

}  // namespace

namespace internal {

std::string Cat(std::initializer_list<std::string_view> parts) {
  size_t total = 0;
  for (std::string_view part : parts) total += part.size();
  std::string out;
  out.reserve(total);
  for (std::string_view part : parts) out.append(part);
  return out;
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Registers `// qa-lint: allow(QA-XXX-123[, ...])` directives. The
/// suppression covers the comment's own line and the line below it, so it
/// works both trailing a statement and on its own line above one. The
/// directive must open the comment (only '/', '*' and whitespace before
/// it) — a doc comment *mentioning* the syntax mid-sentence is not a
/// suppression, and must not look stale to the QA-SUP-001 audit.
void ParseAllowDirective(std::string_view comment, int line, LexedFile* out) {
  size_t at = comment.find("qa-lint:");
  if (at == std::string_view::npos) return;
  for (size_t i = 0; i < at; ++i) {
    char c = comment[i];
    if (c != '/' && c != '*' && c != ' ' && c != '\t') return;
  }
  size_t open = comment.find("allow(", at);
  if (open == std::string_view::npos) return;
  size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view list = comment.substr(open + 6, close - open - 6);
  std::string id;
  auto flush = [&] {
    if (!id.empty()) {
      out->allow[line].insert(id);
      out->allow[line + 1].insert(id);
      out->allow_sites.emplace_back(line, id);
      id.clear();
    }
  };
  for (char c : list) {
    if (c == ',' || c == ' ' || c == '\t') {
      flush();
    } else {
      id.push_back(c);
    }
  }
  flush();
}

}  // namespace

LexedFile Lex(std::string_view src) {
  LexedFile out;
  size_t i = 0;
  int line = 1;
  int col = 1;
  const size_t n = src.size();

  auto advance = [&](size_t count) {
    for (size_t j = 0; j < count && i < n; ++j) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto peek = [&](size_t off) -> char {
    return i + off < n ? src[i + off] : '\0';
  };

  bool at_line_start = true;  // only whitespace seen since the last newline
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      at_line_start = true;
      advance(1);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      advance(1);
      continue;
    }

    // Preprocessor directive: consumed whole (with \-continuations), only
    // #include targets are kept. Macro bodies therefore cannot trip rules.
    if (c == '#' && at_line_start) {
      int directive_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        text.push_back(src[i]);
        advance(1);
      }
      size_t inc = text.find("include");
      if (inc != std::string::npos) {
        size_t q1 = text.find_first_of("\"<", inc);
        if (q1 != std::string::npos) {
          char closer = text[q1] == '<' ? '>' : '"';
          size_t q2 = text.find(closer, q1 + 1);
          if (q2 != std::string::npos) {
            out.includes.push_back(
                {text.substr(q1 + 1, q2 - q1 - 1), directive_line});
          }
        }
      }
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && peek(1) == '/') {
      int comment_line = line;
      std::string text;
      while (i < n && src[i] != '\n') {
        text.push_back(src[i]);
        advance(1);
      }
      ParseAllowDirective(text, comment_line, &out);
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      std::string text;
      advance(2);
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        text.push_back(src[i]);
        advance(1);
      }
      int comment_end_line = line;
      advance(2);
      ParseAllowDirective(text, comment_end_line, &out);
      continue;
    }

    // String literal (with prefix and raw-string support): if the previous
    // token was an adjacent encoding prefix (R, u8, LR, ...), fold it in.
    if (c == '"') {
      bool raw = false;
      int tok_line = line;
      int tok_col = col;
      if (!out.tokens.empty()) {
        const Token& prev = out.tokens.back();
        static const std::set<std::string> kPrefixes = {
            "R", "u8", "u", "U", "L", "u8R", "uR", "UR", "LR"};
        if (prev.kind == TokKind::kIdent && prev.line == line &&
            prev.column + static_cast<int>(prev.text.size()) == col &&
            kPrefixes.count(prev.text) > 0) {
          raw = prev.text.back() == 'R';
          tok_line = prev.line;
          tok_col = prev.column;
          out.tokens.pop_back();
        }
      }
      std::string value;
      if (raw) {
        advance(1);  // opening quote
        std::string delim;
        while (i < n && src[i] != '(') {
          delim.push_back(src[i]);
          advance(1);
        }
        advance(1);  // '('
        std::string closer = Cat({")", delim, "\""});
        while (i < n && src.substr(i, closer.size()) != closer) {
          value.push_back(src[i]);
          advance(1);
        }
        advance(closer.size());
      } else {
        advance(1);
        while (i < n && src[i] != '"') {
          if (src[i] == '\\' && i + 1 < n) {
            value.push_back(src[i]);
            advance(1);
          }
          value.push_back(src[i]);
          advance(1);
        }
        advance(1);
      }
      out.tokens.push_back(
          {TokKind::kString, Cat({"\"", value, "\""}), value, tok_line, tok_col});
      continue;
    }
    if (c == '\'') {
      int tok_line = line;
      int tok_col = col;
      std::string text = "'";
      advance(1);
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) {
          text.push_back(src[i]);
          advance(1);
        }
        text.push_back(src[i]);
        advance(1);
      }
      text.push_back('\'');
      advance(1);
      out.tokens.push_back({TokKind::kChar, text, "", tok_line, tok_col});
      continue;
    }

    if (IsIdentStart(c)) {
      int tok_line = line;
      int tok_col = col;
      std::string text;
      while (i < n && IsIdentChar(src[i])) {
        text.push_back(src[i]);
        advance(1);
      }
      out.tokens.push_back({TokKind::kIdent, text, "", tok_line, tok_col});
      continue;
    }

    // pp-number: digits, digit separators, '.', exponents with signs.
    if (IsDigit(c) || (c == '.' && IsDigit(peek(1)))) {
      int tok_line = line;
      int tok_col = col;
      std::string text;
      while (i < n) {
        char d = src[i];
        if (IsIdentChar(d) || d == '.') {
          text.push_back(d);
          advance(1);
          char last = text.back();
          if ((last == 'e' || last == 'E' || last == 'p' || last == 'P') &&
              (peek(0) == '+' || peek(0) == '-') &&
              !(text.size() >= 2 && text[1] == 'x')) {
            text.push_back(src[i]);
            advance(1);
          }
          continue;
        }
        if (d == '\'' && IsIdentChar(peek(1))) {  // digit separator
          text.push_back(d);
          advance(1);
          continue;
        }
        break;
      }
      out.tokens.push_back({TokKind::kNumber, text, "", tok_line, tok_col});
      continue;
    }

    // Punctuation: keep the few multi-char operators the rules look at as
    // single tokens; everything else is emitted one character at a time.
    {
      int tok_line = line;
      int tok_col = col;
      std::string text(1, c);
      char next = peek(1);
      if ((c == '=' && next == '=') || (c == '!' && next == '=') ||
          (c == '-' && next == '>') || (c == ':' && next == ':') ||
          (c == '&' && next == '&') || (c == '|' && next == '|') ||
          (c == '<' && next == '<')) {
        text.push_back(next);
        advance(2);
      } else {
        advance(1);
      }
      out.tokens.push_back({TokKind::kPunct, text, "", tok_line, tok_col});
      continue;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

std::string NormalizePath(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  while (p.rfind("./", 0) == 0) p.erase(0, 2);
  return p;
}

bool PathInDir(const std::string& path, std::string_view dir) {
  std::string prefix = Cat({dir, "/"});
  if (path.rfind(prefix, 0) == 0) return true;
  return path.find(Cat({"/", prefix})) != std::string::npos;
}

bool PathIs(const std::string& path, std::string_view rel) {
  if (path == rel) return true;
  std::string suffix = Cat({"/", rel});
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool InSimPaths(const std::string& path) {
  return PathInDir(path, "src/sim") || PathInDir(path, "src/market") ||
         PathInDir(path, "src/allocation");
}

std::string RelKey(const std::string& path) {
  std::string p = NormalizePath(path);
  static const char* kRoots[] = {"src", "tools", "bench", "tests", "examples"};
  for (const char* root : kRoots) {
    std::string prefix = Cat({root, "/"});
    if (p.rfind(prefix, 0) == 0) return p;
  }
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    size_t at = p.rfind(Cat({"/", root, "/"}));
    if (at != std::string::npos && (best == std::string::npos || at > best)) {
      best = at;
    }
  }
  return best == std::string::npos ? p : p.substr(best + 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool RuleSelected(const Options& options, std::string_view rule) {
  return options.only_rules.empty() ||
         std::find(options.only_rules.begin(), options.only_rules.end(),
                   rule) != options.only_rules.end();
}

bool Suppressed(const LexedFile& lexed, const std::string& path, int line,
                const std::string& rule, UsedAllows* used) {
  auto it = lexed.allow.find(line);
  if (it == lexed.allow.end() || it->second.count(rule) == 0) return false;
  if (used != nullptr) {
    // The directive granting this sits either on the finding's own line
    // or on the line above; mark both candidate sites live.
    (*used)[path].insert({line, rule});
    (*used)[path].insert({line - 1, rule});
  }
  return true;
}

}  // namespace internal

namespace {

using internal::Cat;
using internal::LexedFile;
using internal::PathInDir;
using internal::PathIs;
using internal::InSimPaths;
using internal::TokKind;
using internal::Token;

bool IsFloatLiteral(const std::string& text) {
  bool hex = text.size() > 1 && text[0] == '0' &&
             (text[1] == 'x' || text[1] == 'X');
  if (hex) return text.find('p') != std::string::npos ||
                  text.find('P') != std::string::npos;
  return text.find('.') != std::string::npos ||
         text.find('e') != std::string::npos ||
         text.find('E') != std::string::npos ||
         text.back() == 'f' || text.back() == 'F';
}

// ---------------------------------------------------------------------------
// Rule engine (per-file rules; the cross-file passes live in project.cc)
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string path, const LexedFile& lexed, const Options& options,
         internal::UsedAllows* used)
      : path_(std::move(path)), lexed_(lexed), options_(options), used_(used) {}

  std::vector<Finding> Run() {
    CollectDeclarations();
    RuleBannedCalls();
    RuleRngOutsideUtil();
    RuleUnorderedIteration();
    RuleFloatEquality();
    RuleFloatDeclaration();
    RuleSchemaDoc();
    RuleUngatedProbe();
    RuleMetricCatalog();
    RuleStdFunctionInQueueConsumer();
    RuleMutableSharedState();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.column, a.rule) <
                       std::tie(b.line, b.column, b.rule);
              });
    return std::move(findings_);
  }

 private:
  const std::vector<Token>& toks() const { return lexed_.tokens; }

  const Token* At(size_t i) const {
    return i < toks().size() ? &toks()[i] : nullptr;
  }
  bool TextAt(size_t i, std::string_view text) const {
    const Token* t = At(i);
    return t != nullptr && t->text == text;
  }

  void Report(const Token& at, std::string_view rule, std::string message) {
    if (!internal::RuleSelected(options_, rule)) return;
    if (internal::Suppressed(lexed_, path_, at.line, std::string(rule),
                             used_)) {
      return;
    }
    findings_.push_back(
        {path_, at.line, at.column, std::string(rule), std::move(message), ""});
  }

  /// One pass collecting (a) identifiers declared with an unordered
  /// container type and (b) identifiers declared double/float. Lexical
  /// heuristics: `TYPE [<...>] [const|*|&|&&] NAME` within this file.
  void CollectDeclarations() {
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind != TokKind::kIdent) continue;
      if (kUnordered.count(t.text) > 0) {
        size_t j = i + 1;
        if (TextAt(j, "<")) {
          int depth = 0;
          for (; j < toks().size(); ++j) {
            if (toks()[j].text == "<") ++depth;
            if (toks()[j].text == ">" && --depth == 0) {
              ++j;
              break;
            }
          }
        }
        while (j < toks().size() &&
               (toks()[j].text == "const" || toks()[j].text == "*" ||
                toks()[j].text == "&" || toks()[j].text == "&&")) {
          ++j;
        }
        const Token* name = At(j);
        if (name != nullptr && name->kind == TokKind::kIdent) {
          unordered_names_.insert(name->text);
        }
      }
      if (t.text == "double" || t.text == "float") {
        // Ignore casts / template arguments: `static_cast<double>(x)`.
        size_t j = i + 1;
        while (j < toks().size() &&
               (toks()[j].text == "const" || toks()[j].text == "*" ||
                toks()[j].text == "&" || toks()[j].text == "&&")) {
          ++j;
        }
        const Token* name = At(j);
        // `double operator[](...)` declares an operator, not a variable
        // named "operator" — letting it in would flag every `operator==`.
        if (name != nullptr && name->kind == TokKind::kIdent &&
            name->text != "operator") {
          double_names_.insert(name->text);
        }
      }
    }
  }

  // QA-DET-001 — calls into libc randomness / wall clocks.
  void RuleBannedCalls() {
    // The whitelisted call site itself: MonotonicClock wraps the chrono
    // clocks and (for CPU-time A/B ratios) clock_gettime.
    if (PathIs(path_, "src/util/monotonic_clock.h") ||
        PathIs(path_, "src/util/monotonic_clock.cc")) {
      return;
    }
    static const std::set<std::string> kBanned = {
        "rand",   "srand", "drand48", "lrand48",      "mrand48",
        "random", "time",  "clock",   "gettimeofday", "clock_gettime"};
    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
      if (!TextAt(i + 1, "(")) continue;
      const Token* prev = i > 0 ? At(i - 1) : nullptr;
      if (prev != nullptr) {
        // Member access (`x.time(...)`) is someone else's method; an
        // identifier before it (`VTime time(...)`) is a declaration —
        // unless that "identifier" is a statement keyword (`return
        // rand()`), which cannot introduce a declarator.
        static const std::set<std::string> kStmtKeywords = {
            "return", "co_return", "co_yield", "co_await",
            "throw",  "else",      "do",       "case"};
        if (prev->text == "." || prev->text == "->" ||
            (prev->kind == TokKind::kIdent &&
             kStmtKeywords.count(prev->text) == 0)) {
          continue;
        }
        // Qualified call: only the std:: / :: spellings are the libc ones.
        if (prev->text == "::" && i >= 2) {
          const Token* qual = At(i - 2);
          if (qual != nullptr && qual->kind == TokKind::kIdent &&
              qual->text != "std") {
            continue;
          }
        }
      }
      Report(t, "QA-DET-001",
             Cat({"call to '", t.text,
                  "(' — unseeded global randomness/clock"}));
    }
    // std::chrono clock types: any mention outside util::MonotonicClock's
    // own implementation (excluded above) is a wall-clock read bypassing
    // the whitelisted call site (DESIGN.md §9 — wall time is a side
    // channel, never sim input).
    static const std::set<std::string> kChronoClocks = {
        "steady_clock", "high_resolution_clock", "system_clock"};
    for (const Token& t : toks()) {
      if (t.kind == TokKind::kIdent && kChronoClocks.count(t.text) > 0) {
        Report(t, "QA-DET-001",
               Cat({"'", t.text,
                    "' outside src/util/monotonic_clock.* — wall-clock "
                    "reads go through util::MonotonicClock"}));
      }
    }
  }

  // QA-DET-002 — RNG engine types outside src/util/rng.*.
  void RuleRngOutsideUtil() {
    if (PathIs(path_, "src/util/rng.h") || PathIs(path_, "src/util/rng.cc")) {
      return;
    }
    static const std::set<std::string> kEngines = {
        "mt19937",      "mt19937_64",           "minstd_rand",
        "minstd_rand0", "default_random_engine", "random_device",
        "knuth_b",      "ranlux24",             "ranlux48"};
    for (const Token& t : toks()) {
      if (t.kind == TokKind::kIdent && kEngines.count(t.text) > 0) {
        Report(t, "QA-DET-002",
               Cat({"'", t.text, "' outside src/util/rng.* — use util::Rng"}));
      }
    }
  }

  // QA-DET-003 — iterating an unordered container in a sim path.
  void RuleUnorderedIteration() {
    if (!InSimPaths(path_)) return;
    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      // Range-for whose range expression mentions an unordered name.
      if (t.kind == TokKind::kIdent && t.text == "for" && TextAt(i + 1, "(")) {
        int depth = 0;
        bool past_colon = false;
        for (size_t j = i + 1; j < toks().size(); ++j) {
          const Token& u = toks()[j];
          if (u.text == "(") ++depth;
          if (u.text == ")" && --depth == 0) break;
          if (depth == 1 && u.text == ":") past_colon = true;
          if (past_colon && u.kind == TokKind::kIdent &&
              unordered_names_.count(u.text) > 0) {
            Report(t, "QA-DET-003",
                   Cat({"range-for over unordered container '", u.text,
                        "'"}));
            break;
          }
        }
      }
      // Explicit iterator walk: NAME.begin() / NAME.cbegin().
      if (t.kind == TokKind::kIdent && unordered_names_.count(t.text) > 0 &&
          (TextAt(i + 1, ".") || TextAt(i + 1, "->")) && At(i + 2) != nullptr &&
          (toks()[i + 2].text == "begin" || toks()[i + 2].text == "cbegin" ||
           toks()[i + 2].text == "rbegin") &&
          TextAt(i + 3, "(")) {
        Report(t, "QA-DET-003",
               Cat({"iterator walk over unordered container '", t.text,
                    "'"}));
      }
    }
  }

  /// Resolves the operand token adjacent to a comparison: skips a unary
  /// sign forward, or a balanced )/] group backward to the identifier
  /// before it (`prices_[k] == x` resolves to `prices_`).
  const Token* OperandRight(size_t op) const {
    const Token* t = At(op + 1);
    if (t != nullptr && (t->text == "-" || t->text == "+")) t = At(op + 2);
    return t;
  }
  const Token* OperandLeft(size_t op) const {
    if (op == 0) return nullptr;
    size_t j = op - 1;
    const Token& t = toks()[j];
    if (t.text == ")" || t.text == "]") {
      const std::string closer = t.text;
      const std::string opener = closer == ")" ? "(" : "[";
      int depth = 0;
      while (true) {
        if (toks()[j].text == closer) ++depth;
        if (toks()[j].text == opener && --depth == 0) break;
        if (j == 0) return nullptr;
        --j;
      }
      if (j == 0) return nullptr;
      --j;
    }
    return &toks()[j];
  }

  bool IsFloatyOperand(const Token* t) const {
    if (t == nullptr) return false;
    if (t->kind == TokKind::kNumber) return IsFloatLiteral(t->text);
    return t->kind == TokKind::kIdent && double_names_.count(t->text) > 0;
  }

  // QA-NUM-001 — exact float equality outside mathutil and tests.
  void RuleFloatEquality() {
    if (PathInDir(path_, "tests") || PathIs(path_, "src/util/mathutil.h") ||
        PathIs(path_, "src/util/mathutil.cc")) {
      return;
    }
    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.text != "==" && t.text != "!=") continue;
      if (IsFloatyOperand(OperandLeft(i)) ||
          IsFloatyOperand(OperandRight(i))) {
        Report(t, "QA-NUM-001",
               Cat({"'", t.text, "' between floating-point values"}));
      }
    }
  }

  // QA-NUM-002 — `float` in market/price code.
  void RuleFloatDeclaration() {
    if (!InSimPaths(path_)) return;
    for (const Token& t : toks()) {
      if (t.kind == TokKind::kIdent && t.text == "float") {
        Report(t, "QA-NUM-002", "'float' in price code — use double");
      }
    }
  }

  // QA-OBS-001 — every EventKindName() kind is documented in SCHEMA.md.
  void RuleSchemaDoc() {
    if (!PathIs(path_, "src/obs/trace_schema.cc") || !options_.schema_doc) {
      return;
    }
    const std::string& doc = *options_.schema_doc;
    size_t body_start = 0;
    for (size_t i = 0; i + 1 < toks().size(); ++i) {
      if (toks()[i].kind == TokKind::kIdent &&
          toks()[i].text == "EventKindName" && TextAt(i + 1, "(")) {
        body_start = i;
        break;
      }
    }
    if (body_start == 0) return;
    int brace_depth = 0;
    bool entered = false;
    for (size_t i = body_start; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.text == "{") {
        ++brace_depth;
        entered = true;
      }
      if (t.text == "}" && --brace_depth == 0 && entered) break;
      if (entered && t.kind == TokKind::kIdent && t.text == "return" &&
          At(i + 1) != nullptr && toks()[i + 1].kind == TokKind::kString) {
        const std::string& kind = toks()[i + 1].value;
        if (kind == "?") continue;
        if (doc.find(Cat({"`", kind, "`"})) == std::string::npos) {
          Report(toks()[i + 1], "QA-OBS-001",
                 Cat({"trace kind \"", kind,
                      "\" is not documented in SCHEMA.md"}));
        }
      }
    }
  }

  // QA-OBS-002 — recorder probes must sit inside a QA_OBS(...) gate.
  void RuleUngatedProbe() {
    if (!InSimPaths(path_) && !PathInDir(path_, "src/exec")) return;
    static const std::set<std::string> kProbeMethods = {"Record",
                                                        "RecordSnapshot"};
    std::vector<bool> guarded = {false};
    bool stmt_has_gate = false;
    for (size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind == TokKind::kIdent && t.text == "QA_OBS") {
        stmt_has_gate = true;
        continue;
      }
      if (t.text == "{") {
        guarded.push_back(guarded.back() || stmt_has_gate);
        stmt_has_gate = false;
        continue;
      }
      if (t.text == "}") {
        if (guarded.size() > 1) guarded.pop_back();
        stmt_has_gate = false;
        continue;
      }
      if (t.text == ";") {
        stmt_has_gate = false;
        continue;
      }
      if (t.kind == TokKind::kIdent && (TextAt(i + 1, "->") ||
                                        TextAt(i + 1, ".")) &&
          At(i + 2) != nullptr && kProbeMethods.count(toks()[i + 2].text) > 0 &&
          TextAt(i + 3, "(")) {
        std::string lowered = t.text;
        std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lowered.find("recorder") == std::string::npos) continue;
        if (!guarded.back() && !stmt_has_gate) {
          Report(toks()[i + 2], "QA-OBS-002",
                 Cat({"'", t.text, toks()[i + 1].text, toks()[i + 2].text,
                      "(' outside a QA_OBS(...) gate"}));
        }
      }
    }
  }

  // QA-OBS-003 — a metric-name string literal passed to MetricId() must be
  // registered in src/obs/metrics/catalog.cc (whose full text arrives via
  // Options::metrics_catalog; every registered name appears there quoted).
  void RuleMetricCatalog() {
    if (!options_.metrics_catalog) return;
    if (PathIs(path_, "src/obs/metrics/catalog.cc")) return;
    const std::string& catalog = *options_.metrics_catalog;
    for (size_t i = 0; i + 2 < toks().size(); ++i) {
      if (toks()[i].kind != TokKind::kIdent ||
          toks()[i].text != "MetricId" || !TextAt(i + 1, "(")) {
        continue;
      }
      const Token& arg = toks()[i + 2];
      if (arg.kind != TokKind::kString) continue;  // variable names resolve
                                                   // at runtime; only
                                                   // literals are checkable
      if (catalog.find(Cat({"\"", arg.value, "\""})) == std::string::npos) {
        Report(arg, "QA-OBS-003",
               Cat({"metric name \"", arg.value,
                    "\" is not registered in src/obs/metrics/catalog.cc"}));
      }
    }
  }

  // QA-HOT-001 — std::function in files that include sim/event_queue.h.
  void RuleStdFunctionInQueueConsumer() {
    bool consumer = false;
    for (const internal::IncludeDirective& inc : lexed_.includes) {
      if (inc.target.size() >= 13 &&
          inc.target.compare(inc.target.size() - 13, 13, "event_queue.h") ==
              0) {
        consumer = true;
        break;
      }
    }
    if (!consumer || PathIs(path_, "src/sim/event_queue.h")) return;
    for (size_t i = 0; i + 2 < toks().size(); ++i) {
      if (toks()[i].kind == TokKind::kIdent && toks()[i].text == "std" &&
          TextAt(i + 1, "::") && toks()[i + 2].text == "function") {
        Report(toks()[i + 2], "QA-HOT-001",
               "std::function in an event-queue consumer (heap-allocating "
               "callback on the hot path)");
      }
    }
  }

  // QA-SHD-001 — mutable namespace-scope or static state in the paths the
  // sharded simulator core runs on worker threads. Lexical heuristics, one
  // statement at a time:
  //  - a `static` / `thread_local` declaration anywhere (function-local and
  //    class statics included) that is not const/constexpr/constinit and
  //    not a function (a '(' before the initializer marks a declarator);
  //  - any declaration at pure namespace scope (every enclosing brace is a
  //    namespace) under the same mutability test.
  // `static_cast` & co. are single identifier tokens, so they never match
  // the `static` keyword. Suppress genuinely-safe sites inline with
  // `// qa-lint: allow(QA-SHD-001)`.
  void RuleMutableSharedState() {
    if (!PathInDir(path_, "src/sim") && !PathInDir(path_, "src/allocation")) {
      return;
    }
    enum class Scope { kNamespace, kClass, kBlock };
    std::vector<Scope> scopes;  // empty == file scope, itself namespace-like
    auto all_namespace = [&scopes] {
      for (Scope s : scopes) {
        if (s != Scope::kNamespace) return false;
      }
      return true;
    };
    static const std::set<std::string> kImmutable = {"const", "constexpr",
                                                     "constinit"};
    static const std::set<std::string> kNotADeclaration = {
        "using", "typedef", "template", "friend", "operator",
        "extern", "namespace", "static_assert", "return", "goto"};
    static const std::set<std::string> kClassKeys = {"class", "struct",
                                                     "union", "enum"};

    size_t head = 0;  // first token of the current statement
    for (size_t i = 0; i < toks().size(); ++i) {
      const std::string& text = toks()[i].text;
      if (text != ";" && text != "{" && text != "}") continue;

      if (text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        head = i + 1;
        continue;
      }

      // Examine the statement head..i-1, up to its `=` initializer if any
      // (a '(' inside an initializer expression must not read as a
      // function declarator).
      const bool at_namespace_scope = all_namespace();
      size_t limit = i;
      for (size_t j = head; j < i; ++j) {
        if (toks()[j].text == "=") {
          limit = j;
          break;
        }
      }
      bool is_function = false, has_static = false, is_immutable = false;
      bool skip = false;
      Scope brace_kind = Scope::kBlock;
      const Token* name = nullptr;
      size_t ident_count = 0;
      for (size_t j = head; j < limit; ++j) {
        const Token& t = toks()[j];
        if (t.text == "(") {
          is_function = true;  // declarator or control flow, not a variable
          break;
        }
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "namespace") brace_kind = Scope::kNamespace;
        if (kClassKeys.count(t.text) > 0) brace_kind = Scope::kClass;
        if (t.text == "static" || t.text == "thread_local") has_static = true;
        if (kImmutable.count(t.text) > 0) is_immutable = true;
        if (kNotADeclaration.count(t.text) > 0 ||
            brace_kind != Scope::kBlock) {
          skip = true;
          break;
        }
        ++ident_count;
        name = &t;
      }

      if (text == "{") {
        scopes.push_back(is_function ? Scope::kBlock : brace_kind);
      }
      head = i + 1;

      if (skip || is_function || is_immutable || name == nullptr) continue;
      if (has_static) {
        // Function-local and class statics included: any mutable static
        // is cross-shard shared state.
        Report(*name, "QA-SHD-001",
               Cat({"mutable static state '", name->text,
                    "' — shared across shards/threads"}));
      } else if (at_namespace_scope && ident_count >= 2) {
        // A declaration needs a type before the name; a lone identifier is
        // an expression statement or macro invocation, not a variable.
        Report(*name, "QA-SHD-001",
               Cat({"mutable namespace-scope state '", name->text,
                    "' — shared across shards/threads"}));
      }
    }
  }

  std::string path_;
  const LexedFile& lexed_;
  const Options& options_;
  internal::UsedAllows* used_;
  std::set<std::string> unordered_names_;
  std::set<std::string> double_names_;
  std::vector<Finding> findings_;
};

bool IsCxxSource(const std::filesystem::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp";
}

bool SkipDirectory(const std::filesystem::path& p) {
  std::string name = p.filename().string();
  return name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.') ||
         name == "third_party";
}

}  // namespace

namespace internal {

void FillSnippets(std::string_view content, std::vector<Finding>* findings) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    lines.push_back(content.substr(start, end - start));
    if (end == content.size()) break;
    start = end + 1;
  }
  for (Finding& f : *findings) {
    if (!f.snippet.empty()) continue;
    if (f.line >= 1 && static_cast<size_t>(f.line) <= lines.size()) {
      std::string_view text = lines[static_cast<size_t>(f.line) - 1];
      while (!text.empty() && (text.back() == '\r' || text.back() == ' ' ||
                               text.back() == '\t')) {
        text.remove_suffix(1);
      }
      f.snippet = std::string(text);
    }
  }
}

std::vector<Finding> LintLexed(const std::string& path, const LexedFile& lexed,
                               const Options& options, UsedAllows* used) {
  Linter linter(NormalizePath(path), lexed, options, used);
  return linter.Run();
}

}  // namespace internal

const std::vector<Rule>& AllRules() {
  static const std::vector<Rule> rules(std::begin(kRules), std::end(kRules));
  return rules;
}

const char* RuleRationale(std::string_view rule_id) {
  for (const Rule& rule : kRules) {
    if (rule_id == rule.id) return rule.rationale;
  }
  return nullptr;
}

std::vector<Finding> LintFile(std::string_view path, std::string_view content,
                              const Options& options) {
  internal::LexedFile lexed = internal::Lex(content);
  std::vector<Finding> findings = internal::LintLexed(
      internal::NormalizePath(path), lexed, options, nullptr);
  internal::FillSnippets(content, &findings);
  return findings;
}

std::vector<SourceFile> LoadFiles(const std::vector<std::string>& paths,
                                  std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  auto note_error = [&](const std::string& message) {
    if (errors != nullptr) errors->push_back(message);
  };
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    fs::file_status status = fs::status(path, ec);
    if (ec) {
      note_error(Cat({path, ": ", ec.message()}));
      continue;
    }
    if (fs::is_directory(status)) {
      fs::recursive_directory_iterator it(path, ec);
      fs::recursive_directory_iterator end;
      for (; it != end; it.increment(ec)) {
        if (ec) {
          note_error(Cat({path, ": ", ec.message()}));
          break;
        }
        if (it->is_directory() && SkipDirectory(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsCxxSource(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(status)) {
      files.push_back(path);
    } else {
      note_error(Cat({path, ": not a file or directory"}));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> out;
  out.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      note_error(Cat({file, ": cannot open"}));
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out.push_back({file, buffer.str()});
  }
  return out;
}

namespace {

/// Fills Options side inputs (metrics catalog from the in-memory file
/// set; SCHEMA.md from disk next to trace_schema.cc) when unset.
void FillSideInputs(const std::vector<SourceFile>& files, Options* options,
                    std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  for (const SourceFile& file : files) {
    std::string norm = internal::NormalizePath(file.path);
    if (!options->metrics_catalog &&
        PathIs(norm, "src/obs/metrics/catalog.cc")) {
      options->metrics_catalog = file.content;
    }
    if (!options->schema_doc && PathIs(norm, "src/obs/trace_schema.cc")) {
      fs::path doc = fs::path(file.path).parent_path() / "SCHEMA.md";
      std::ifstream doc_in(doc, std::ios::binary);
      if (doc_in) {
        std::ostringstream doc_buffer;
        doc_buffer << doc_in.rdbuf();
        options->schema_doc = doc_buffer.str();
      } else if (errors != nullptr) {
        errors->push_back(doc.generic_string() +
                          ": cannot open (needed for QA-OBS-001)");
      }
    }
  }
}

}  // namespace

std::vector<Finding> AnalyzePaths(const std::vector<std::string>& paths,
                                  const Options& options,
                                  const ProjectOptions& project,
                                  std::vector<std::string>* errors) {
  std::vector<SourceFile> files = LoadFiles(paths, errors);
  Options shared = options;
  FillSideInputs(files, &shared, errors);
  ProjectOptions proj = project;
  if (!proj.layer_manifest) {
    std::ifstream manifest_in(proj.manifest_path, std::ios::binary);
    if (manifest_in) {
      std::ostringstream buffer;
      buffer << manifest_in.rdbuf();
      proj.layer_manifest = buffer.str();
    }
    // No manifest on disk => the layering pass is skipped, same as an
    // unset schema_doc skips QA-OBS-001. CI always has one.
  }
  return AnalyzeProject(files, shared, proj, errors);
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const Options& options,
                               std::vector<std::string>* errors) {
  std::vector<SourceFile> files = LoadFiles(paths, errors);
  Options shared = options;
  FillSideInputs(files, &shared, errors);
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    std::vector<Finding> file_findings =
        LintFile(file.path, file.content, shared);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.column, a.rule) <
                     std::tie(b.file, b.line, b.column, b.rule);
            });
  return findings;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ":" << f.column << ": " << f.rule
        << ": " << f.message << "\n";
    const char* why = RuleRationale(f.rule);
    if (why != nullptr) out << "    why: " << why << "\n";
    if (!f.snippet.empty()) {
      std::string text = f.snippet;
      std::replace(text.begin(), text.end(), '\t', ' ');
      std::string num = std::to_string(f.line);
      std::string pad(num.size(), ' ');
      out << "  " << num << " | " << text << "\n";
      if (f.column >= 1 &&
          static_cast<size_t>(f.column) <= text.size() + 1) {
        out << "  " << pad << " | " << std::string(
                   static_cast<size_t>(f.column - 1), ' ')
            << "^\n";
      }
    }
  }
  return out.str();
}

std::string FormatJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "\n  {\"file\":\"" << internal::JsonEscape(f.file)
        << "\",\"line\":" << f.line << ",\"column\":" << f.column
        << ",\"rule\":\"" << f.rule << "\",\"message\":\""
        << internal::JsonEscape(f.message) << "\",\"snippet\":\""
        << internal::JsonEscape(f.snippet) << "\"}";
  }
  if (!findings.empty()) out << "\n";
  out << "]\n";
  return out.str();
}

}  // namespace qa::lint
