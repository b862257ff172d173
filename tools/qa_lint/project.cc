// Cross-file passes of qa_lint: the project include graph and layer DAG
// (QA-ARCH-001/002), a function/lambda index with an approximate call
// graph, wall-clock taint tracking into sim state (QA-DET-004),
// shard-lane safety (QA-SHD-002), and the stale-suppression audit
// (QA-SUP-001). Everything works on the same token stream as the
// per-file rules — no libclang; name+scope resolution is conservative
// on overloads (all same-name candidates are considered reachable).

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "qa_lint/internal.h"
#include "qa_lint/lint.h"

namespace qa::lint {
namespace {

using internal::Cat;
using internal::LexedFile;
using internal::TokKind;
using internal::Token;

constexpr size_t kNoFunc = static_cast<size_t>(-1);

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string JoinChain(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",     "for",    "while",  "switch",        "catch",
      "return", "sizeof", "alignof", "static_assert", "assert",
      "do",     "else",   "new",    "delete",        "throw"};
  return kSet;
}

// ---------------------------------------------------------------------------
// Layer manifest (tools/arch_layers.txt)
// ---------------------------------------------------------------------------

struct Manifest {
  std::vector<std::string> order;                        // declaration order
  std::map<std::string, std::vector<std::string>> dirs;  // layer -> owned dirs
  std::map<std::string, std::set<std::string>> deps;     // layer -> may include
};

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool ParseManifest(const std::string& text, const std::string& origin,
                   Manifest* out, std::vector<std::string>* errors) {
  bool ok = true;
  auto fail = [&](int line, std::string_view what) {
    ok = false;
    if (errors != nullptr) {
      errors->push_back(
          Cat({origin, ":", std::to_string(line), ": ", what}));
    }
  };
  size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::vector<std::string> words = SplitWords(line);
    if (words.empty()) continue;
    if (words.size() < 2 || (words[0] != "layer" && words[0] != "dep")) {
      fail(lineno, "expected 'layer NAME: DIR...' or 'dep NAME: LAYER...'");
      continue;
    }
    std::string name = words[1];
    size_t rest = 2;
    if (!name.empty() && name.back() == ':') {
      name.pop_back();
    } else if (rest < words.size() && words[rest] == ":") {
      ++rest;
    } else {
      fail(lineno, "missing ':' after the layer name");
      continue;
    }
    std::vector<std::string> operands(words.begin() + static_cast<long>(rest),
                                      words.end());
    if (name.empty() || operands.empty()) {
      fail(lineno, "empty layer name or operand list");
      continue;
    }
    if (words[0] == "layer") {
      if (out->dirs.count(name) > 0) {
        fail(lineno, Cat({"layer '", name, "' declared twice"}));
        continue;
      }
      out->order.push_back(name);
      for (std::string& d : operands) {
        while (!d.empty() && d.back() == '/') d.pop_back();
      }
      out->dirs[name] = std::move(operands);
    } else {
      for (const std::string& dep : operands) {
        out->deps[name].insert(dep);
      }
    }
  }
  // Every dep line must reference declared layers on both sides.
  for (const auto& [name, targets] : out->deps) {
    if (out->dirs.count(name) == 0) {
      fail(0, Cat({"dep line for undeclared layer '", name, "'"}));
    }
    for (const std::string& dep : targets) {
      if (out->dirs.count(dep) == 0) {
        fail(0, Cat({"layer '", name, "' depends on undeclared layer '", dep,
                     "'"}));
      }
    }
  }
  return ok;
}

/// The layer owning `key` (repo-relative path), by longest directory
/// prefix, or nullptr when no layer claims it.
const std::string* LayerOf(const Manifest& mf, const std::string& key) {
  const std::string* best = nullptr;
  size_t best_len = 0;
  for (const std::string& name : mf.order) {
    for (const std::string& dir : mf.dirs.at(name)) {
      bool owns = key.size() > dir.size() + 1 &&
                  key.compare(0, dir.size(), dir) == 0 &&
                  key[dir.size()] == '/';
      if (owns && dir.size() >= best_len) {
        best = &name;
        best_len = dir.size();
      }
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Include resolution
// ---------------------------------------------------------------------------

std::string DirName(const std::string& key) {
  size_t pos = key.rfind('/');
  return pos == std::string::npos ? std::string() : key.substr(0, pos);
}

/// Collapses "./" and "a/.." segments lexically.
std::string LexicalNormalize(const std::string& p) {
  std::vector<std::string> parts;
  std::string cur;
  for (size_t i = 0; i <= p.size(); ++i) {
    if (i == p.size() || p[i] == '/') {
      if (cur == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!cur.empty() && cur != ".") {
        parts.push_back(cur);
      }
      cur.clear();
    } else {
      cur.push_back(p[i]);
    }
  }
  return JoinChain(parts, "/");
}

/// Resolves an include target against the project file set the way the
/// build does: sibling-relative first, then the src/ and tools/ include
/// roots, then verbatim from the repo root. Empty when the target is a
/// system header or otherwise outside the linted set.
std::string ResolveInclude(const std::set<std::string>& keys,
                           const std::string& includer,
                           const std::string& target) {
  std::vector<std::string> cands;
  std::string dir = DirName(includer);
  if (!dir.empty()) cands.push_back(Cat({dir, "/", target}));
  cands.push_back(Cat({"src/", target}));
  cands.push_back(Cat({"tools/", target}));
  cands.push_back(target);
  for (const std::string& c : cands) {
    std::string n = LexicalNormalize(c);
    if (keys.count(n) > 0) return n;
  }
  return std::string();
}

// ---------------------------------------------------------------------------
// Per-file model: bracket matching, function/lambda index, call sites
// ---------------------------------------------------------------------------

/// One call site inside a function body.
struct CallSite {
  std::vector<std::string> chain;     // qualified name, e.g. util,Mono...,Now
  std::vector<std::string> receiver;  // idents left of the . / -> chain
  size_t name_tok = 0;                // token index of the final name
  size_t paren = 0;                   // token index of the '('
};

struct FuncInfo {
  std::string name;              // last name component
  std::string cls;               // qualifying or enclosing class ("" = free)
  std::string qual;              // display name for messages
  int line = 0;
  size_t body_begin = 0;         // token index of the body '{'
  size_t body_end = 0;           // token index of the matching '}'
  bool is_lambda = false;
  std::string lambda_var;        // `auto NAME = [...]` name, lambdas only
  std::string lambda_passed_to;  // callee when written directly as an arg
  size_t owner = kNoFunc;        // enclosing function, lambdas only
  std::vector<CallSite> calls;   // own body only (nested lambdas excluded)
};

struct FileModel {
  std::string path;            // as handed in (used on findings)
  std::string key;             // repo-relative key (used on graphs)
  const std::string* content = nullptr;
  LexedFile lexed;
  std::vector<int> match;      // bracket partner per token, -1 = none
  std::vector<size_t> encl;    // innermost enclosing '(' idx + 1, 0 = none
  std::vector<FuncInfo> funcs;
};

std::vector<int> MatchBrackets(const std::vector<Token>& t) {
  std::vector<int> match(t.size(), -1);
  std::vector<size_t> stack;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct || t[i].text.size() != 1) continue;
    char c = t[i].text[0];
    if (c == '(' || c == '[' || c == '{') {
      stack.push_back(i);
    } else if (c == ')' || c == ']' || c == '}') {
      char want = c == ')' ? '(' : (c == ']' ? '[' : '{');
      if (!stack.empty() && t[stack.back()].text[0] == want) {
        match[stack.back()] = static_cast<int>(i);
        match[i] = static_cast<int>(stack.back());
        stack.pop_back();
      }
    }
  }
  return match;
}

std::vector<size_t> ComputeEnclParen(const std::vector<Token>& t,
                                     const std::vector<int>& match) {
  std::vector<size_t> encl(t.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < t.size(); ++i) {
    encl[i] = stack.empty() ? 0 : stack.back() + 1;
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "(" && match[i] > 0) {
      stack.push_back(i);
    } else if (t[i].text == ")" && !stack.empty() &&
               match[i] == static_cast<int>(stack.back())) {
      stack.pop_back();
    }
  }
  return encl;
}

/// Recursive-descent function/method/lambda indexer over the token
/// stream. Heuristic but deliberately conservative: anything it cannot
/// classify (operator bodies, exotic declarators) is skipped opaquely
/// rather than misattributed.
class Indexer {
 public:
  explicit Indexer(FileModel* fm)
      : fm_(*fm), t_(fm->lexed.tokens), match_(fm->match) {}

  void Run() { Walk(0, t_.size(), std::string()); }

 private:
  bool Ident(size_t i, const char* s) const {
    return i < t_.size() && t_[i].kind == TokKind::kIdent && t_[i].text == s;
  }
  bool Punct(size_t i, const char* s) const {
    return i < t_.size() && t_[i].kind == TokKind::kPunct && t_[i].text == s;
  }
  size_t Match(size_t i) const {
    return match_[i] > 0 ? static_cast<size_t>(match_[i]) : 0;
  }

  /// `i` at '<': returns the index past the matching '>', or the index
  /// of a ';'/'{'/'}' bail-out when this was not a template head.
  size_t SkipAngles(size_t i) const {
    int depth = 0;
    while (i < t_.size()) {
      const std::string& x = t_[i].text;
      if (t_[i].kind == TokKind::kPunct) {
        if (x == "<") {
          ++depth;
        } else if (x == ">") {
          if (--depth == 0) return i + 1;
        } else if (x == ";" || x == "{" || x == "}") {
          return i;
        }
      }
      ++i;
    }
    return i;
  }

  void Walk(size_t b, size_t e, const std::string& cls) {
    size_t i = b;
    while (i < e) {
      const Token& tok = t_[i];
      if (tok.kind == TokKind::kIdent) {
        if (tok.text == "template" && Punct(i + 1, "<")) {
          i = SkipAngles(i + 1);
          continue;
        }
        if (tok.text == "namespace") {
          size_t j = i + 1;
          while (j < e && (t_[j].kind == TokKind::kIdent || Punct(j, "::"))) ++j;
          if (j < e && Punct(j, "{") && Match(j) != 0) {
            Walk(j + 1, Match(j), cls);
            i = Match(j) + 1;
            continue;
          }
          i = j + 1;  // namespace alias
          continue;
        }
        if ((tok.text == "class" || tok.text == "struct") &&
            !(i > b && Ident(i - 1, "enum"))) {
          std::string name;
          size_t j = i + 1;
          while (j < e) {
            if (t_[j].kind == TokKind::kIdent && name.empty() &&
                t_[j].text != "final" && t_[j].text != "alignas") {
              name = t_[j].text;
            }
            if (Punct(j, "<")) { j = SkipAngles(j); continue; }
            if ((Punct(j, "(") || Punct(j, "[")) && Match(j) != 0) {
              j = Match(j) + 1;
              continue;
            }
            if (Punct(j, ";") || Punct(j, "{") || Punct(j, "=")) break;
            ++j;
          }
          if (j < e && Punct(j, "{") && Match(j) != 0) {
            Walk(j + 1, Match(j), name.empty() ? cls : name);
            i = Match(j) + 1;
            continue;
          }
          i = j + 1;  // forward declaration
          continue;
        }
        if (tok.text == "enum") {
          size_t j = i + 1;
          while (j < e && !Punct(j, "{") && !Punct(j, ";")) ++j;
          if (j < e && Punct(j, "{") && Match(j) != 0) j = Match(j);
          i = j + 1;
          continue;
        }
        if (Punct(i + 1, "(") && ControlKeywords().count(tok.text) == 0 &&
            Match(i + 1) != 0) {
          size_t close = Match(i + 1);
          size_t k = close + 1;
          while (k < e) {
            if (Ident(k, "const") || Ident(k, "override") ||
                Ident(k, "final") || Ident(k, "mutable") || Ident(k, "try")) {
              ++k;
              continue;
            }
            if (Ident(k, "noexcept")) {
              ++k;
              if (Punct(k, "(") && Match(k) != 0) k = Match(k) + 1;
              continue;
            }
            if (Punct(k, "->")) {  // trailing return type
              ++k;
              while (k < e && !Punct(k, "{") && !Punct(k, ";") &&
                     !Punct(k, "=")) {
                if (Punct(k, "<")) { k = SkipAngles(k); continue; }
                ++k;
              }
              continue;
            }
            if (Punct(k, ":")) {  // constructor initializers
              ++k;
              while (k < e) {
                while (k < e &&
                       (t_[k].kind == TokKind::kIdent || Punct(k, "::"))) {
                  ++k;
                }
                if (Punct(k, "<")) k = SkipAngles(k);
                if ((Punct(k, "(") || Punct(k, "{")) && Match(k) != 0) {
                  k = Match(k) + 1;
                } else {
                  break;
                }
                if (Punct(k, ",")) { ++k; continue; }
                break;
              }
              continue;
            }
            break;
          }
          if (k < e && Punct(k, "{") && Match(k) != 0) {
            AddFunction(i, k, cls);
            i = Match(k) + 1;
            continue;
          }
          i = close + 1;  // declaration or namespace-scope expression
          continue;
        }
      }
      if (Punct(i, "{") && Match(i) != 0) {  // opaque block
        i = Match(i) + 1;
        continue;
      }
      ++i;
    }
  }

  void AddFunction(size_t name_tok, size_t brace, const std::string& cls) {
    std::vector<std::string> chain = {t_[name_tok].text};
    size_t j = name_tok;
    while (j >= 2 && Punct(j - 1, "::") && t_[j - 2].kind == TokKind::kIdent) {
      chain.insert(chain.begin(), t_[j - 2].text);
      j -= 2;
    }
    FuncInfo fn;
    fn.name = t_[name_tok].text;
    fn.cls = chain.size() >= 2 ? chain[chain.size() - 2] : cls;
    fn.qual = chain.size() >= 2
                  ? JoinChain(chain, "::")
                  : (cls.empty() ? fn.name : Cat({cls, "::", fn.name}));
    fn.line = t_[name_tok].line;
    fn.body_begin = brace;
    fn.body_end = Match(brace);
    fm_.funcs.push_back(std::move(fn));
    IndexBody(fm_.funcs.size() - 1);
  }

  bool IsLambdaIntro(size_t i) const {
    if (i == 0) return true;
    const Token& p = t_[i - 1];
    if (p.kind == TokKind::kIdent || p.kind == TokKind::kNumber ||
        p.kind == TokKind::kString) {
      return false;
    }
    if (p.kind == TokKind::kPunct && (p.text == ")" || p.text == "]")) {
      return false;
    }
    return true;
  }

  /// `i` at a lambda-intro '[': token index of the body '{', 0 if this
  /// is not actually a lambda (e.g. an attribute).
  size_t LambdaBody(size_t i) const {
    if (Match(i) == 0) return 0;
    size_t k = Match(i) + 1;
    if (Punct(k, "(") && Match(k) != 0) k = Match(k) + 1;
    while (k < t_.size()) {
      if (Ident(k, "mutable") || Ident(k, "constexpr")) { ++k; continue; }
      if (Ident(k, "noexcept")) {
        ++k;
        if (Punct(k, "(") && Match(k) != 0) k = Match(k) + 1;
        continue;
      }
      if (Punct(k, "->")) {
        ++k;
        while (k < t_.size() && !Punct(k, "{") && !Punct(k, ";") &&
               !Punct(k, ",") && !Punct(k, ")")) {
          if (Punct(k, "<")) { k = SkipAngles(k); continue; }
          ++k;
        }
        continue;
      }
      break;
    }
    return (k < t_.size() && Punct(k, "{") && Match(k) != 0) ? k : 0;
  }

  void IndexBody(size_t fi) {
    const size_t b = fm_.funcs[fi].body_begin;
    const size_t e = fm_.funcs[fi].body_end;
    size_t i = b + 1;
    while (i < e) {
      const Token& tok = t_[i];
      if (tok.kind == TokKind::kPunct && tok.text == "[" && IsLambdaIntro(i)) {
        size_t body = LambdaBody(i);
        if (body != 0) {
          size_t body_end = Match(body);
          FuncInfo lam;
          lam.is_lambda = true;
          lam.owner = fi;
          lam.name = "(lambda)";
          lam.cls = fm_.funcs[fi].cls;
          lam.line = tok.line;
          lam.body_begin = body;
          lam.body_end = body_end;
          if (i >= 2 && Punct(i - 1, "=") &&
              t_[i - 2].kind == TokKind::kIdent) {
            lam.lambda_var = t_[i - 2].text;
          }
          size_t p = fm_.encl[i];
          if (p != 0 && p >= 2 && t_[p - 2].kind == TokKind::kIdent) {
            lam.lambda_passed_to = t_[p - 2].text;
          }
          lam.qual = Cat({fm_.funcs[fi].qual, "::(lambda@",
                          std::to_string(tok.line), ")"});
          fm_.funcs.push_back(std::move(lam));
          IndexBody(fm_.funcs.size() - 1);
          i = body_end + 1;
          continue;
        }
      }
      if (tok.kind == TokKind::kIdent && Punct(i + 1, "(") &&
          ControlKeywords().count(tok.text) == 0) {
        CallSite c;
        c.chain = {tok.text};
        size_t j = i;
        while (j >= 2 && Punct(j - 1, "::") &&
               t_[j - 2].kind == TokKind::kIdent) {
          c.chain.insert(c.chain.begin(), t_[j - 2].text);
          j -= 2;
        }
        size_t r = j;
        while (r >= 2 && (Punct(r - 1, ".") || Punct(r - 1, "->")) &&
               t_[r - 2].kind == TokKind::kIdent) {
          c.receiver.insert(c.receiver.begin(), t_[r - 2].text);
          r -= 2;
        }
        c.name_tok = i;
        c.paren = i + 1;
        fm_.funcs[fi].calls.push_back(std::move(c));
      }
      ++i;
    }
  }

  FileModel& fm_;
  const std::vector<Token>& t_;
  const std::vector<int>& match_;
};

/// Body sub-ranges owned by nested lambdas of `fi` — scans of the outer
/// body skip them so every token is attributed to exactly one function.
std::vector<std::pair<size_t, size_t>> LambdaHoles(const FileModel& fm,
                                                   size_t fi) {
  std::vector<std::pair<size_t, size_t>> holes;
  for (const FuncInfo& g : fm.funcs) {
    if (g.is_lambda && g.owner == fi) holes.push_back({g.body_begin, g.body_end});
  }
  return holes;
}

bool InHoles(const std::vector<std::pair<size_t, size_t>>& holes, size_t i) {
  for (const auto& [b, e] : holes) {
    if (i >= b && i <= e) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Shared finding emission (rule filter + suppression + used-allow record)
// ---------------------------------------------------------------------------

class Reporter {
 public:
  Reporter(const Options& options, internal::UsedAllows* used,
           std::vector<Finding>* out)
      : options_(options), used_(used), out_(out) {}

  void Report(const FileModel& fm, int line, int column, const char* rule,
              std::string message) {
    if (!internal::RuleSelected(options_, rule)) return;
    if (internal::Suppressed(fm.lexed, fm.path, line, rule, used_)) return;
    out_->push_back({fm.path, line, column, rule, std::move(message), ""});
  }

 private:
  const Options& options_;
  internal::UsedAllows* used_;
  std::vector<Finding>* out_;
};

// ---------------------------------------------------------------------------
// Pass 1: include graph + layer DAG (QA-ARCH-001 / QA-ARCH-002)
// ---------------------------------------------------------------------------

void RunArchPass(const std::vector<FileModel>& models, const Manifest& mf,
                 const std::string& origin, Reporter* rep,
                 std::vector<std::string>* errors) {
  std::set<std::string> keys;
  std::map<std::string, size_t> by_key;
  for (size_t i = 0; i < models.size(); ++i) {
    keys.insert(models[i].key);
    by_key[models[i].key] = i;
  }
  std::vector<const std::string*> layer(models.size(), nullptr);
  for (size_t i = 0; i < models.size(); ++i) {
    layer[i] = LayerOf(mf, models[i].key);
    if (layer[i] == nullptr && models[i].key.rfind("src/", 0) == 0 &&
        errors != nullptr) {
      errors->push_back(Cat({origin, ": no layer owns '", models[i].key,
                             "' — add its directory to the manifest"}));
    }
  }
  struct Edge {
    size_t to;
    int line;
  };
  std::vector<std::vector<Edge>> adj(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    const FileModel& fm = models[i];
    for (const internal::IncludeDirective& inc : fm.lexed.includes) {
      std::string r = ResolveInclude(keys, fm.key, inc.target);
      if (r.empty()) continue;  // system or out-of-set header
      size_t to = by_key[r];
      adj[i].push_back({to, inc.line});
      const std::string* l1 = layer[i];
      const std::string* l2 = layer[to];
      if (l1 == nullptr || l2 == nullptr || *l1 == *l2) continue;
      auto it = mf.deps.find(*l1);
      if (it == mf.deps.end() || it->second.count(*l2) == 0) {
        rep->Report(fm, inc.line, 1, "QA-ARCH-001",
                    Cat({"illegal cross-layer include: layer '", *l1,
                         "' may not depend on layer '", *l2, "' (", r,
                         ") — declare the edge in ", origin,
                         " or break the dependency"}));
      }
    }
  }
  // Include cycles: iterative DFS; each distinct cycle reported once, at
  // the back edge that closes it.
  std::vector<int> color(models.size(), 0);  // 0 white, 1 gray, 2 black
  std::vector<size_t> path;
  std::set<std::set<size_t>> reported;
  struct Frame {
    size_t node;
    size_t edge = 0;
  };
  for (size_t start = 0; start < models.size(); ++start) {
    if (color[start] != 0) continue;
    std::vector<Frame> stack = {{start, 0}};
    color[start] = 1;
    path.push_back(start);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.edge < adj[f.node].size()) {
        Edge e = adj[f.node][f.edge++];
        if (color[e.to] == 0) {
          color[e.to] = 1;
          path.push_back(e.to);
          stack.push_back({e.to, 0});
        } else if (color[e.to] == 1) {
          size_t at = 0;
          while (at < path.size() && path[at] != e.to) ++at;
          std::set<size_t> members(path.begin() + static_cast<long>(at),
                                   path.end());
          if (reported.insert(members).second) {
            std::string desc;
            for (size_t p = at; p < path.size(); ++p) {
              desc += models[path[p]].key;
              desc += " -> ";
            }
            desc += models[e.to].key;
            rep->Report(models[f.node], e.line, 1, "QA-ARCH-002",
                        Cat({"include cycle: ", desc}));
          }
        }
      } else {
        color[f.node] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 3a: wall-clock taint into sim state (QA-DET-004)
// ---------------------------------------------------------------------------

class ClockPass {
 public:
  ClockPass(const std::vector<FileModel>& files, Reporter* rep)
      : files_(files), rep_(*rep) {
    clock_names_ = {"NowNanos", "ProcessCpuNanos", "SecondsSince",
                    "ChronoNanos", "TakePhaseMark"};
    for (const FileModel& fm : files_) {
      for (const FuncInfo& fn : fm.funcs) {
        if (!fn.is_lambda) def_files_[fn.name].insert(fm.key);
      }
    }
  }

  void Run() {
    GrowClockReturning();
    for (const FileModel& fm : files_) {
      if (!internal::InSimPaths(fm.key)) continue;
      for (size_t i = 0; i < fm.funcs.size(); ++i) AnalyzeBody(fm, i);
    }
  }

 private:
  bool IsClockCall(const CallSite& c) const {
    for (const std::string& part : c.chain) {
      if (part == "MonotonicClock") return true;
    }
    return clock_names_.count(c.chain.back()) > 0;
  }

  /// A call is "sidecar" when it hands the value to the metrics
  /// collector (or stays inside the clock itself): by receiver name, by
  /// the collector's recording API, or because every definition of the
  /// callee lives under the whitelisted sidecar paths.
  bool IsSidecarCall(const CallSite& c) const {
    static const std::set<std::string> kSidecarNames = {
        "RecordPhase", "RecordLaneDrain", "MarkPhaseStart", "TakePhaseMark"};
    for (const std::string& part : c.chain) {
      if (part == "MonotonicClock") return true;
    }
    if (kSidecarNames.count(c.chain.back()) > 0) return true;
    for (const std::string& r : c.receiver) {
      std::string low = Lower(r);
      if (low.find("metrics") != std::string::npos ||
          low.find("collector") != std::string::npos) {
        return true;
      }
    }
    auto it = def_files_.find(c.chain.back());
    if (it != def_files_.end() && !it->second.empty()) {
      bool all_sidecar = true;
      for (const std::string& key : it->second) {
        if (!internal::PathInDir(key, "src/obs/metrics") &&
            key.rfind("src/util/monotonic_clock", 0) != 0) {
          all_sidecar = false;
          break;
        }
      }
      if (all_sidecar) return true;
    }
    return false;
  }

  /// Fixpoint: a function whose return statement contains a clock call
  /// becomes a clock source itself (callers see `Mark()` like NowNanos).
  void GrowClockReturning() {
    for (int round = 0; round < 10; ++round) {
      bool changed = false;
      for (const FileModel& fm : files_) {
        for (const FuncInfo& fn : fm.funcs) {
          if (fn.is_lambda || clock_names_.count(fn.name) > 0) continue;
          if (ReturnsClock(fm, fn)) {
            clock_names_.insert(fn.name);
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
  }

  bool ReturnsClock(const FileModel& fm, const FuncInfo& fn) const {
    const auto& t = fm.lexed.tokens;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (t[i].kind != TokKind::kIdent || t[i].text != "return") continue;
      size_t end = i + 1;
      while (end < fn.body_end && t[end].text != ";") ++end;
      for (const CallSite& c : fn.calls) {
        if (c.name_tok > i && c.name_tok < end && IsClockCall(c)) return true;
      }
    }
    return false;
  }

  /// Per-token QA_METRICS gate state over one body: a token is gated
  /// when the statement carrying it started with QA_METRICS(...) or it
  /// sits inside a brace block opened by such a statement (the same
  /// lexical algorithm QA-OBS-002 uses).
  std::vector<char> GateStates(const FileModel& fm, const FuncInfo& fn) const {
    const auto& t = fm.lexed.tokens;
    std::vector<char> g(fn.body_end + 1, 0);
    bool pending = false;
    int guard_count = 0;
    std::vector<char> brace_guard;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (t[i].kind == TokKind::kIdent && t[i].text == "QA_METRICS") {
        pending = true;
      }
      g[i] = (pending || guard_count > 0) ? 1 : 0;
      if (t[i].kind == TokKind::kPunct && t[i].text.size() == 1) {
        char c = t[i].text[0];
        if (c == '{') {
          brace_guard.push_back(pending ? 1 : 0);
          if (pending) ++guard_count;
          pending = false;
        } else if (c == '}') {
          if (!brace_guard.empty()) {
            if (brace_guard.back() != 0) --guard_count;
            brace_guard.pop_back();
          }
        } else if (c == ';') {
          pending = false;
        }
      }
    }
    return g;
  }

  void AnalyzeBody(const FileModel& fm, size_t fi) {
    const FuncInfo& fn = fm.funcs[fi];
    const auto& t = fm.lexed.tokens;
    if (fn.body_end <= fn.body_begin) return;
    const std::vector<std::pair<size_t, size_t>> holes = LambdaHoles(fm, fi);
    const std::vector<char> gated = GateStates(fm, fn);

    // Two-pass forward taint over local assignments: anything computed
    // from a clock read (or an already-tainted local) is tainted.
    std::set<std::string> tainted;
    std::vector<std::pair<size_t, std::string>> member_writes;
    for (int pass = 0; pass < 2; ++pass) {
      member_writes.clear();
      for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        if (InHoles(holes, i)) continue;
        if (!(t[i].kind == TokKind::kPunct && t[i].text == "=")) continue;
        size_t lhs;
        if (t[i - 1].kind == TokKind::kIdent) {
          lhs = i - 1;
        } else if (t[i - 1].kind == TokKind::kPunct &&
                   t[i - 1].text.size() == 1 &&
                   std::strchr("+-*/%&|^", t[i - 1].text[0]) != nullptr &&
                   i >= 2 && t[i - 2].kind == TokKind::kIdent) {
          lhs = i - 2;  // compound assignment: '+' '=' etc.
        } else {
          continue;
        }
        size_t end = i + 1;
        while (end < fn.body_end && t[end].text != ";") ++end;
        bool rhs_tainted = false;
        for (size_t j = i + 1; j < end && !rhs_tainted; ++j) {
          if (t[j].kind == TokKind::kIdent && tainted.count(t[j].text) > 0) {
            rhs_tainted = true;
          }
        }
        if (!rhs_tainted) {
          for (const CallSite& c : fn.calls) {
            if (c.name_tok > i && c.name_tok < end && IsClockCall(c)) {
              rhs_tainted = true;
              break;
            }
          }
        }
        if (!rhs_tainted) continue;
        bool member = !t[lhs].text.empty() && t[lhs].text.back() == '_';
        if (lhs >= 1 && t[lhs - 1].kind == TokKind::kPunct &&
            (t[lhs - 1].text == "." || t[lhs - 1].text == "->")) {
          member = true;
        }
        if (member) {
          member_writes.push_back({lhs, t[lhs].text});
        } else {
          tainted.insert(t[lhs].text);
        }
      }
    }

    // Where does a gated wall-clock value flow? Walk the enclosing call
    // groups outward (transparent math helpers and casts pass through):
    // a non-sidecar callee is a leak; a control-flow condition or no
    // call at all is a bare read handled by the taint pass.
    auto leak_callee = [&](size_t tok) -> std::optional<std::string> {
      static const std::set<std::string> kTransparent = {
          "max",      "min",      "abs",    "llabs",   "clamp",
          "QA_METRICS", "int64_t", "uint64_t", "double", "size_t"};
      size_t p = fm.encl[tok];
      while (p != 0 && p - 1 > fn.body_begin) {
        size_t open = p - 1;
        if (open >= 1 && t[open - 1].kind == TokKind::kIdent) {
          const std::string& callee = t[open - 1].text;
          if (ControlKeywords().count(callee) > 0) return std::nullopt;
          if (kTransparent.count(callee) > 0) {
            p = fm.encl[open];
            continue;
          }
          for (const CallSite& c : fn.calls) {
            if (c.paren == open) {
              if (IsSidecarCall(c)) return std::nullopt;
              return JoinChain(c.chain, "::");
            }
          }
          return callee;  // unrecorded callee: conservative leak
        }
        p = fm.encl[open];  // grouping or cast parens: transparent
      }
      return std::nullopt;
    };

    const char* kRule = "QA-DET-004";
    for (const CallSite& c : fn.calls) {
      if (!IsClockCall(c)) continue;
      const Token& at = t[c.name_tok];
      if (gated[c.name_tok] == 0) {
        rep_.Report(fm, at.line, at.column, kRule,
                    Cat({"wall-clock read '", JoinChain(c.chain, "::"),
                         "' outside a QA_METRICS gate in '", fn.qual,
                         "' — sim state must never observe wall time "
                         "(DESIGN.md §9)"}));
        continue;
      }
      if (std::optional<std::string> callee = leak_callee(c.name_tok)) {
        rep_.Report(fm, at.line, at.column, kRule,
                    Cat({"wall-clock read '", JoinChain(c.chain, "::"),
                         "' feeds non-sidecar call '", *callee, "' in '",
                         fn.qual,
                         "' — only the metrics sidecar may consume wall "
                         "time (DESIGN.md §9)"}));
      }
    }
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (InHoles(holes, i)) continue;
      if (t[i].kind != TokKind::kIdent || tainted.count(t[i].text) == 0) {
        continue;
      }
      // Skip the write target of an assignment (plain or compound).
      if (i + 1 < fn.body_end && t[i + 1].kind == TokKind::kPunct) {
        const std::string& nx = t[i + 1].text;
        if (nx == "=" ||
            (nx.size() == 1 && std::strchr("+-*/%&|^", nx[0]) != nullptr &&
             i + 2 < fn.body_end && t[i + 2].text == "=")) {
          continue;
        }
      }
      const Token& at = t[i];
      if (gated[i] == 0) {
        rep_.Report(fm, at.line, at.column, kRule,
                    Cat({"wall-clock-derived value '", at.text,
                         "' used outside a QA_METRICS gate in '", fn.qual,
                         "' — sim state must never observe wall time "
                         "(DESIGN.md §9)"}));
        continue;
      }
      if (std::optional<std::string> callee = leak_callee(i)) {
        rep_.Report(fm, at.line, at.column, kRule,
                    Cat({"wall-clock-derived value '", at.text,
                         "' feeds non-sidecar call '", *callee, "' in '",
                         fn.qual,
                         "' — only the metrics sidecar may consume wall "
                         "time (DESIGN.md §9)"}));
      }
    }
    for (const auto& [lhs, name] : member_writes) {
      const Token& at = t[lhs];
      rep_.Report(fm, at.line, at.column, kRule,
                  Cat({"wall-clock-derived value stored into member '", name,
                       "' in '", fn.qual,
                       "' — sim state must never absorb wall time "
                       "(DESIGN.md §9)"}));
    }
  }

  const std::vector<FileModel>& files_;
  Reporter& rep_;
  std::set<std::string> clock_names_;
  std::map<std::string, std::set<std::string>> def_files_;
};

// ---------------------------------------------------------------------------
// Pass 3b: shard-lane safety (QA-SHD-002)
// ---------------------------------------------------------------------------

class ShardPass {
 public:
  ShardPass(const std::vector<FileModel>& files, Reporter* rep)
      : files_(files), rep_(*rep) {
    for (size_t f = 0; f < files_.size(); ++f) {
      if (!internal::InSimPaths(files_[f].key)) continue;
      for (size_t i = 0; i < files_[f].funcs.size(); ++i) {
        const FuncInfo& fn = files_[f].funcs[i];
        if (fn.is_lambda) {
          if (!fn.lambda_var.empty()) {
            by_name_[fn.lambda_var].push_back({f, i});
          }
        } else {
          by_name_[fn.name].push_back({f, i});
        }
      }
    }
  }

  void Run() {
    CollectEntries();
    Propagate();
    for (const auto& [node, mask] : kind_) Check(node, mask);
  }

 private:
  static constexpr int kLane = 1;
  static constexpr int kChunk = 2;
  using Node = std::pair<size_t, size_t>;  // (file, func)

  void AddEntry(size_t f, size_t i, int mask, const std::string& label) {
    int& have = kind_[{f, i}];
    if ((have | mask) == have) return;
    have |= mask;
    if (entry_of_.count({f, i}) == 0) entry_of_[{f, i}] = label;
    queue_.push_back({f, i});
  }

  void CollectEntries() {
    for (size_t f = 0; f < files_.size(); ++f) {
      const FileModel& fm = files_[f];
      const bool in_sim = internal::PathInDir(fm.key, "src/sim");
      const bool in_alloc = internal::PathInDir(fm.key, "src/allocation");
      if (!in_sim && !in_alloc) continue;
      for (size_t i = 0; i < fm.funcs.size(); ++i) {
        const FuncInfo& fn = fm.funcs[i];
        if (!fn.is_lambda) {
          if (fn.cls == "Federation" && fn.name == "DispatchShard") {
            AddEntry(f, i, kLane, fn.qual);
          }
          continue;
        }
        if (fn.lambda_passed_to == "RunWhileBefore" && in_sim) {
          AddEntry(f, i, kLane, fn.qual);
        } else if (fn.lambda_passed_to == "ParallelFor") {
          AddEntry(f, i, in_sim ? kLane : kChunk, fn.qual);
        }
      }
      // Named lambdas handed to the runner by variable:
      //   auto drain = [...]; runner->ParallelFor(n, drain);
      for (const FuncInfo& fn : fm.funcs) {
        for (const CallSite& c : fn.calls) {
          const std::string& callee = c.chain.back();
          if (callee != "ParallelFor" && callee != "RunWhileBefore") continue;
          if (fm.match[c.paren] <= 0) continue;
          const size_t close = static_cast<size_t>(fm.match[c.paren]);
          for (size_t a = c.paren + 1; a < close; ++a) {
            if (fm.lexed.tokens[a].kind != TokKind::kIdent) continue;
            for (size_t i = 0; i < fm.funcs.size(); ++i) {
              const FuncInfo& lam = fm.funcs[i];
              if (!lam.is_lambda || lam.lambda_var.empty() ||
                  lam.lambda_var != fm.lexed.tokens[a].text) {
                continue;
              }
              const int mask = (callee == "RunWhileBefore" || in_sim)
                                   ? kLane
                                   : kChunk;
              AddEntry(f, i, mask, lam.qual);
            }
          }
        }
      }
    }
  }

  void Propagate() {
    while (!queue_.empty()) {
      Node n = queue_.front();
      queue_.pop_front();
      const int mask = kind_[n];
      const std::string& label = entry_of_[n];
      const FileModel& fm = files_[n.first];
      const FuncInfo& fn = fm.funcs[n.second];
      // Lambdas created on the lane path run on the lane path.
      for (size_t i = 0; i < fm.funcs.size(); ++i) {
        if (fm.funcs[i].is_lambda && fm.funcs[i].owner == n.second) {
          AddEntry(n.first, i, mask, label);
        }
      }
      for (const CallSite& c : fn.calls) {
        const std::string& name = c.chain.back();
        // The two merge fences are the sanctioned way out of a lane;
        // the traversal stops there by design.
        if (name == "Emit" || name == "ScheduleNodeEvent") continue;
        auto it = by_name_.find(name);
        if (it == by_name_.end()) continue;
        for (const Node& cand : it->second) {
          const FuncInfo& g = files_[cand.first].funcs[cand.second];
          if (c.chain.size() >= 2 && !g.is_lambda &&
              g.cls != c.chain[c.chain.size() - 2]) {
            continue;  // explicit Class::fn qualifier mismatch
          }
          AddEntry(cand.first, cand.second, mask, label);
        }
      }
    }
  }

  void Check(const Node& n, int mask) {
    static const std::set<std::string> kFedLaneBanned = {
        "events_",         "med_items_",       "mediator_seq_",
        "current_time_",   "current_stamp_",   "metrics_",
        "link_down_",      "link_mask_active_", "tick_assigns_",
        "tick_rejects_",   "consecutive_decline_rounds_",
        "retry_backlog_",  "admitted_in_flight_",
        "admission_load_", "admission_",       "next_query_id_",
        "ticks_",          "watchdogs_",       "market_probe_",
        "alloc_probe_seq_", "ran_",            "allocator_"};
    static const std::set<std::string> kQaNtChunkBanned = {
        "book_", "arrival_seq_", "metrics_", "cluster_market_"};
    const FileModel& fm = files_[n.first];
    const FuncInfo& fn = fm.funcs[n.second];
    const auto& t = fm.lexed.tokens;
    const std::string& entry = entry_of_[n];
    const char* kRule = "QA-SHD-002";

    const std::set<std::string>* banned = nullptr;
    const char* lane_kind = "shard-lane";
    if ((mask & kLane) != 0 && fn.cls == "Federation") {
      banned = &kFedLaneBanned;
    } else if ((mask & kChunk) != 0 && fn.cls == "QaNtAllocator") {
      banned = &kQaNtChunkBanned;
      lane_kind = "chunked-callback";
    }
    if (banned != nullptr) {
      const std::vector<std::pair<size_t, size_t>> holes =
          LambdaHoles(fm, n.second);
      for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        if (InHoles(holes, i)) continue;
        if (t[i].kind != TokKind::kIdent || banned->count(t[i].text) == 0) {
          continue;
        }
        rep_.Report(fm, t[i].line, t[i].column, kRule,
                    Cat({"mediator-lane member '", t[i].text, "' touched in '",
                         fn.qual, "' on the ", lane_kind,
                         " path (reached from entry '", entry,
                         "') — lane code may only touch shard-local state; "
                         "route effects through the merge fences "
                         "(DESIGN.md §8)"}));
      }
    }
    for (const CallSite& c : fn.calls) {
      const Token& at = t[c.name_tok];
      for (const std::string& r : c.receiver) {
        if (Lower(r).find("recorder") != std::string::npos) {
          rep_.Report(fm, at.line, at.column, kRule,
                      Cat({"trace recorder call '", JoinChain(c.chain, "::"),
                           "' in '", fn.qual, "' on the ", lane_kind,
                           " path (reached from entry '", entry,
                           "') — lane outcomes must buffer through "
                           "Federation::Emit (DESIGN.md §8)"}));
          break;
        }
      }
      if (c.chain.back() == "Init" && !c.receiver.empty() &&
          Lower(c.receiver.back()).find("pool") != std::string::npos) {
        rep_.Report(fm, at.line, at.column, kRule,
                    Cat({"cross-shard NodePool operation '",
                         JoinChain(c.chain, "::"), "' in '", fn.qual,
                         "' on the ", lane_kind, " path (reached from entry '",
                         entry, "') — pool re-initialisation belongs to the "
                         "mediator lane (DESIGN.md §8)"}));
      }
    }
  }

  const std::vector<FileModel>& files_;
  Reporter& rep_;
  std::map<std::string, std::vector<Node>> by_name_;
  std::map<Node, int> kind_;
  std::map<Node, std::string> entry_of_;
  std::deque<Node> queue_;
};

// ---------------------------------------------------------------------------
// Stale-suppression audit (QA-SUP-001)
// ---------------------------------------------------------------------------

void RunStaleAudit(const std::vector<FileModel>& models,
                   const Options& options, const internal::UsedAllows& used,
                   std::vector<Finding>* out) {
  const char* kRule = "QA-SUP-001";
  if (!internal::RuleSelected(options, kRule)) return;
  for (const FileModel& fm : models) {
    auto it = used.find(fm.path);
    for (const auto& [line, id] : fm.lexed.allow_sites) {
      if (it != used.end() && it->second.count({line, id}) > 0) continue;
      out->push_back(
          {fm.path, line, 1, kRule,
           Cat({"stale suppression: allow(", id, ") no longer matches any ",
                id, " finding here — remove the directive"}),
           ""});
    }
  }
}

std::vector<FileModel> BuildModels(const std::vector<SourceFile>& files) {
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& sf : files) {
    FileModel fm;
    fm.path = sf.path;
    fm.key = internal::RelKey(sf.path);
    fm.content = &sf.content;
    fm.lexed = internal::Lex(sf.content);
    fm.match = MatchBrackets(fm.lexed.tokens);
    fm.encl = ComputeEnclParen(fm.lexed.tokens, fm.match);
    Indexer(&fm).Run();
    models.push_back(std::move(fm));
  }
  return models;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

std::vector<Finding> AnalyzeProject(const std::vector<SourceFile>& files,
                                    const Options& options,
                                    const ProjectOptions& project,
                                    std::vector<std::string>* errors) {
  std::vector<FileModel> models = BuildModels(files);
  internal::UsedAllows used;
  std::vector<Finding> out;
  for (const FileModel& fm : models) {
    std::vector<Finding> per =
        internal::LintLexed(fm.path, fm.lexed, options, &used);
    out.insert(out.end(), per.begin(), per.end());
  }
  Reporter rep(options, &used, &out);
  if (project.layer_manifest.has_value()) {
    Manifest mf;
    if (ParseManifest(*project.layer_manifest, project.manifest_path, &mf,
                      errors)) {
      RunArchPass(models, mf, project.manifest_path, &rep, errors);
    }
  }
  ClockPass(models, &rep).Run();
  ShardPass(models, &rep).Run();
  if (project.stale_suppressions) RunStaleAudit(models, options, used, &out);

  // Attach source snippets, grouping findings by file.
  std::map<std::string, const std::string*> content_by_path;
  for (const FileModel& fm : models) content_by_path[fm.path] = fm.content;
  std::map<std::string, std::vector<size_t>> grouped;
  for (size_t i = 0; i < out.size(); ++i) grouped[out[i].file].push_back(i);
  for (const auto& [path, indices] : grouped) {
    auto it = content_by_path.find(path);
    if (it == content_by_path.end()) continue;
    std::vector<Finding> bucket;
    bucket.reserve(indices.size());
    for (size_t i : indices) bucket.push_back(out[i]);
    internal::FillSnippets(*it->second, &bucket);
    for (size_t j = 0; j < indices.size(); ++j) out[indices[j]] = bucket[j];
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.column, a.rule, a.message) <
           std::tie(b.file, b.line, b.column, b.rule, b.message);
  });
  return out;
}

std::string DumpIncludeGraph(const std::vector<SourceFile>& files,
                             const ProjectOptions& project) {
  std::vector<FileModel> models = BuildModels(files);
  Manifest mf;
  bool have_manifest =
      project.layer_manifest.has_value() &&
      ParseManifest(*project.layer_manifest, project.manifest_path, &mf,
                    nullptr);
  std::set<std::string> keys;
  for (const FileModel& fm : models) keys.insert(fm.key);
  std::string out = "{\n  \"files\": [\n";
  for (size_t i = 0; i < models.size(); ++i) {
    const FileModel& fm = models[i];
    const std::string* layer = have_manifest ? LayerOf(mf, fm.key) : nullptr;
    out += Cat({"    {\"path\": \"", internal::JsonEscape(fm.key),
                "\", \"layer\": \"",
                layer != nullptr ? internal::JsonEscape(*layer) : "",
                "\", \"includes\": ["});
    std::vector<std::string> resolved;
    for (const internal::IncludeDirective& inc : fm.lexed.includes) {
      std::string r = ResolveInclude(keys, fm.key, inc.target);
      if (!r.empty()) resolved.push_back(r);
    }
    std::sort(resolved.begin(), resolved.end());
    resolved.erase(std::unique(resolved.begin(), resolved.end()),
                   resolved.end());
    for (size_t j = 0; j < resolved.size(); ++j) {
      if (j > 0) out += ", ";
      out += Cat({"\"", internal::JsonEscape(resolved[j]), "\""});
    }
    out += i + 1 < models.size() ? "]},\n" : "]}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace qa::lint
