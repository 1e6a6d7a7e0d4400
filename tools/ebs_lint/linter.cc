#include "tools/ebs_lint/linter.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "tools/ebs_lint/coverage.h"
#include "tools/ebs_lint/graph.h"
#include "tools/ebs_lint/taint.h"

namespace ebslint {

namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Parses `ebs-lint: allow(rule[, rule...])` out of one comment's text and
// registers the rules against `line`.
void ParseAllow(const std::string& comment, size_t line,
                std::map<size_t, std::set<std::string>>* allows) {
  const std::string marker = "ebs-lint:";
  size_t pos = comment.find(marker);
  if (pos == std::string::npos) {
    return;
  }
  pos += marker.size();
  while (pos < comment.size() && std::isspace(static_cast<unsigned char>(comment[pos]))) {
    ++pos;
  }
  const std::string verb = "allow(";
  if (comment.compare(pos, verb.size(), verb) != 0) {
    return;
  }
  pos += verb.size();
  const size_t close = comment.find(')', pos);
  if (close == std::string::npos) {
    return;
  }
  std::string rule;
  for (size_t i = pos; i <= close; ++i) {
    const char c = comment[i];
    if (c == ',' || c == ')') {
      if (!rule.empty()) {
        (*allows)[line].insert(rule);
      }
      rule.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      rule += c;
    }
  }
}

}  // namespace

FileScan Tokenize(const std::string& content) {
  FileScan scan;
  size_t line = 1;
  size_t col = 1;
  size_t i = 0;
  const size_t n = content.size();
  bool line_start = true;  // only whitespace seen on this line so far

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (content[i] == '\n') {
        ++line;
        col = 1;
        line_start = true;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    const char c = content[i];

    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    // Preprocessor directive: skip the whole (possibly continued) line. Rules
    // never look inside macros or includes.
    if (c == '#' && line_start) {
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          advance(2);
          continue;
        }
        if (content[i] == '\n') {
          break;
        }
        advance(1);
      }
      continue;
    }
    line_start = false;

    // Line comment: capture for allow() suppressions, emit no tokens.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const size_t comment_line = line;
      std::string text;
      while (i < n && content[i] != '\n') {
        text += content[i];
        advance(1);
      }
      ParseAllow(text, comment_line, &scan.allows);
      continue;
    }

    // Block comment: ditto; a multi-line comment's allow() applies to the
    // line the comment starts on.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const size_t comment_line = line;
      std::string text;
      advance(2);
      while (i < n && !(content[i] == '*' && i + 1 < n && content[i + 1] == '/')) {
        text += content[i];
        advance(1);
      }
      advance(2);
      ParseAllow(text, comment_line, &scan.allows);
      continue;
    }

    // Raw string literal (the lexer already emitted the R/u8R/... prefix as an
    // identifier token; that is harmless).
    if (c == '"' && i > 0 && content[i - 1] == 'R') {
      advance(1);
      std::string delim;
      while (i < n && content[i] != '(') {
        delim += content[i];
        advance(1);
      }
      const std::string closer = ")" + delim + "\"";
      while (i < n && content.compare(i, closer.size(), closer) != 0) {
        advance(1);
      }
      advance(closer.size());
      continue;
    }

    // String literal.
    if (c == '"') {
      advance(1);
      while (i < n && content[i] != '"') {
        advance(content[i] == '\\' ? 2 : 1);
      }
      advance(1);
      continue;
    }

    // Character literal. (Digit separators like 1'000 are consumed by the
    // number scanner below and never reach this branch.)
    if (c == '\'') {
      advance(1);
      while (i < n && content[i] != '\'') {
        advance(content[i] == '\\' ? 2 : 1);
      }
      advance(1);
      continue;
    }

    // Number: consume the whole literal (hex, exponents, separators, suffixes)
    // so its letters are not mistaken for identifiers.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < n) {
        const char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          advance(1);
        } else if ((d == '+' || d == '-') && i > 0 &&
                   (content[i - 1] == 'e' || content[i - 1] == 'E' ||
                    content[i - 1] == 'p' || content[i - 1] == 'P')) {
          advance(1);
        } else {
          break;
        }
      }
      continue;
    }

    // Identifier / keyword.
    if (IsIdentStart(c)) {
      Token token{"", line, col};
      while (i < n && IsIdentChar(content[i])) {
        token.text += content[i];
        advance(1);
      }
      scan.tokens.push_back(std::move(token));
      continue;
    }

    // `::` is one token (range-for detection must not mistake it for `:`).
    if (c == ':' && i + 1 < n && content[i + 1] == ':') {
      scan.tokens.push_back({"::", line, col});
      advance(2);
      continue;
    }

    // Every other punctuator is a single character; `>>` stays two `>` so the
    // template-argument scanner can track nesting depth.
    scan.tokens.push_back({std::string(1, c), line, col});
    advance(1);
  }
  return scan;
}

namespace {

constexpr std::array<const char*, 8> kWallClock = {
    "system_clock", "high_resolution_clock", "gettimeofday", "clock_gettime",
    "localtime",    "gmtime",                "mktime",       "strftime",
};

constexpr std::array<const char*, 11> kRawRand = {
    "rand",        "srand",        "rand_r",      "random_device",
    "mt19937",     "mt19937_64",   "minstd_rand", "minstd_rand0",
    "random_shuffle", "default_random_engine", "knuth_b",
};

constexpr std::array<const char*, 6> kBanned = {
    "gets", "strtok", "tmpnam", "asctime", "ctime", "alloca",
};

// The src/qmodel/ virtual-time contract bans everything that could make the
// event loop's notion of time or ordering depend on the host: even the
// monotonic clock the rest of src/ may use, every sleep, and every threading
// primitive (the replay sink owns cross-worker determinism, not qmodel).
constexpr std::array<const char*, 11> kVirtualTime = {
    "steady_clock", "sleep_for", "sleep_until",        "this_thread",
    "nanosleep",    "usleep",    "thread",             "jthread",
    "mutex",        "condition_variable", "atomic",
};

// The src/control/ contract is the virtual-time set plus speculative
// concurrency: the decision log is fingerprinted bit-for-bit across batch,
// streaming, and every worker count, so a policy that consults any host-side
// clock, lock, or task primitive is a determinism bug even when it "only"
// observes. (wall-clock / raw-rand / unordered-iter already apply via the
// src/-wide determinism rules.)
constexpr std::array<const char*, 14> kControlDeterminism = {
    "steady_clock", "sleep_for", "sleep_until",        "this_thread",
    "nanosleep",    "usleep",    "thread",             "jthread",
    "mutex",        "condition_variable", "atomic",    "async",
    "future",       "promise",
};

// Types whose iteration order is implementation-defined.
constexpr std::array<const char*, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};

constexpr std::array<const char*, 4> kMapTypes = {
    "map", "multimap", "unordered_map", "unordered_multimap",
};

// How far above an fclose the mandatory ferror call may sit.
constexpr size_t kFerrorWindowLines = 10;

template <size_t N>
bool Contains(const std::array<const char*, N>& list, const std::string& text) {
  return std::find_if(list.begin(), list.end(),
                      [&](const char* s) { return text == s; }) != list.end();
}

bool Suppressed(const FileScan& scan, size_t line, const std::string& rule) {
  auto it = scan.allows.find(line);
  return it != scan.allows.end() && it->second.count(rule) > 0;
}

void Report(const FileScan& scan, const std::string& path, const Token& token,
            const std::string& rule, const std::string& message,
            std::vector<Finding>* findings,
            std::map<size_t, std::set<std::string>>* used_allows) {
  if (Suppressed(scan, token.line, rule)) {
    if (used_allows != nullptr) {
      (*used_allows)[token.line].insert(rule);
    }
    return;
  }
  findings->push_back(Finding{path, token.line, token.col, rule, message});
}

// Token index just past a balanced <...> starting at `open` (which must point
// at '<'), or `open` itself if the brackets never close within `limit` tokens.
size_t SkipAngles(const std::vector<Token>& tokens, size_t open, size_t limit = 200) {
  size_t depth = 0;
  for (size_t j = open; j < tokens.size() && j < open + limit; ++j) {
    if (tokens[j].text == "<") {
      ++depth;
    } else if (tokens[j].text == ">") {
      if (--depth == 0) {
        return j + 1;
      }
    }
  }
  return open;
}

// The token the expression ending before `index` hands its value to. Skips a
// `std` `::` qualifier so `x = std::fclose(f)` resolves to `=`.
const Token* EffectivePrev(const std::vector<Token>& tokens, size_t index) {
  size_t p = index;
  while (p > 0) {
    --p;
    if (tokens[p].text == "::" || tokens[p].text == "std") {
      continue;
    }
    return &tokens[p];
  }
  return nullptr;
}

// True when the call at `index` is a full statement whose result is dropped.
bool ResultDiscarded(const std::vector<Token>& tokens, size_t index) {
  const Token* prev = EffectivePrev(tokens, index);
  if (prev == nullptr) {
    return true;
  }
  const std::string& t = prev->text;
  return t == ";" || t == "{" || t == "}" || t == ")" || t == ":" || t == "else" ||
         t == "do";
}

}  // namespace

bool Linter::IsSourcePath(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return false;
  }
  const std::string ext = path.substr(dot);
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

namespace {

bool IsHeaderPath(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return false;
  }
  const std::string ext = path.substr(dot);
  return ext == ".h" || ext == ".hh" || ext == ".hpp";
}

bool UnderSrc(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

bool UnderQmodel(const std::string& path) {
  return path.rfind("src/qmodel/", 0) == 0 ||
         path.find("/src/qmodel/") != std::string::npos;
}

bool UnderControl(const std::string& path) {
  return path.rfind("src/control/", 0) == 0 ||
         path.find("/src/control/") != std::string::npos;
}

}  // namespace

Options Linter::OptionsForPath(const std::string& path) {
  Options options;
  options.determinism_rules = UnderSrc(path);
  options.virtual_time_rules = UnderQmodel(path);
  options.control_rules = UnderControl(path);
  return options;
}

void Linter::CollectDeclarations(const std::string& path, const std::string& content) {
  const FileScan scan = Tokenize(content);
  const std::vector<Token>& tokens = scan.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!Contains(kUnorderedTypes, tokens[i].text) || tokens[i + 1].text != "<") {
      continue;
    }
    size_t j = SkipAngles(tokens, i + 1);
    if (j == i + 1) {
      continue;  // unbalanced; not a declaration we can parse
    }
    // `>::iterator` and friends are uses of nested types, not declarations.
    if (j < tokens.size() && tokens[j].text == "::") {
      continue;
    }
    // Skip declarator decorations between the type and the name.
    while (j < tokens.size() &&
           (tokens[j].text == "*" || tokens[j].text == "&" || tokens[j].text == "const")) {
      ++j;
    }
    if (j >= tokens.size() || !IsIdentStart(tokens[j].text[0])) {
      continue;
    }
    const std::string& name = tokens[j].text;
    if (IsHeaderPath(path)) {
      global_unordered_.insert(name);
    } else {
      local_unordered_[path].insert(name);
    }
  }
}

bool Linter::IsUnorderedDeclared(const std::string& path, const std::string& name) const {
  if (global_unordered_.count(name) > 0) {
    return true;
  }
  auto it = local_unordered_.find(path);
  return it != local_unordered_.end() && it->second.count(name) > 0;
}

void Linter::LintFile(const std::string& path, const std::string& content,
                      const Options& options, std::vector<Finding>* findings,
                      std::map<size_t, std::set<std::string>>* used_allows) const {
  const FileScan scan = Tokenize(content);
  const std::vector<Token>& tokens = scan.tokens;

  const std::set<std::string>* locals = nullptr;
  if (auto it = local_unordered_.find(path); it != local_unordered_.end()) {
    locals = &it->second;
  }
  auto is_unordered_name = [&](const std::string& name) {
    return global_unordered_.count(name) > 0 || (locals != nullptr && locals->count(name) > 0);
  };

  // Lines carrying an ferror call, for the fclose proximity check.
  std::set<size_t> ferror_lines;
  for (const Token& token : tokens) {
    if (token.text == "ferror") {
      ferror_lines.insert(token.line);
    }
  }

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    const bool is_call = i + 1 < tokens.size() && tokens[i + 1].text == "(";

    if (options.determinism_rules && Contains(kWallClock, token.text)) {
      Report(scan, path, token, "wall-clock",
             "wall-clock time source '" + token.text +
                 "' is banned in src/ (determinism contract; monotonic durations via "
                 "std::chrono::steady_clock are fine)",
             findings, used_allows);
    }

    if (options.virtual_time_rules && Contains(kVirtualTime, token.text)) {
      Report(scan, path, token, "qmodel-virtual-time",
             "'" + token.text +
                 "' is banned in src/qmodel/: the event heap is the only clock, and "
                 "cross-worker determinism belongs to the replay sink, not the model",
             findings, used_allows);
    }

    if (options.control_rules && Contains(kControlDeterminism, token.text)) {
      Report(scan, path, token, "control-determinism",
             "'" + token.text +
                 "' is banned in src/control/: decisions must be a pure function of "
                 "the ControlSignal — the decision log fingerprints bit-for-bit across "
                 "worker counts, so no host clock, sleep, lock, or task primitive",
             findings, used_allows);
    }

    if (options.determinism_rules && Contains(kRawRand, token.text)) {
      Report(scan, path, token, "raw-rand",
             "'" + token.text +
                 "' is banned in src/: all randomness must flow through src/util/rng.h so "
                 "a seed fully determines the output",
             findings, used_allows);
    }

    if (Contains(kBanned, token.text) && is_call) {
      Report(scan, path, token, "banned-identifier",
             "'" + token.text + "' is on the repo banned-identifier list", findings,
             used_allows);
    }

    if ((token.text == "fclose" || token.text == "fflush") && is_call) {
      const std::string rule =
          token.text == "fclose" ? "unchecked-fclose" : "unchecked-fflush";
      if (ResultDiscarded(tokens, i)) {
        Report(scan, path, token, rule,
               "the result of " + token.text +
                   " must be checked: a failed final flush is the only signal that "
                   "buffered data never reached disk",
               findings, used_allows);
      } else if (token.text == "fclose") {
        bool has_ferror = false;
        const size_t lo = token.line > kFerrorWindowLines ? token.line - kFerrorWindowLines : 1;
        for (size_t l = lo; l <= token.line && !has_ferror; ++l) {
          has_ferror = ferror_lines.count(l) > 0;
        }
        if (!has_ferror) {
          Report(scan, path, token, "fclose-no-ferror",
                 "checked fclose without a preceding ferror call (within " +
                     std::to_string(kFerrorWindowLines) +
                     " lines): fclose alone can miss mid-run write errors",
                 findings, used_allows);
        }
      }
    }

    // float-key: map< float ... / map< double ...
    if (Contains(kMapTypes, token.text) && is_call == false && i + 1 < tokens.size() &&
        tokens[i + 1].text == "<") {
      size_t j = i + 2;
      while (j < tokens.size() &&
             (tokens[j].text == "std" || tokens[j].text == "::" || tokens[j].text == "const" ||
              tokens[j].text == "volatile")) {
        ++j;
      }
      if (j < tokens.size() &&
          (tokens[j].text == "float" || tokens[j].text == "double" ||
           (tokens[j].text == "long" && j + 1 < tokens.size() &&
            tokens[j + 1].text == "double"))) {
        Report(scan, path, token, "float-key",
               "floating-point map key: rounding makes lookups flaky and exported "
               "ordering fragile; quantize to an integer key instead",
               findings, used_allows);
      }
    }

    // unordered-iter: range-for whose range expression names an unordered
    // container.
    if (options.determinism_rules && token.text == "for" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      size_t depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[j].text == "(") {
          ++depth;
        } else if (tokens[j].text == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (tokens[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) {
        continue;
      }
      // Last identifier of the range expression: `metrics.segment_series`,
      // `shard->segments()` and plain names all resolve to their final
      // member/callee name.
      const Token* range_name = nullptr;
      for (size_t j = colon + 1; j < close; ++j) {
        if (IsIdentStart(tokens[j].text[0])) {
          range_name = &tokens[j];
        }
      }
      if (range_name != nullptr && is_unordered_name(range_name->text)) {
        Report(scan, path, token, "unordered-iter",
               "iteration order over unordered container '" + range_name->text +
                   "' is implementation-defined; sort keys first, or mark a provably "
                   "order-insensitive loop with // ebs-lint: allow(unordered-iter)",
               findings, used_allows);
      }
    }
  }

  // The flow-sensitive pass shares the scan: it catches the hash-order leaks
  // the syntactic rule above cannot see (aliases, helper returns, sinks).
  if (options.determinism_rules) {
    RunTaintPass(path, scan, *this, findings, used_allows);
  }
}

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "wall-clock",          "raw-rand",         "unordered-iter",
      "unchecked-fclose",    "fclose-no-ferror", "unchecked-fflush",
      "float-key",           "banned-identifier", "qmodel-virtual-time",
      "control-determinism", "unordered-taint",  "tainted-sink",
      "layer-violation",     "include-cycle",    "layer-map",
      "error-code-coverage", "stale-suppression",
  };
  return kRules;
}

namespace {

// An allow() argument that is rule-shaped: lowercase kebab, starting with a
// letter. Documentation text like `allow(<rule>[, rule...])` parses as
// pseudo-rules (`<rule>[`, `rule...]`) that must not trip the audit.
bool IsRuleShaped(const std::string& text) {
  if (text.empty() || !std::islower(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  for (const char c : text) {
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::set<std::string> ActiveRules(const Options& options, bool coverage_ran) {
  std::set<std::string> active = KnownRules();
  if (!options.determinism_rules) {
    for (const char* rule :
         {"wall-clock", "raw-rand", "unordered-iter", "unordered-taint", "tainted-sink"}) {
      active.erase(rule);
    }
  }
  if (!options.virtual_time_rules) {
    active.erase("qmodel-virtual-time");
  }
  if (!options.control_rules) {
    active.erase("control-determinism");
  }
  if (!coverage_ran) {
    active.erase("error-code-coverage");
  }
  return active;
}

void AuditSuppressions(const std::string& path, const std::string& content,
                       const std::set<std::string>& active_rules,
                       const std::map<size_t, std::set<std::string>>& used_allows,
                       std::vector<Finding>* findings) {
  const FileScan scan = Tokenize(content);
  for (const auto& [line, rules] : scan.allows) {
    for (const std::string& rule : rules) {
      if (!IsRuleShaped(rule)) {
        continue;  // documentation, not a suppression
      }
      if (KnownRules().count(rule) == 0) {
        findings->push_back(Finding{
            path, line, 1, "stale-suppression",
            "allow(" + rule + ") names no known rule (typo? see the rule catalog in "
            "tools/ebs_lint/linter.h): a misspelled suppression silently widens the "
            "contract"});
        continue;
      }
      if (active_rules.count(rule) == 0) {
        continue;  // the rule's pass did not run here; no staleness claim
      }
      auto it = used_allows.find(line);
      if (it == used_allows.end() || it->second.count(rule) == 0) {
        findings->push_back(Finding{
            path, line, 1, "stale-suppression",
            "allow(" + rule + ") suppresses nothing on this line anymore: delete it, "
            "or the next real violation here will be silently excused"});
      }
    }
  }
}

std::string FormatText(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ":" << finding.col << ": error: ["
      << finding.rule << "] " << finding.message;
  return out.str();
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
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
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n  {\"file\": \"" << JsonEscape(f.file)
        << "\", \"line\": " << f.line << ", \"col\": " << f.col << ", \"rule\": \""
        << JsonEscape(f.rule) << "\", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]" : "\n]");
  out << "\n";
  return out.str();
}

namespace {

struct SelfCheckCase {
  const char* name;
  const char* path;     // decides rule scoping, like a real run
  const char* code;
  const char* expect_rule;  // nullptr = must be clean
};

// Every rule gets a firing fixture, a clean counterpart, and the suppression
// path is proven once per rule family. tests/lint_test.cc drives the same
// rules over committed fixture files; this built-in set is what `--self-check`
// runs in CI before the tree scan, so a broken rule fails fast.
constexpr SelfCheckCase kCases[] = {
    {"wall-clock fires", "src/a.cc",
     "void F() { auto t = std::chrono::system_clock::now(); }", "wall-clock"},
    {"wall-clock scoped out of tools/", "tools/a.cc",
     "void F() { auto t = std::chrono::system_clock::now(); }", nullptr},
    {"wall-clock suppressed", "src/a.cc",
     "void F() { auto t = std::chrono::system_clock::now(); }  // ebs-lint: "
     "allow(wall-clock) boot banner only",
     nullptr},
    {"steady_clock is allowed", "src/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }", nullptr},
    {"raw-rand fires", "src/a.cc", "int F() { return rand(); }", "raw-rand"},
    {"raw-rand random_device fires", "src/a.cc", "std::random_device rd;", "raw-rand"},
    {"raw-rand in string is ignored", "src/a.cc", "const char* s = \"rand()\";", nullptr},
    {"unchecked-fclose fires", "src/a.cc", "void F(FILE* f) { std::fclose(f); }",
     "unchecked-fclose"},
    {"unchecked-fclose suppressed", "src/a.cc",
     "void F(FILE* f) { std::fclose(f); }  // ebs-lint: allow(unchecked-fclose) "
     "read-only stream",
     nullptr},
    {"checked fclose without ferror fires", "src/a.cc",
     "bool F(FILE* f) { return std::fclose(f) == 0; }", "fclose-no-ferror"},
    {"checked fclose with ferror is clean", "src/a.cc",
     "bool F(FILE* f) {\n  const bool ok = std::ferror(f) == 0;\n  return "
     "std::fclose(f) == 0 && ok;\n}",
     nullptr},
    {"unchecked-fflush fires", "src/a.cc", "void F(FILE* f) { std::fflush(f); }",
     "unchecked-fflush"},
    {"checked fflush is clean", "src/a.cc",
     "bool F(FILE* f) { return std::fflush(f) == 0; }", nullptr},
    {"unordered-iter fires", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  for (const auto& [k, v] : m) "
     "{ (void)k; (void)v; }\n}",
     "unordered-iter"},
    {"unordered-iter suppressed", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  for (const auto& [k, v] : m) "
     "{ }  // ebs-lint: allow(unordered-iter) pure reduction\n}",
     nullptr},
    {"vector iteration is clean", "src/a.cc",
     "void F() {\n  std::vector<int> v;\n  for (int x : v) { (void)x; }\n}", nullptr},
    {"float-key fires", "src/a.cc", "std::map<double, int> m;", "float-key"},
    {"float-key unordered fires", "tools/a.cc", "std::unordered_map<float, int> m;",
     "float-key"},
    {"integer key is clean", "src/a.cc", "std::map<uint32_t, double> m;", nullptr},
    {"banned-identifier fires", "bench/a.cc",
     "void F(char* s) { char* t = strtok(s, \",\"); (void)t; }", "banned-identifier"},
    {"banned name without call is clean", "src/a.cc", "int strtok_count = 0;", nullptr},
    {"qmodel-virtual-time bans steady_clock", "src/qmodel/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }", "qmodel-virtual-time"},
    {"qmodel-virtual-time bans threads", "src/qmodel/a.cc",
     "void F() { std::thread worker; worker.join(); }", "qmodel-virtual-time"},
    {"qmodel-virtual-time bans sleeps", "src/qmodel/a.cc",
     "void F() { std::this_thread::sleep_for(std::chrono::seconds(1)); }",
     "qmodel-virtual-time"},
    {"steady_clock stays legal outside qmodel", "src/obs/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }", nullptr},
    {"qmodel-virtual-time suppressed", "src/qmodel/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }  // ebs-lint: "
     "allow(qmodel-virtual-time) build-time banner only",
     nullptr},
    {"thread in an identifier is clean", "src/qmodel/a.cc",
     "int merge_thread_count = 0;", nullptr},
    {"control-determinism bans steady_clock", "src/control/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }", "control-determinism"},
    {"control-determinism bans threads", "src/control/a.cc",
     "void F() { std::thread worker; worker.join(); }", "control-determinism"},
    {"control-determinism bans async", "src/control/a.cc",
     "void F() { auto f = std::async([] {}); f.wait(); }", "control-determinism"},
    {"async stays legal outside control", "src/balancer/a.cc",
     "void F() { auto f = std::async([] {}); f.wait(); }", nullptr},
    {"control-determinism suppressed", "src/control/a.cc",
     "void F() { auto t = std::chrono::steady_clock::now(); }  // ebs-lint: "
     "allow(control-determinism) build-time banner only",
     nullptr},
    {"future in an identifier is clean", "src/control/a.cc",
     "int future_period_count = 0;", nullptr},
    {"unordered-taint alias fires", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  auto& alias = m;\n  for "
     "(const auto& [k, v] : alias) { (void)k; (void)v; }\n}",
     "unordered-taint"},
    {"unordered-taint helper return fires", "src/a.cc",
     "auto& Pick() {\n  static std::unordered_map<int, int> t;\n  return t;\n}\n"
     "void F() {\n  for (const auto& [k, v] : Pick()) { (void)k; (void)v; }\n}",
     "unordered-taint"},
    {"unordered-taint suppressed", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  auto& alias = m;\n  for "
     "(const auto& [k, v] : alias) { }  // ebs-lint: allow(unordered-taint) pure "
     "reduction\n}",
     nullptr},
    {"alias via sorted accessor is clean", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  auto& alias = m;\n  for "
     "(const auto& [k, v] : alias.SortedItems()) { (void)k; (void)v; }\n}",
     nullptr},
    {"tainted-sink fires", "src/a.cc",
     "void F(FILE* out) {\n  std::unordered_map<int, int> m;\n  for (const auto& "
     "[k, v] : m) {  // ebs-lint: allow(unordered-iter) keys only\n    "
     "std::fprintf(out, \"%d\\n\", k);\n  }\n}",
     "tainted-sink"},
    {"tainted-sink via fingerprint call fires", "src/a.cc",
     "void F() {\n  std::unordered_map<int, int> m;\n  uint64_t h = 0;\n  for "
     "(const auto& [k, v] : m) {  // ebs-lint: allow(unordered-iter) keys only\n  "
     "  h = MixFingerprint(h, k);\n  }\n  (void)h;\n}",
     "tainted-sink"},
    {"sort before sink is clean", "src/a.cc",
     "void F(FILE* out) {\n  std::unordered_map<int, int> m;\n  std::vector<int> "
     "keys;\n  for (const auto& [k, v] : m) {  // ebs-lint: allow(unordered-iter) "
     "key collection\n    keys.push_back(k);\n  }\n  std::sort(keys.begin(), "
     "keys.end());\n  for (int key : keys) {\n    std::fprintf(out, \"%d\\n\", "
     "key);\n  }\n}",
     nullptr},
    {"tainted-sink suppressed", "src/a.cc",
     "void F(FILE* out) {\n  std::unordered_map<int, int> m;\n  for (const auto& "
     "[k, v] : m) {  // ebs-lint: allow(unordered-iter) keys only\n    "
     "std::fprintf(out, \"%d\\n\", k);  // ebs-lint: allow(tainted-sink) "
     "order-insensitive sum\n  }\n}",
     nullptr},
};

}  // namespace

std::string SelfCheck() {
  for (const SelfCheckCase& c : kCases) {
    Linter linter;
    linter.CollectDeclarations(c.path, c.code);
    std::vector<Finding> findings;
    linter.LintFile(c.path, c.code, Linter::OptionsForPath(c.path), &findings);
    if (c.expect_rule == nullptr) {
      if (!findings.empty()) {
        return std::string("self-check '") + c.name + "': expected clean, got [" +
               findings[0].rule + "] " + findings[0].message;
      }
    } else {
      const bool fired =
          std::any_of(findings.begin(), findings.end(),
                      [&](const Finding& f) { return f.rule == c.expect_rule; });
      if (!fired) {
        return std::string("self-check '") + c.name + "': rule '" + c.expect_rule +
               "' did not fire (" + std::to_string(findings.size()) + " findings)";
      }
    }
  }

  {  // stale-suppression: used allow clean, unused and unknown-rule flagged.
    const char* path = "src/stale.cc";
    const std::string code =
        "void F() { auto t = std::chrono::system_clock::now(); }  // ebs-lint: "
        "allow(wall-clock) boot banner\n"
        "int x = 0;  // ebs-lint: allow(raw-rand) nothing random here anymore\n"
        "int y = 0;  // ebs-lint: allow(no-such-rule) typo\n";
    Linter linter;
    linter.CollectDeclarations(path, code);
    std::vector<Finding> findings;
    std::map<size_t, std::set<std::string>> used;
    linter.LintFile(path, code, Linter::OptionsForPath(path), &findings, &used);
    if (!findings.empty()) {
      return "self-check 'stale-suppression setup': expected clean lint, got [" +
             findings[0].rule + "] " + findings[0].message;
    }
    std::vector<Finding> stale;
    AuditSuppressions(path, code, ActiveRules(Linter::OptionsForPath(path), false),
                      used, &stale);
    if (stale.size() != 2) {
      return "self-check 'stale-suppression audit': expected 2 findings (unused + "
             "unknown), got " +
             std::to_string(stale.size());
    }
    for (const Finding& f : stale) {
      if (f.rule != "stale-suppression" || (f.line != 2 && f.line != 3)) {
        return "self-check 'stale-suppression audit': unexpected finding at line " +
               std::to_string(f.line) + " [" + f.rule + "]";
      }
    }
    // A dormant rule's allow is skipped, not flagged: unordered-iter does not
    // run outside src/, so its suppression in bench/ makes no staleness claim.
    std::vector<Finding> dormant;
    const std::string bench_code = "int x = 0;  // ebs-lint: allow(unordered-iter) doc\n";
    AuditSuppressions("bench/b.cc", bench_code,
                      ActiveRules(Linter::OptionsForPath("bench/b.cc"), false), {},
                      &dormant);
    if (!dormant.empty()) {
      return "self-check 'dormant allow skipped': got [" + dormant[0].rule + "] " +
             dormant[0].message;
    }
  }

  if (const std::string err = GraphSelfCheck(); !err.empty()) {
    return err;
  }
  if (const std::string err = CoverageSelfCheck(); !err.empty()) {
    return err;
  }
  return "";
}

}  // namespace ebslint
