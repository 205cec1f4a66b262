#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace frlfi_lint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ------------------------------------------------------------------ scrub --

// Source text with comments and string/char literals blanked to spaces
// (newlines preserved, so offsets and line numbers match the original),
// plus the comment text collected per line for allow() trailer parsing.
struct Scrubbed {
  std::string code;
  std::map<std::size_t, std::string> comments;  // line -> concatenated text
};

std::size_t line_of(const std::vector<std::size_t>& line_starts,
                    std::size_t offset) {
  // line_starts[i] = offset of the first char of line i+1.
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<std::size_t>(it - line_starts.begin());
}

std::vector<std::size_t> index_lines(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

void blank_range(std::string& code, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < code.size(); ++i)
    if (code[i] != '\n') code[i] = ' ';
}

// Comments and literals out of C++ text. Handles //, /*...*/, "...",
// '...', and R"tag(...)tag"; a ' preceded by an identifier char is treated
// as a digit separator, not a char literal.
Scrubbed scrub_cpp(const std::string& text,
                   const std::vector<std::size_t>& line_starts) {
  Scrubbed out;
  out.code = text;
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      out.comments[line_of(line_starts, i)] += text.substr(i + 2, end - i - 2);
      blank_range(out.code, i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      out.comments[line_of(line_starts, i)] += text.substr(i + 2, end - i - 4);
      blank_range(out.code, i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
               (i == 0 || !is_ident_char(text[i - 1]))) {
      const std::size_t open = text.find('(', i + 2);
      if (open == std::string::npos) break;
      const std::string closer = ")" + text.substr(i + 2, open - i - 2) + "\"";
      std::size_t end = text.find(closer, open + 1);
      end = (end == std::string::npos) ? n : end + closer.size();
      blank_range(out.code, i, end);
      i = end;
    } else if (c == '"' || (c == '\'' && (i == 0 || !is_ident_char(text[i - 1])))) {
      std::size_t j = i + 1;
      while (j < n && text[j] != c) {
        if (text[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      const std::size_t end = (j < n) ? j + 1 : n;
      blank_range(out.code, i, end);
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

// Comments out of CMake text ('#' to end of line, except inside "...").
// Flag tokens often live inside quoted strings, so strings are KEPT.
Scrubbed scrub_cmake(const std::string& text,
                     const std::vector<std::size_t>& line_starts) {
  Scrubbed out;
  out.code = text;
  const std::size_t n = text.size();
  bool in_string = false;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\' && i + 1 < n) ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '#') {
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      out.comments[line_of(line_starts, i)] += text.substr(i + 1, end - i - 1);
      blank_range(out.code, i, end);
      i = end;
    }
  }
  return out;
}

// ----------------------------------------------------------- suppressions --

// Parse every `frlfi-lint: allow(R1[, R3...])` trailer out of the
// collected comments: line -> set of waived rule numbers.
std::map<std::size_t, std::set<int>> parse_allows(
    const std::map<std::size_t, std::string>& comments) {
  std::map<std::size_t, std::set<int>> allows;
  for (const auto& [line, text] : comments) {
    std::size_t pos = 0;
    while ((pos = text.find("frlfi-lint:", pos)) != std::string::npos) {
      pos += 11;
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
      if (text.compare(pos, 6, "allow(") != 0) continue;
      pos += 6;
      while (pos < text.size() && text[pos] != ')') {
        if (text[pos] == 'R' && pos + 1 < text.size() &&
            text[pos + 1] >= '1' && text[pos + 1] <= '4') {
          allows[line].insert(text[pos + 1] - '0');
          pos += 2;
        } else {
          ++pos;
        }
      }
    }
  }
  return allows;
}

// -------------------------------------------------------------- token ops --

bool word_at(const std::string& code, std::size_t pos, const std::string& w) {
  if (code.compare(pos, w.size(), w) != 0) return false;
  if (pos > 0 && is_ident_char(code[pos - 1])) return false;
  const std::size_t end = pos + w.size();
  return end >= code.size() || !is_ident_char(code[end]);
}

std::vector<std::size_t> find_words(const std::string& code,
                                    const std::string& w) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(w, pos)) != std::string::npos) {
    if (word_at(code, pos, w)) hits.push_back(pos);
    pos += w.size();
  }
  return hits;
}

std::size_t skip_ws(const std::string& code, std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos])))
    ++pos;
  return pos;
}

// Last non-whitespace position strictly before pos, or npos.
std::size_t prev_nonspace(const std::string& code, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
  }
  return std::string::npos;
}

// Matching closer for the opener at `open` ('(', '[', '{', '<'), or npos.
std::size_t match_bracket(const std::string& code, std::size_t open) {
  const char oc = code[open];
  const char cc = oc == '(' ? ')' : oc == '[' ? ']' : oc == '{' ? '}' : '>';
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == oc) ++depth;
    else if (code[i] == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

// Identifier ending at (inclusive) position `end`, or empty.
std::string ident_ending_at(const std::string& code, std::size_t end) {
  if (end == std::string::npos || !is_ident_char(code[end])) return {};
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(code[begin - 1])) --begin;
  if (!is_ident_start(code[begin])) return {};
  return code.substr(begin, end - begin + 1);
}

// ------------------------------------------------------------- rule state --

struct Ctx {
  const std::string& path;
  const std::string& code;
  const std::vector<std::size_t>& line_starts;
  const std::map<std::size_t, std::set<int>>& allows;
  Report& report;

  void emit(int rule, std::size_t offset, std::string message) {
    Finding f;
    f.file = path;
    f.line = line_of(line_starts, offset);
    f.rule = "R" + std::to_string(rule);
    f.message = std::move(message);
    auto it = allows.find(f.line);
    f.suppressed = it != allows.end() && it->second.count(rule) > 0;
    report.findings.push_back(std::move(f));
  }
};

bool path_has_component(const std::string& path, const std::string& comp) {
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t end = path.find('/', pos);
    if (end == std::string::npos) end = path.size();
    if (path.compare(pos, end - pos, comp) == 0) return true;
    pos = end + 1;
  }
  return false;
}

// bench/ and tools/ may read wall clocks: timing harnesses measure, they
// do not decide results.
bool clock_exempt(const std::string& path) {
  return path_has_component(path, "bench") || path_has_component(path, "tools");
}

// --------------------------------------------------------------------- R1 --

bool is_member_access(const std::string& code, std::size_t word_pos) {
  const std::size_t p = prev_nonspace(code, word_pos);
  if (p == std::string::npos) return false;
  return code[p] == '.' ||
         (code[p] == '>' && p > 0 && code[p - 1] == '-');
}

bool followed_by_call(const std::string& code, std::size_t word_end) {
  const std::size_t p = skip_ws(code, word_end);
  return p < code.size() && code[p] == '(';
}

void check_r1(Ctx& ctx) {
  for (std::size_t pos : find_words(ctx.code, "random_device"))
    ctx.emit(1, pos,
             "std::random_device is nondeterministic; expand seeds through "
             "Rng::split()/derive_stream() instead");
  for (const char* fn : {"rand", "srand"})
    for (std::size_t pos : find_words(ctx.code, fn))
      if (followed_by_call(ctx.code, pos + std::string(fn).size()) &&
          !is_member_access(ctx.code, pos))
        ctx.emit(1, pos,
                 std::string(fn) +
                     "() draws from hidden global state; use a seeded Rng "
                     "stream");
  if (clock_exempt(ctx.path)) return;
  for (std::size_t pos : find_words(ctx.code, "time"))
    if (followed_by_call(ctx.code, pos + 4) &&
        !is_member_access(ctx.code, pos))
      ctx.emit(1, pos,
               "time() makes results depend on the wall clock; thread a "
               "seed or simulated time through instead");
  for (const char* clk :
       {"system_clock", "steady_clock", "high_resolution_clock"})
    for (std::size_t pos : find_words(ctx.code, clk))
      ctx.emit(1, pos,
               std::string(clk) +
                   " reads the wall clock; outside bench//tools/ results "
                   "must not depend on time");
}

// --------------------------------------------------------------------- R2 --

const char* const kAdvancingDraws[] = {"uniform", "bernoulli", "normal",
                                       "shuffle", "categorical", "next"};

// Names declared with type Rng anywhere in the file ("Rng x", "Rng& x",
// "const Rng x(..)", "vector<Rng> xs"), merged with a spelling heuristic
// (identifier contains "rng") when queried.
std::set<std::string> collect_rng_names(const std::string& code) {
  std::set<std::string> names;
  for (std::size_t pos : find_words(code, "Rng")) {
    std::size_t p = skip_ws(code, pos + 3);
    if (p < code.size() && code[p] == '>') p = skip_ws(code, p + 1);
    if (p < code.size() && code[p] == '&') p = skip_ws(code, p + 1);
    if (p < code.size() && is_ident_start(code[p])) {
      std::size_t end = p;
      while (end < code.size() && is_ident_char(code[end])) ++end;
      names.insert(code.substr(p, end - p));
    }
  }
  return names;
}

bool name_is_rng_like(const std::string& name,
                      const std::set<std::string>& declared) {
  if (declared.count(name)) return true;
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return lower.find("rng") != std::string::npos;
}

struct Captures {
  bool ref_default = false;
  std::set<std::string> by_ref;
  std::set<std::string> by_value;
};

Captures parse_captures(const std::string& list) {
  Captures caps;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t end = pos;
    int depth = 0;
    while (end < list.size() && (list[end] != ',' || depth > 0)) {
      if (list[end] == '(' || list[end] == '[' || list[end] == '{') ++depth;
      if (list[end] == ')' || list[end] == ']' || list[end] == '}') --depth;
      ++end;
    }
    std::string item = list.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    const std::size_t first = item.find_first_not_of(" \t\n");
    if (first != std::string::npos) {
      std::string head = item.substr(first, (eq == std::string::npos ? item.size() : eq) - first);
      while (!head.empty() &&
             std::isspace(static_cast<unsigned char>(head.back())))
        head.pop_back();
      if (head == "&") {
        caps.ref_default = true;
      } else if (!head.empty() && head[0] == '&') {
        caps.by_ref.insert(head.substr(1));
      } else if (!head.empty() && head != "=" && head != "this" &&
                 head != "*this") {
        caps.by_value.insert(head);
      }
    }
    pos = end + 1;
  }
  return caps;
}

struct Lambda {
  Captures caps;
  std::string params;       // parameter list text (may be empty)
  std::size_t body_begin = 0;  // offset of '{' in code
  std::size_t body_end = 0;    // offset of matching '}'
};

// Parse the lambda whose introducer '[' is at `open`. Returns false when
// the brackets do not form a lambda we can follow to a body.
bool parse_lambda(const std::string& code, std::size_t open, Lambda& out) {
  const std::size_t close = match_bracket(code, open);
  if (close == std::string::npos) return false;
  out.caps = parse_captures(code.substr(open + 1, close - open - 1));
  std::size_t p = skip_ws(code, close + 1);
  if (p < code.size() && code[p] == '(') {
    const std::size_t pclose = match_bracket(code, p);
    if (pclose == std::string::npos) return false;
    out.params = code.substr(p + 1, pclose - p - 1);
    p = skip_ws(code, pclose + 1);
  }
  // Skip specifiers / trailing return up to the body brace.
  while (p < code.size() && code[p] != '{' && code[p] != ';') ++p;
  if (p >= code.size() || code[p] != '{') return false;
  out.body_begin = p;
  out.body_end = match_bracket(code, p);
  return out.body_end != std::string::npos;
}

// '[' at pos introduces a lambda (vs an array subscript) when nothing
// value-like precedes it and something callable follows the ']'.
bool is_lambda_introducer(const std::string& code, std::size_t pos) {
  const std::size_t p = prev_nonspace(code, pos);
  if (p != std::string::npos &&
      (is_ident_char(code[p]) || code[p] == ']' || code[p] == ')'))
    return false;
  const std::size_t close = match_bracket(code, pos);
  if (close == std::string::npos) return false;
  const std::size_t after = skip_ws(code, close + 1);
  return after < code.size() && (code[after] == '(' || code[after] == '{');
}

// True when `name` is (re)declared inside `scope` — the previous
// non-space token before an occurrence is type-ish: an identifier, '&',
// '*', or a closing template '>'.
bool declared_in(const std::string& scope, const std::string& name) {
  for (std::size_t pos : find_words(scope, name)) {
    const std::size_t p = prev_nonspace(scope, pos);
    if (p == std::string::npos) continue;
    if (is_ident_char(scope[p]) || scope[p] == '&' || scope[p] == '*' ||
        scope[p] == '>')
      return true;
  }
  return false;
}

// Scan one lambda body for advancing draws on captured Rng state.
void check_lambda_draws(Ctx& ctx, const Lambda& lam,
                        const std::set<std::string>& rng_names) {
  const std::string body =
      ctx.code.substr(lam.body_begin, lam.body_end - lam.body_begin + 1);
  for (const char* method : kAdvancingDraws) {
    const std::string stem(method);
    std::vector<std::size_t> stem_hits;
    for (std::size_t pos = body.find(stem); pos != std::string::npos;
         pos = body.find(stem, pos + stem.size())) {
      // Stem match: boundary on the left only, so suffixed forms
      // (uniform_index, next_u64, ...) are caught too.
      if (pos == 0 || !is_ident_char(body[pos - 1])) stem_hits.push_back(pos);
    }
    for (std::size_t mpos : stem_hits) {
      std::size_t mend = mpos + stem.size();
      while (mend < body.size() && is_ident_char(body[mend])) ++mend;
      if (!followed_by_call(body, mend)) continue;
      // Receiver: walk back over '.'/'->' chains and index brackets to
      // the leftmost base identifier.
      std::size_t p = prev_nonspace(body, mpos);
      if (p == std::string::npos) continue;
      if (body[p] == '.') {
        p = prev_nonspace(body, p);
      } else if (body[p] == '>' && p > 0 && body[p - 1] == '-') {
        p = prev_nonspace(body, p - 1);
      } else {
        continue;  // not a member call
      }
      bool chain_rng_like = false;
      std::string base;
      while (p != std::string::npos) {
        while (p != std::string::npos && body[p] == ']') {
          const std::size_t open = body.rfind('[', p);
          if (open == std::string::npos || match_bracket(body, open) != p) {
            p = std::string::npos;
            break;
          }
          p = prev_nonspace(body, open);
        }
        if (p == std::string::npos) break;
        const std::string seg = ident_ending_at(body, p);
        if (seg.empty()) break;  // e.g. make_rng(): call-result receiver
        if (name_is_rng_like(seg, rng_names)) chain_rng_like = true;
        base = seg;
        const std::size_t q = prev_nonspace(body, p - seg.size() + 1);
        if (q != std::string::npos && body[q] == '.') {
          p = prev_nonspace(body, q);
        } else if (q != std::string::npos && body[q] == '>' && q > 0 &&
                   body[q - 1] == '-') {
          p = prev_nonspace(body, q - 1);
        } else {
          break;
        }
      }
      if (base.empty() || !chain_rng_like) continue;
      // Declared fresh inside the body or passed as a parameter: the
      // per-item-stream idiom, not shared state.
      if (declared_in(lam.params, base)) continue;
      if (declared_in(body, base)) continue;
      const bool by_ref = lam.caps.by_ref.count(base) > 0 ||
                          (lam.caps.ref_default &&
                           lam.caps.by_value.count(base) == 0);
      if (!by_ref) continue;
      ctx.emit(2, lam.body_begin + mpos,
               "advancing draw '" + base + "." +
                   body.substr(mpos, mend - mpos) +
                   "()' on reference-captured Rng state inside a "
                   "parallel_for/dispatch_lanes body; derive a per-item "
                   "stream with split()/derive_stream() instead");
    }
  }
}

void check_r2(Ctx& ctx) {
  const std::set<std::string> rng_names = collect_rng_names(ctx.code);
  for (const char* entry : {"parallel_for", "dispatch_lanes"}) {
    for (std::size_t pos : find_words(ctx.code, entry)) {
      std::size_t open = skip_ws(ctx.code, pos + std::string(entry).size());
      if (open >= ctx.code.size() || ctx.code[open] != '(') continue;
      const std::size_t close = match_bracket(ctx.code, open);
      if (close == std::string::npos) continue;

      // Lambdas written inline in the argument list.
      bool saw_lambda = false;
      for (std::size_t i = open + 1; i < close; ++i) {
        if (ctx.code[i] != '[') continue;
        if (!is_lambda_introducer(ctx.code, i)) continue;
        Lambda lam;
        if (!parse_lambda(ctx.code, i, lam) || lam.body_end > close) continue;
        check_lambda_draws(ctx, lam, rng_names);
        saw_lambda = true;
        i = lam.body_end;
      }
      if (saw_lambda) continue;

      // Bare-identifier body argument: resolve `auto body = [...]`
      // declared earlier in the file and scan that lambda.
      std::size_t arg_begin = open + 1;
      int depth = 0;
      for (std::size_t i = open + 1; i <= close; ++i) {
        const char c = ctx.code[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        else if (c == ')' || c == ']' || c == '}') --depth;
        if ((c == ',' && depth == 0) || i == close) {
          std::string arg = ctx.code.substr(arg_begin, i - arg_begin);
          const std::size_t first = arg.find_first_not_of(" \t\n");
          const std::size_t last = arg.find_last_not_of(" \t\n");
          arg = first == std::string::npos
                    ? std::string()
                    : arg.substr(first, last - first + 1);
          arg_begin = i + 1;
          if (arg.empty() || !is_ident_start(arg[0])) continue;
          if (!std::all_of(arg.begin(), arg.end(), is_ident_char)) continue;
          // Nearest preceding `arg = [` declaration.
          std::size_t decl = std::string::npos;
          for (std::size_t cand : find_words(ctx.code, arg)) {
            if (cand >= pos) break;
            std::size_t q = skip_ws(ctx.code, cand + arg.size());
            if (q < ctx.code.size() && ctx.code[q] == '=') {
              q = skip_ws(ctx.code, q + 1);
              if (q < ctx.code.size() && ctx.code[q] == '[') decl = q;
            }
          }
          if (decl == std::string::npos) continue;
          Lambda lam;
          if (parse_lambda(ctx.code, decl, lam))
            check_lambda_draws(ctx, lam, rng_names);
        }
      }
    }
  }
}

// --------------------------------------------------------------------- R3 --

std::set<std::string> collect_unordered_names(const std::string& code) {
  std::set<std::string> names;
  for (const char* type : {"unordered_map", "unordered_set",
                           "unordered_multimap", "unordered_multiset"}) {
    for (std::size_t pos : find_words(code, type)) {
      std::size_t p = skip_ws(code, pos + std::string(type).size());
      if (p < code.size() && code[p] == '<') {
        const std::size_t close = match_bracket(code, p);
        if (close == std::string::npos) continue;
        p = skip_ws(code, close + 1);
      }
      if (p < code.size() && code[p] == '&') p = skip_ws(code, p + 1);
      if (p < code.size() && is_ident_start(code[p])) {
        std::size_t end = p;
        while (end < code.size() && is_ident_char(code[end])) ++end;
        names.insert(code.substr(p, end - p));
      }
    }
  }
  return names;
}

void check_r3(Ctx& ctx) {
  const std::set<std::string> unordered = collect_unordered_names(ctx.code);
  for (std::size_t pos : find_words(ctx.code, "for")) {
    const std::size_t open = skip_ws(ctx.code, pos + 3);
    if (open >= ctx.code.size() || ctx.code[open] != '(') continue;
    const std::size_t close = match_bracket(ctx.code, open);
    if (close == std::string::npos) continue;
    // Range-for separator: ':' at top paren depth that is not '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = ctx.code[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ';' && depth == 0) break;  // classic for
      else if (c == ':' && depth == 0) {
        if (ctx.code[i - 1] == ':' || ctx.code[i + 1] == ':') {
          ++i;  // '::' qualifier
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = ctx.code.substr(colon + 1, close - colon - 1);
    bool hit = range.find("unordered_map") != std::string::npos ||
               range.find("unordered_set") != std::string::npos;
    if (!hit) {
      for (std::size_t i = 0; i < range.size() && !hit; ++i) {
        if (!is_ident_start(range[i]) ||
            (i > 0 && is_ident_char(range[i - 1])))
          continue;
        std::size_t end = i;
        while (end < range.size() && is_ident_char(range[end])) ++end;
        hit = unordered.count(range.substr(i, end - i)) > 0;
        i = end;
      }
    }
    if (hit)
      ctx.emit(3, colon,
               "range-for over an unordered container: iteration order is "
               "unspecified, so order-dependent accumulation is not "
               "reproducible; iterate a sorted view or use an ordered "
               "container");
  }
}

// --------------------------------------------------------------------- R4 --

const char* const kFastMathFlags[] = {
    "-ffast-math",           "-Ofast",
    "-funsafe-math-optimizations", "-fassociative-math",
    "-freciprocal-math",     "-ffp-contract=fast",
    "-menable-unsafe-fp-math"};

bool contains_ci(const std::string& hay, const std::string& needle) {
  auto it = std::search(hay.begin(), hay.end(), needle.begin(), needle.end(),
                        [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                        });
  return it != hay.end();
}

void check_r4_cpp(Ctx& ctx, const std::string& original) {
  // Pragmas are located in the scrubbed code (so commented-out ones do
  // not fire), but inspected on the original line (the interesting bits
  // of `optimize("fast-math")` live in a string literal).
  std::size_t pos = 0;
  while ((pos = ctx.code.find("#", pos)) != std::string::npos) {
    const std::size_t directive = skip_ws(ctx.code, pos + 1);
    if (!word_at(ctx.code, directive, "pragma")) {
      ++pos;
      continue;
    }
    std::size_t eol = ctx.code.find('\n', pos);
    if (eol == std::string::npos) eol = ctx.code.size();
    const std::string scrubbed_line = ctx.code.substr(pos, eol - pos);
    const std::string original_line = original.substr(pos, eol - pos);
    if (contains_ci(scrubbed_line, "reduction") &&
        (contains_ci(scrubbed_line, "omp") ||
         contains_ci(scrubbed_line, "simd")))
      ctx.emit(4, pos,
               "reduction-reordering pragma: the reduction-tree shape "
               "(and thus float rounding) follows the vector width, "
               "breaking cross-build bit-identity");
    else if (contains_ci(scrubbed_line, "FP_CONTRACT") &&
             (contains_ci(scrubbed_line, "ON") ||
              contains_ci(scrubbed_line, "FAST")))
      ctx.emit(4, pos,
               "FP_CONTRACT ON fuses a*b+c into FMA, drifting from the "
               "portable baseline rounding");
    else if (contains_ci(original_line, "fast-math") ||
             contains_ci(original_line, "Ofast"))
      ctx.emit(4, pos,
               "fast-math pragma licenses value-changing float "
               "reassociation; campaigns must stay bit-reproducible");
    pos = eol;
  }
}

void check_r4_cmake(Ctx& ctx) {
  for (const char* flag : kFastMathFlags) {
    std::size_t pos = 0;
    while ((pos = ctx.code.find(flag, pos)) != std::string::npos) {
      // Flag token boundary: not part of a longer flag on either side.
      const std::size_t end = pos + std::string(flag).size();
      const bool clean_end = end >= ctx.code.size() ||
                             (!is_ident_char(ctx.code[end]) &&
                              ctx.code[end] != '-' && ctx.code[end] != '=');
      if (clean_end)
        ctx.emit(4, pos,
                 std::string(flag) +
                     " licenses value-changing float reassociation; the "
                     "build must stay bit-reproducible (see the "
                     "-ffp-contract policy in the root CMakeLists)");
      pos = end;
    }
  }
}

// ------------------------------------------------------------------ files --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("frlfi_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_cpp_file(const std::string& name) {
  for (const char* ext : {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".ipp"})
    if (has_suffix(name, ext)) return true;
  return false;
}

bool is_cmake_file(const std::string& name) {
  return has_suffix(name, "CMakeLists.txt") || has_suffix(name, ".cmake");
}

}  // namespace

std::size_t Report::active_count() const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (!f.suppressed) ++n;
  return n;
}

std::size_t Report::suppressed_count() const {
  return findings.size() - active_count();
}

void Report::append(const Report& other) {
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
  files_scanned += other.files_scanned;
}

Report lint_cpp_source(const std::string& path, const std::string& text,
                       const Options& opt) {
  Report report;
  report.files_scanned = 1;
  const std::vector<std::size_t> line_starts = index_lines(text);
  const Scrubbed scrub = scrub_cpp(text, line_starts);
  const auto allows = parse_allows(scrub.comments);
  Ctx ctx{path, scrub.code, line_starts, allows, report};
  if (opt.rule_enabled(1)) check_r1(ctx);
  if (opt.rule_enabled(2)) check_r2(ctx);
  if (opt.rule_enabled(3)) check_r3(ctx);
  if (opt.rule_enabled(4)) check_r4_cpp(ctx, text);
  return report;
}

Report lint_cmake_source(const std::string& path, const std::string& text,
                         const Options& opt) {
  Report report;
  report.files_scanned = 1;
  const std::vector<std::size_t> line_starts = index_lines(text);
  const Scrubbed scrub = scrub_cmake(text, line_starts);
  const auto allows = parse_allows(scrub.comments);
  Ctx ctx{path, scrub.code, line_starts, allows, report};
  if (opt.rule_enabled(4)) check_r4_cmake(ctx);
  return report;
}

Report lint_path(const std::string& path, const Options& opt) {
  namespace fs = std::filesystem;
  Report report;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec) throw std::runtime_error("frlfi_lint: cannot stat " + path);

  std::vector<std::string> files;
  if (fs::is_directory(st)) {
    fs::recursive_directory_iterator it(path, ec), end;
    if (ec) throw std::runtime_error("frlfi_lint: cannot open " + path);
    for (; it != end; ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory()) {
        // Build trees and VCS/metadata dirs are not ours to police.
        if (name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.'))
          it.disable_recursion_pending();
        continue;
      }
      if (is_cpp_file(name) || is_cmake_file(name))
        files.push_back(it->path().generic_string());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }

  for (const std::string& file : files) {
    const std::string text = read_file(file);
    if (is_cmake_file(file))
      report.append(lint_cmake_source(file, text, opt));
    else
      report.append(lint_cpp_source(file, text, opt));
  }
  return report;
}

}  // namespace frlfi_lint
