/// \file rules.cpp
/// \brief The five contract rules enforced by redmule-lint.
///
/// Each rule is the machine-checked form of a contract documented in
/// docs/ARCHITECTURE.md ("Enforced contracts" maps them one-to-one). Rules
/// work on blanked code text (never inside comments or string literals) and
/// report findings that are individually suppressible with
/// `// redmule-lint: allow(<rule>) reason` or an allowlist.conf entry.
#include <array>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "lint.hpp"

namespace redmule::lintool {

namespace {

// Plain token scans. Each pattern below is matched left to right by hand;
// "word" means [A-Za-z0-9_] and "space" the C-locale isspace set. The start
// of the scanned text counts as a word boundary.

constexpr size_t npos = std::string::npos;

bool is_word(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

size_t skip_space(std::string_view s, size_t i) {
  while (i < s.size() && is_space(s[i])) ++i;
  return i;
}

size_t word_end(std::string_view s, size_t i) {
  while (i < s.size() && is_word(s[i])) ++i;
  return i;
}

/// True when a word starting at \p i would start at a word boundary.
bool word_start(std::string_view s, size_t i) { return i == 0 || !is_word(s[i - 1]); }

bool at(std::string_view s, size_t i, char c) { return i < s.size() && s[i] == c; }

bool at(std::string_view s, size_t i, std::string_view t) {
  return i <= s.size() && s.substr(i).starts_with(t);
}

/// The whole word starting at \p i (empty when none starts there).
std::string_view word_at(std::string_view s, size_t i) {
  return i < s.size() ? s.substr(i, word_end(s, i) - i) : std::string_view();
}

/// `name (`: \p name at a word boundary, then optional space and '('. With
/// \p member_ok false, `x.name(` does not count (a member call on some
/// other object is not the banned free function).
bool has_call(std::string_view s, std::string_view name, bool member_ok) {
  for (size_t pos = s.find(name); pos != npos; pos = s.find(name, pos + 1)) {
    if (pos > 0 && (is_word(s[pos - 1]) || (!member_ok && s[pos - 1] == '.'))) continue;
    if (at(s, skip_space(s, pos + name.size()), '(')) return true;
  }
  return false;
}

/// Whole-word search; returns the match offset or npos.
size_t find_word(std::string_view text, std::string_view word) {
  for (size_t pos = text.find(word); pos != npos; pos = text.find(word, pos + 1))
    if (word_start(text, pos) && !(pos + word.size() < text.size() && is_word(text[pos + word.size()])))
      return pos;
  return npos;
}

bool contains_word(std::string_view text, std::string_view word) {
  return find_word(text, word) != npos;
}

/// Scan forward from `open` (which must index a '(') to its matching ')'.
/// Returns npos when unbalanced.
size_t match_paren(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    else if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

size_t match_brace(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    else if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule 1: typed-errors.
// ---------------------------------------------------------------------------

class TypedErrorsRule final : public Rule {
 public:
  const char* name() const override { return "typed-errors"; }
  const char* description() const override {
    return "all failure paths in src/ throw the typed exceptions from "
           "common/check.hpp (redmule::Error and refinements) or the api:: "
           "taxonomy; raw std:: exceptions and bare `throw` are banned";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      if (const std::optional<std::string> what = raw_std_throw(line))
        out->push_back({name(), f.path, static_cast<int>(i) + 1,
                        "raw `throw std::" + *what +
                            "`: failure paths must throw the typed errors from "
                            "common/check.hpp (redmule::Error / TimeoutError / "
                            "CapacityError) or api::TypedError so the service "
                            "can classify them by type"});
      if (bare_throw(line))
        out->push_back({name(), f.path, static_cast<int>(i) + 1,
                        "bare `throw`: rethrowing erases the throw site from the "
                        "failure contract; catch, wrap in a typed error, and "
                        "throw that instead"});
    }
  }

 private:
  /// `throw [::]std::<standard exception>`: the exception's name, or none.
  static std::optional<std::string> raw_std_throw(std::string_view line) {
    static const std::set<std::string_view> kStd = {
        "runtime_error", "logic_error", "invalid_argument", "out_of_range",
        "domain_error",  "length_error", "range_error",     "exception"};
    for (size_t pos = line.find("throw"); pos != npos; pos = line.find("throw", pos + 1)) {
      size_t i = pos + 5;
      if (!word_start(line, pos) || i >= line.size() || !is_space(line[i])) continue;
      i = skip_space(line, i);
      if (at(line, i, "::")) i = skip_space(line, i + 2);
      if (!at(line, i, "std")) continue;
      i = skip_space(line, i + 3);
      if (!at(line, i, "::")) continue;
      const std::string_view what = word_at(line, skip_space(line, i + 2));
      if (kStd.count(what)) return std::string(what);
    }
    return std::nullopt;
  }

  /// `throw;`
  static bool bare_throw(std::string_view line) {
    for (size_t pos = line.find("throw"); pos != npos; pos = line.find("throw", pos + 1))
      if (word_start(line, pos) && at(line, skip_space(line, pos + 5), ';')) return true;
    return false;
  }
};

// ---------------------------------------------------------------------------
// Rule 2: determinism.
// ---------------------------------------------------------------------------

/// Modules whose code feeds simulated results, hashes, or committed bench
/// artifacts. serve/ and api/ are excluded: their wall-clock use (timers,
/// deadlines) is part of their contract and never reaches a result.
const std::set<std::string>& determinism_modules() {
  static const std::set<std::string> m = {"common", "core",  "fp16",      "isa",
                                          "mem",    "model", "sim",       "workloads",
                                          "cluster", "shard", "state"};
  return m;
}

class DeterminismRule final : public Rule {
 public:
  const char* name() const override { return "determinism"; }
  const char* description() const override {
    return "result-producing modules draw all randomness from the seeded "
           "common/rng surface and never read wall clocks or the environment; "
           "unordered-container iteration must not feed results or hashes "
           "(hash order is not part of the determinism contract)";
  }
  void check(const Repo& repo, const SourceFile& f, std::vector<Finding>* out) const override {
    if (!determinism_modules().count(f.module_name)) return;
    // A banned call matches only as a call (`name(`): a member call on some
    // other object (`cfg.time(...)`) is not libc time(), but the
    // `std::`-qualified form still counts. `now()` is banned in every
    // calling form -- wall clocks are only ever reached as `Clock::now()`.
    // The last three are banned wherever their word appears.
    struct Banned {
      const char* token;
      enum { kCall, kAnyCall, kWord } form;
      const char* what;
    };
    static const std::array<Banned, 8> kBanned = {{
        {"rand", Banned::kCall, "rand()"},
        {"srand", Banned::kCall, "srand()"},
        {"random_device", Banned::kWord, "std::random_device"},
        {"time", Banned::kCall, "time()"},
        {"now", Banned::kAnyCall, "a wall-clock now()"},
        {"getenv", Banned::kCall, "getenv()"},
        {"rand_r", Banned::kWord, "rand_r()"},
        {"drand48", Banned::kWord, "drand48()"},
    }};
    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      for (const Banned& b : kBanned) {
        const bool hit = b.form == Banned::kWord
                             ? contains_word(line, b.token)
                             : has_call(line, b.token, b.form == Banned::kAnyCall);
        if (hit)
          out->push_back({name(), f.path, static_cast<int>(i) + 1,
                          std::string("nondeterministic source ") + b.what +
                              " in a result-producing module: use the seeded "
                              "common/rng surface (split_seed) instead, or "
                              "annotate a wall-deadline site with a reason"});
      }
    }
    check_unordered_iteration(repo, f, out);
  }

 private:
  /// `unordered_{map,set,multimap,multiset} <`: the offset of the '<', or
  /// npos.
  static size_t find_unordered_decl(std::string_view s) {
    for (size_t pos = s.find("unordered_"); pos != npos; pos = s.find("unordered_", pos + 1)) {
      if (!word_start(s, pos)) continue;
      const std::string_view kind = word_at(s, pos).substr(10);
      if (kind != "map" && kind != "set" && kind != "multimap" && kind != "multiset") continue;
      const size_t open = skip_space(s, pos + 10 + kind.size());
      if (at(s, open, '<')) return open;
    }
    return npos;
  }

  /// The name a declaration's tail starts with: `[&] name` followed by one
  /// of `;={(,` or the end of the text.
  static std::optional<std::string> declared_name(std::string_view s) {
    size_t i = skip_space(s, 0);
    if (at(s, i, '&')) i = skip_space(s, i + 1);
    const std::string_view name = word_at(s, i);
    if (name.empty()) return std::nullopt;
    const size_t next = skip_space(s, i + name.size());
    if (next < s.size() && std::string_view(";={(,").find(s[next]) == npos) return std::nullopt;
    return std::string(name);
  }

  /// Names declared with an unordered container in one file.
  static void collect_unordered_names(const SourceFile& f, std::set<std::string>* names) {
    for (const std::string& line : f.code_lines) {
      std::string rest = line;
      for (size_t open = find_unordered_decl(rest); open != npos;
           open = find_unordered_decl(rest)) {
        // Balance the template angle brackets to find the declared name.
        int depth = 0;
        size_t end = npos;
        for (size_t i = open; i < rest.size(); ++i) {
          if (rest[i] == '<') ++depth;
          else if (rest[i] == '>' && --depth == 0) {
            end = i;
            break;
          }
        }
        if (end == npos) break;  // declaration spans lines
        std::string after = rest.substr(end + 1);
        if (const std::optional<std::string> n = declared_name(after)) names->insert(*n);
        rest = after;
      }
    }
  }

  void check_unordered_iteration(const Repo& repo, const SourceFile& f,
                                 std::vector<Finding>* out) const {
    // Names visible to this file: its own declarations plus those of its
    // direct includes (members are typically declared in the header and
    // iterated in the matching .cpp). Deliberately not repo-wide: an
    // unrelated file's short local name must not taint this file's loops.
    std::set<std::string> names;
    collect_unordered_names(f, &names);
    for (const IncludeEdge& inc : f.includes) {
      const SourceFile* h = repo.find("src/" + inc.target);
      if (h) collect_unordered_names(*h, &names);
    }
    if (names.empty()) return;
    const std::string& text = f.code_text;
    // Every `for (`, from the start of the file and then after each loop
    // head.
    size_t from = 0;
    for (size_t open = find_for_paren(text, from); open != npos;
         open = find_for_paren(text, from)) {
      size_t close = match_paren(text, open);
      if (close == std::string::npos) break;
      std::string head = text.substr(open + 1, close - open - 1);
      // Find a range-for ':' that is not part of '::'.
      size_t colon = std::string::npos;
      for (size_t i = 0; i < head.size(); ++i) {
        if (head[i] != ':') continue;
        if ((i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':')) {
          ++i;
          continue;
        }
        colon = i;
        break;
      }
      if (colon != std::string::npos) {
        std::string range = head.substr(colon + 1);
        for (const std::string& n : names) {
          size_t w = find_word(range, n);
          if (w == std::string::npos) continue;
          // `signals_.at(key)` / `signals_[key]` iterate the mapped VALUE,
          // not the unordered container itself: skip element-access forms.
          size_t after = range.find_first_not_of(" \t", w + n.size());
          if (after != std::string::npos &&
              (range[after] == '[' ||
               range.compare(after, 4, ".at(") == 0 ||
               range.compare(after, 5, "->at(") == 0 ||
               range.compare(after, 6, ".find(") == 0))
            continue;
          {
            out->push_back(
                {name(), f.path, f.line_of(open),
                 "range-for over unordered container `" + n +
                     "`: iteration order is hash-order and may feed results or "
                     "hashes; iterate a sorted copy (or sort afterwards with a "
                     "total order), or annotate with a reason"});
            break;
          }
        }
      }
      from = close;
    }
  }

  /// The '(' of the first `for (` at or after \p from, or npos.
  static size_t find_for_paren(std::string_view text, size_t from) {
    for (size_t pos = text.find("for", from); pos != npos; pos = text.find("for", pos + 1)) {
      if (!word_start(text, pos)) continue;
      const size_t open = skip_space(text, pos + 3);
      if (at(text, open, '(')) return open;
    }
    return npos;
  }
};

// ---------------------------------------------------------------------------
// Rule 3: layering.
// ---------------------------------------------------------------------------

/// The declared one-direction module map. An entry lists the modules a
/// module may directly #include (itself is always allowed). This is the
/// intended architecture from docs/ARCHITECTURE.md: common is the base;
/// sim's clocking/trace/run-control infrastructure sits below the memory
/// and compute hierarchy; cluster composes the hardware; workloads lower
/// math onto it; api is the typed public surface; shard orchestrates
/// multi-cluster execution through api's pool engine; serve speaks only
/// api. Notable non-edges enforced here: core -> cluster, api -> sim (the
/// old CI grep), api -> shard (registration is shard-side), serve ->
/// anything but api/common.
const std::map<std::string, std::set<std::string>>& module_map() {
  static const std::map<std::string, std::set<std::string>> m = {
      {"common", {}},
      {"fp16", {"common"}},
      {"sim", {"common"}},
      {"mem", {"common", "sim"}},
      {"core", {"common", "fp16", "mem", "sim"}},
      {"isa", {"common", "fp16", "mem", "sim"}},
      {"model", {"common", "core"}},
      {"workloads", {"common", "core", "fp16"}},
      {"cluster", {"common", "core", "isa", "mem", "sim", "workloads"}},
      {"state", {"common", "core", "isa", "mem", "sim", "cluster"}},
      {"api", {"common", "core", "cluster", "workloads", "state"}},
      {"shard", {"common", "core", "cluster", "workloads", "api"}},
      {"serve", {"common", "api"}},
  };
  return m;
}

class LayeringRule final : public Rule {
 public:
  const char* name() const override { return "layering"; }
  const char* description() const override {
    return "every quoted #include under src/ must resolve and respect the "
           "declared one-direction module map (common -> {fp16,sim} -> mem -> "
           "{core,isa} -> cluster -> api -> serve; workloads between core and "
           "cluster); replaces the old `grep '#include \"sim/'` CI step with "
           "a complete include-graph check";
  }
  void check(const Repo& repo, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    const auto& map = module_map();
    auto self = map.find(f.module_name);
    if (self == map.end()) {
      out->push_back({name(), f.path, 1,
                      "module `" + f.module_name +
                          "` is not in the declared module map (tools/lint/"
                          "rules.cpp module_map); declare its allowed "
                          "dependencies before adding code to it"});
      return;
    }
    for (const IncludeEdge& inc : f.includes) {
      size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      std::string target_module = inc.target.substr(0, slash);
      if (!map.count(target_module)) continue;  // not a src module path
      if (!repo.include_resolves(inc.target)) {
        out->push_back({name(), f.path, inc.line,
                        "#include \"" + inc.target +
                            "\" does not resolve to a file under src/"});
        continue;
      }
      if (target_module == f.module_name) continue;
      if (!self->second.count(target_module))
        out->push_back({name(), f.path, inc.line,
                        "layering violation: module `" + f.module_name +
                            "` must not include `" + target_module +
                            "` (allowed: itself" + allowed_list(self->second) +
                            "); see the module map in docs/ARCHITECTURE.md"});
    }
  }

 private:
  static std::string allowed_list(const std::set<std::string>& allowed) {
    std::string s;
    for (const std::string& a : allowed) s += ", " + a;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Rule 4: trust-boundary.
// ---------------------------------------------------------------------------

class TrustBoundaryRule final : public Rule {
 public:
  const char* name() const override { return "trust-boundary"; }
  const char* description() const override {
    return "in src/serve, any allocation sized from wire-derived bytes "
           "(Reader u8/u32/u64 accessors, memcpy'd length fields) must be "
           "preceded by a cap check against a kMax*/max_*_bytes bound -- "
           "cap-before-alloc at the trust boundary";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name != "serve") return;

    // Taint: variables assigned from wire accessors or length memcpys.
    struct Taint {
      std::string var;
      int line;
    };
    std::vector<Taint> taints;
    // Guard: a comparison of the tainted value against a declared cap.
    std::map<std::string, std::vector<int>> guards;

    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      size_t end = 0;
      for (std::string_view rest = line;; rest.remove_prefix(end)) {
        const std::optional<std::string> var = accessor_assignment(rest, &end);
        if (!var) break;
        taints.push_back({*var, static_cast<int>(i) + 1});
      }
      if (const std::optional<std::string> var = memcpy_target(line))
        taints.push_back({*var, static_cast<int>(i) + 1});
      if ((line.find('<') != std::string::npos || line.find('>') != std::string::npos) &&
          has_cap_word(line)) {
        for (const Taint& t : taints)
          if (contains_word(line, t.var)) guards[t.var].push_back(static_cast<int>(i) + 1);
      }
    }
    if (taints.empty()) return;

    // Allocations whose size expression mentions a tainted variable.
    const std::string& text = f.code_text;
    size_t match_pos = 0, match_len = 0;
    for (size_t from = 0; find_alloc(text, from, &match_pos, &match_len);
         from = match_pos + match_len) {
      size_t open = text.find_first_of("([", match_pos + match_len - 1);
      std::string args;
      if (open != std::string::npos && text[open] == '(') {
        size_t close = match_paren(text, open);
        if (close != std::string::npos) args = text.substr(open, close - open + 1);
      } else if (open != std::string::npos) {
        size_t close = text.find(']', open);
        if (close != std::string::npos) args = text.substr(open, close - open + 1);
      }
      // The match may already contain '(' -- recover the argument span from
      // the first paren/bracket at or after the match.
      size_t span_start = text.find_first_of("([", match_pos);
      if (span_start != std::string::npos && span_start < match_pos + match_len + 2) {
        if (text[span_start] == '(') {
          size_t close = match_paren(text, span_start);
          if (close != std::string::npos)
            args = text.substr(span_start, close - span_start + 1);
        }
      }
      int alloc_line = f.line_of(match_pos);
      for (const Taint& t : taints) {
        if (t.line > alloc_line) continue;
        if (alloc_line - t.line > 60) continue;  // far outside any one function
        if (!contains_word(args, t.var)) continue;
        bool guarded = false;
        auto g = guards.find(t.var);
        if (g != guards.end())
          for (int gl : g->second)
            if (gl >= t.line && gl <= alloc_line) guarded = true;
        if (!guarded)
          out->push_back({name(), f.path, alloc_line,
                          "allocation sized from wire-derived `" + t.var +
                              "` (read at line " + std::to_string(t.line) +
                              ") without a preceding cap check: compare "
                              "against a kMax*/max_*_bytes bound before "
                              "allocating (cap-before-alloc)"});
      }
    }
  }

 private:
  /// `var = [obj. | obj->] u8|u16|u32|u64|i32|i64 ( )`, where \p s has a
  /// word boundary before its first character: the leftmost var, with
  /// *end set just past the ')'.
  static std::optional<std::string> accessor_assignment(std::string_view s, size_t* end) {
    static const std::set<std::string_view> kAccessors = {"u8",  "u16", "u32",
                                                          "u64", "i32", "i64"};
    // The accessor call at \p i; returns the offset past its ')' or npos.
    const auto call_end = [&](size_t i) {
      const std::string_view acc = word_at(s, i);
      if (!kAccessors.count(acc)) return npos;
      i = skip_space(s, i + acc.size());
      if (!at(s, i, '(')) return npos;
      i = skip_space(s, i + 1);
      return at(s, i, ')') ? i + 1 : npos;
    };
    for (size_t pos = 0; pos < s.size(); ++pos) {
      if (!is_word(s[pos]) || !word_start(s, pos)) continue;
      const std::string_view var = word_at(s, pos);
      size_t i = skip_space(s, pos + var.size());
      if (!at(s, i, '=')) continue;
      i = skip_space(s, i + 1);
      // An `obj.` / `obj->` receiver, when one is there and an accessor
      // follows it; otherwise the accessor itself.
      size_t done = npos;
      const std::string_view obj = word_at(s, i);
      if (!obj.empty()) {
        const size_t dot = skip_space(s, i + obj.size());
        const size_t sep = at(s, dot, '.') ? 1 : at(s, dot, "->") ? 2 : 0;
        if (sep != 0) done = call_end(skip_space(s, dot + sep));
      }
      if (done == npos) done = call_end(i);
      if (done != npos) {
        *end = done;
        return std::string(var);
      }
    }
    return std::nullopt;
  }

  /// `memcpy ( & var`: the first such var.
  static std::optional<std::string> memcpy_target(std::string_view line) {
    for (size_t pos = line.find("memcpy"); pos != npos; pos = line.find("memcpy", pos + 1)) {
      size_t i = skip_space(line, pos + 6);
      if (!at(line, i, '(')) continue;
      i = skip_space(line, i + 1);
      if (!at(line, i, '&')) continue;
      const std::string_view var = word_at(line, skip_space(line, i + 1));
      if (!var.empty()) return std::string(var);
    }
    return std::nullopt;
  }

  /// A word naming a cap: kName (k then an upper-case letter), max_<...>,
  /// or <...>_cap.
  static bool has_cap_word(std::string_view line) {
    for (size_t i = 0; i < line.size();) {
      if (!is_word(line[i])) {
        ++i;
        continue;
      }
      const std::string_view w = word_at(line, i);
      if ((w.size() >= 2 && w[0] == 'k' && w[1] >= 'A' && w[1] <= 'Z') ||
          (w.size() > 4 && w.starts_with("max_")) || w.ends_with("_cap"))
        return true;
      i += w.size();
    }
    return false;
  }

  /// The first allocation at or after \p from: `.resize(` and the other
  /// growing members (also through `->`), `new T[` (T may carry template
  /// arguments), or a `std::string` / `std::vector<...>` constructed with
  /// arguments (`std::string name(`). Sets the match's offset and length.
  static bool find_alloc(std::string_view text, size_t from, size_t* pos, size_t* len) {
    static const std::set<std::string_view> kGrow = {"resize", "reserve", "assign",
                                                     "append", "insert"};
    // The last '>' before the first of \p stops after \p open, if only
    // space follows it up to that stop and the stop is \p want; returns the
    // stop's offset or npos.
    const auto close_template = [&](size_t open, const char* stops, char want) {
      const size_t stop = text.find_first_of(stops, open + 1);
      if (stop == npos || text[stop] != want) return npos;
      const size_t gt = text.rfind('>', stop);
      return gt != npos && gt > open ? gt : npos;
    };
    // \p p: the match start. Returns the offset past the match, or npos.
    const auto member_grow = [&](size_t p) {
      const size_t sep = at(text, p, '.') ? 1 : at(text, p, "->") ? 2 : 0;
      if (sep == 0) return npos;
      const size_t i = skip_space(text, p + sep);
      const std::string_view name = word_at(text, i);
      if (!kGrow.count(name)) return npos;
      const size_t paren = skip_space(text, i + name.size());
      return at(text, paren, '(') ? paren + 1 : npos;
    };
    const auto new_array = [&](size_t p) {
      if (word_at(text, p) != "new" || !word_start(text, p) || p + 3 >= text.size() ||
          !is_space(text[p + 3]))
        return npos;
      size_t i = skip_space(text, p + 3), type_end = i;
      while (type_end < text.size() && (is_word(text[type_end]) || text[type_end] == ':'))
        ++type_end;
      if (type_end == i) return npos;
      i = skip_space(text, type_end);
      if (at(text, i, '<')) {
        const size_t gt = close_template(i, ";[", '[');
        if (gt == npos) return npos;
        i = skip_space(text, gt + 1);
      }
      return at(text, i, '[') ? i + 1 : npos;
    };
    const auto std_container = [&](size_t p) {
      if (!at(text, p, "std") || !word_start(text, p)) return npos;
      size_t i = skip_space(text, p + 3);
      if (!at(text, i, "::")) return npos;
      i = skip_space(text, i + 2);
      if (at(text, i, "string")) {
        i += 6;
      } else if (at(text, i, "vector")) {
        i = skip_space(text, i + 6);
        if (!at(text, i, '<')) return npos;
        i = close_template(i, ";(", '(');
        if (i == npos) return npos;
        ++i;
      } else {
        return npos;
      }
      if (i >= text.size() || !is_space(text[i])) return npos;
      i = skip_space(text, i);
      const std::string_view name = word_at(text, i);
      if (name.empty()) return npos;
      const size_t paren = skip_space(text, i + name.size());
      return at(text, paren, '(') ? paren + 1 : npos;
    };
    for (size_t p = from; p < text.size(); ++p) {
      size_t end = member_grow(p);
      if (end == npos) end = new_array(p);
      if (end == npos) end = std_container(p);
      if (end != npos) {
        *pos = p;
        *len = end - p;
        return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Rule 5: clocking.
// ---------------------------------------------------------------------------

class ClockingRule final : public Rule {
 public:
  const char* name() const override { return "clocking"; }
  const char* description() const override {
    return "every direct subclass of sim::Clocked must override both reset() "
           "(reset-equals-constructed) and is_idle() (the idle-skip "
           "quiescence protocol) -- a module missing either silently breaks "
           "pooled reuse or the fast-forward path";
  }
  void check(const Repo&, const SourceFile& f, std::vector<Finding>* out) const override {
    if (f.module_name.empty()) return;
    const std::string& text = f.code_text;
    size_t head_pos = 0, head_len = 0;
    std::string cls;
    for (size_t from = 0; find_class_head(text, from, &head_pos, &head_len, &cls);
         from = head_pos + head_len) {
      size_t bases_begin = head_pos + head_len;
      size_t body_open = text.find_first_of("{;", bases_begin);
      if (body_open == std::string::npos) break;
      std::string bases = text.substr(bases_begin, body_open - bases_begin);
      if (text[body_open] == '{' && cls != "Clocked" && contains_word(bases, "Clocked")) {
        size_t body_close = match_brace(text, body_open);
        std::string body = body_close == std::string::npos
                               ? text.substr(body_open)
                               : text.substr(body_open, body_close - body_open + 1);
        std::string missing;
        if (!has_call(body, "reset", true)) missing = "reset()";
        if (!has_call(body, "is_idle", true))
          missing += missing.empty() ? "is_idle()" : " and is_idle()";
        if (!missing.empty())
          out->push_back({name(), f.path, f.line_of(head_pos),
                          "Clocked subclass `" + cls + "` does not override " +
                              missing +
                              ": every clocked module must implement the "
                              "reset-equals-constructed contract and the "
                              "idle-skip quiescence protocol"});
      }
    }
  }

 private:
  /// The first `class|struct Name [final] :` at or after \p from: its
  /// offset and length (through the ':') and the class name.
  static bool find_class_head(std::string_view text, size_t from, size_t* pos, size_t* len,
                              std::string* cls) {
    for (size_t p = from; p < text.size(); ++p) {
      if (!is_word(text[p]) || !word_start(text, p)) continue;
      const std::string_view kw = word_at(text, p);
      const size_t after_kw = p + kw.size();
      if ((kw != "class" && kw != "struct") || after_kw >= text.size() ||
          !is_space(text[after_kw]))
        continue;
      const size_t name_at = skip_space(text, after_kw);
      const std::string_view name = word_at(text, name_at);
      if (name.empty()) continue;
      size_t colon = skip_space(text, name_at + name.size());
      if (!at(text, colon, ':') && at(text, colon, "final")) colon = skip_space(text, colon + 5);
      if (!at(text, colon, ':')) continue;
      *pos = p;
      *len = colon + 1 - p;
      *cls = std::string(name);
      return true;
    }
    return false;
  }
};

}  // namespace

std::vector<const Rule*> all_rules() {
  static const TypedErrorsRule typed_errors;
  static const DeterminismRule determinism;
  static const LayeringRule layering;
  static const TrustBoundaryRule trust_boundary;
  static const ClockingRule clocking;
  return {&typed_errors, &determinism, &layering, &trust_boundary, &clocking};
}

}  // namespace redmule::lintool
