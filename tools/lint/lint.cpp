/// \file lint.cpp
/// \brief redmule-lint framework: file loading, tokenization, suppressions.
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace redmule::lintool {

namespace {

std::string to_forward_slashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

bool read_lines(const fs::path& p, std::vector<std::string>* out, std::string* error) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + p.string();
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out->push_back(line);
  }
  return true;
}

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenization: blank comments and literal contents, keep offsets stable.
// ---------------------------------------------------------------------------

std::vector<std::string> blank_noncode(const std::vector<std::string>& raw_lines) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::vector<std::string> out;
  out.reserve(raw_lines.size());
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  for (const std::string& raw : raw_lines) {
    std::string line = raw;
    size_t i = 0;
    if (state == State::kLineComment) state = State::kCode;  // ended at newline
    while (i < line.size()) {
      char c = line[i];
      char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            line[i] = line[i + 1] = ' ';
            i += 2;
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            line[i] = line[i + 1] = ' ';
            i += 2;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                                 line[i - 1] != '_'))) {
            // Raw string literal: R"delim( ... )delim"
            size_t paren = line.find('(', i + 2);
            if (paren == std::string::npos) {
              ++i;  // malformed; treat as code
              break;
            }
            raw_delim = ")";
            raw_delim.append(line, i + 2, paren - (i + 2));
            raw_delim += '"';
            for (size_t k = i + 1; k <= paren && k < line.size(); ++k) line[k] = ' ';
            i = paren + 1;
            state = State::kRawString;
          } else if (c == '"') {
            state = State::kString;
            ++i;
          } else if (c == '\'') {
            // Heed digit separators (1'000'000): a quote between alnum chars
            // is not a char literal.
            bool sep = i > 0 && i + 1 < line.size() &&
                       std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                       std::isalnum(static_cast<unsigned char>(line[i + 1]));
            if (!sep) state = State::kChar;
            ++i;
          } else {
            ++i;
          }
          break;
        case State::kLineComment:
          line[i++] = ' ';
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            line[i] = line[i + 1] = ' ';
            i += 2;
            state = State::kCode;
          } else {
            line[i++] = ' ';
          }
          break;
        case State::kString:
          if (c == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) line[i + 1] = ' ';
            i += 2;
          } else if (c == '"') {
            ++i;
            state = State::kCode;
          } else {
            line[i++] = ' ';
          }
          break;
        case State::kChar:
          if (c == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) line[i + 1] = ' ';
            i += 2;
          } else if (c == '\'') {
            ++i;
            state = State::kCode;
          } else {
            line[i++] = ' ';
          }
          break;
        case State::kRawString: {
          size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            for (size_t k = i; k < line.size(); ++k) line[k] = ' ';
            i = line.size();
          } else {
            for (size_t k = i; k < end + raw_delim.size(); ++k) line[k] = ' ';
            i = end + raw_delim.size();
            state = State::kCode;
          }
          break;
        }
      }
    }
    if (state == State::kString || state == State::kChar) state = State::kCode;  // unterminated
    out.push_back(std::move(line));
  }
  return out;
}

int SourceFile::line_of(size_t offset) const {
  int line = 1;
  for (size_t i = 0; i < offset && i < code_text.size(); ++i)
    if (code_text[i] == '\n') ++line;
  return line;
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

void Suppressions::collect_inline(const SourceFile& f) {
  static const std::string kMarker = "redmule-lint:";
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& raw = f.raw_lines[i];
    size_t m = raw.find(kMarker);
    if (m == std::string::npos) continue;
    size_t a = raw.find("allow(", m);
    if (a == std::string::npos) continue;
    size_t close = raw.find(')', a);
    if (close == std::string::npos) continue;
    std::string list = raw.substr(a + 6, close - (a + 6));
    // The annotation covers its own line; when the comment is the whole
    // line, it covers the next line instead (annotation-above style).
    int target_line = static_cast<int>(i) + 1;
    const std::string& code = f.code_lines[i];
    if (trim(code).empty() && i + 1 < f.raw_lines.size())
      target_line = static_cast<int>(i) + 2;
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule = trim(rule);
      if (!rule.empty()) inline_[{f.path, target_line}].insert(rule);
    }
  }
}

bool Suppressions::load_allowlist(const std::string& conf_path, std::string* error) {
  std::ifstream in(conf_path);
  if (!in) {
    if (error) *error = "cannot open allowlist " + conf_path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    // rule|path|substring|reason
    std::vector<std::string> parts;
    std::stringstream ss(t);
    std::string part;
    while (std::getline(ss, part, '|')) parts.push_back(trim(part));
    if (parts.size() != 4 || parts[0].empty() || parts[1].empty() ||
        parts[2].empty() || parts[3].empty()) {
      if (error)
        *error = conf_path + ":" + std::to_string(line_no) +
                 ": allowlist entries are `rule|path|substring|reason` (reason mandatory)";
      return false;
    }
    allowlist_.push_back({parts[0], to_forward_slashes(parts[1]), parts[2], parts[3]});
  }
  return true;
}

bool Suppressions::allowed(const Finding& finding, const std::string& raw_line) const {
  auto it = inline_.find({finding.path, finding.line});
  if (it != inline_.end() &&
      (it->second.count(finding.rule) || it->second.count("*")))
    return true;
  for (const AllowlistEntry& e : allowlist_) {
    if (e.rule != finding.rule && e.rule != "*") continue;
    if (e.path != finding.path) continue;
    if (e.substring == "*" || raw_line.find(e.substring) != std::string::npos)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Repo loading + include graph.
// ---------------------------------------------------------------------------

bool Repo::load(const std::string& root, std::string* error) {
  root_ = root;
  fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    if (error) *error = "no src/ directory under " + root;
    return false;
  }
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(src, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    std::string ext = it->path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      paths.push_back(it->path());
  }
  if (ec) {
    if (error) *error = "walking " + src.string() + ": " + ec.message();
    return false;
  }
  std::sort(paths.begin(), paths.end());  // deterministic file order

  for (const fs::path& p : paths) {
    SourceFile f;
    f.path = to_forward_slashes(fs::relative(p, root).string());
    std::string rel_src = to_forward_slashes(fs::relative(p, src).string());
    src_paths_.insert(rel_src);
    size_t slash = rel_src.find('/');
    f.module_name = slash == std::string::npos ? "" : rel_src.substr(0, slash);
    std::string ext = p.extension().string();
    f.is_header = ext == ".hpp" || ext == ".h";
    if (!read_lines(p, &f.raw_lines, error)) return false;
    f.code_lines = blank_noncode(f.raw_lines);
    for (size_t i = 0; i < f.code_lines.size(); ++i) {
      if (!f.code_text.empty()) f.code_text += '\n';
      f.code_text += f.code_lines[i];
      // Quoted includes come from raw lines: the tokenizer blanks string
      // contents, and the include target IS a string.
      const std::string& raw = f.raw_lines[i];
      std::string t = trim(raw);
      if (t.rfind("#", 0) != 0) continue;
      std::string after = trim(t.substr(1));
      if (after.rfind("include", 0) != 0) continue;
      size_t q1 = raw.find('"');
      if (q1 == std::string::npos) continue;  // <...> system include
      size_t q2 = raw.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      f.includes.push_back(
          {static_cast<int>(i) + 1, raw.substr(q1 + 1, q2 - q1 - 1), raw});
    }
    files_.push_back(std::move(f));
  }
  return true;
}

const SourceFile* Repo::find(const std::string& repo_rel_path) const {
  for (const SourceFile& f : files_)
    if (f.path == repo_rel_path) return &f;
  return nullptr;
}

bool Repo::include_resolves(const std::string& include_target) const {
  return src_paths_.count(to_forward_slashes(include_target)) != 0;
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

RunResult run_lint(const Options& opts) {
  RunResult result;
  Repo repo;
  std::string error;
  if (!repo.load(opts.root, &error)) {
    result.error = error;
    return result;
  }

  Suppressions sup;
  for (const SourceFile& f : repo.files()) sup.collect_inline(f);
  std::string allowlist = opts.allowlist_path;
  if (allowlist.empty()) {
    fs::path def = fs::path(opts.root) / "tools" / "lint" / "allowlist.conf";
    std::error_code ec;
    if (fs::is_regular_file(def, ec)) allowlist = def.string();
  }
  if (!allowlist.empty() && !sup.load_allowlist(allowlist, &error)) {
    result.error = error;
    return result;
  }

  std::vector<const Rule*> rules = all_rules();
  if (!opts.rules.empty()) {
    std::vector<const Rule*> selected;
    for (const std::string& name : opts.rules) {
      bool found = false;
      for (const Rule* r : rules)
        if (name == r->name()) {
          selected.push_back(r);
          found = true;
        }
      if (!found) {
        result.error = "unknown rule `" + name + "` (see --list-rules)";
        return result;
      }
    }
    rules = std::move(selected);
  }

  // compile_commands.json coverage cross-check: every src/**/*.cpp must be a
  // compiled TU, otherwise "dead" files silently escape both the compiler's
  // warnings and this tool's per-TU reasoning.
  if (!opts.compile_commands_path.empty()) {
    std::ifstream in(opts.compile_commands_path);
    if (!in) {
      result.error = "cannot open " + opts.compile_commands_path;
      return result;
    }
    std::string db((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    for (const SourceFile& f : repo.files()) {
      if (f.is_header) continue;
      // Entries hold absolute paths; match on the repo-relative suffix.
      if (db.find(f.path) == std::string::npos)
        result.findings.push_back(
            {"build-coverage", f.path, 1,
             "translation unit missing from compile_commands.json -- the file "
             "is not built, so neither the compiler nor clang-tidy sees it"});
    }
  }

  std::vector<Finding> all;
  for (const SourceFile& f : repo.files())
    for (const Rule* r : rules) r->check(repo, f, &all);

  for (Finding& fd : all) {
    const SourceFile* f = repo.find(fd.path);
    std::string raw;
    if (f && fd.line >= 1 && fd.line <= static_cast<int>(f->raw_lines.size()))
      raw = f->raw_lines[fd.line - 1];
    if (sup.allowed(fd, raw))
      result.suppressed.push_back(std::move(fd));
    else
      result.findings.push_back(std::move(fd));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  result.files_scanned = repo.files().size();
  result.ok = true;
  return result;
}

}  // namespace redmule::lintool
