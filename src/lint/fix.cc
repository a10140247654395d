#include "lint/fix.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/string_util.h"
#include "lint/lint.h"

namespace vsd::lint {
namespace {

namespace fs = std::filesystem;

/// Parses `#include <x>` / `#include "x"` (whitespace-tolerant). Returns
/// false for non-include lines and macro includes.
bool ParseIncludeLine(const std::string& line, char* kind,
                      std::string* target) {
  size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos || line[i] != '#') return false;
  i = line.find_first_not_of(" \t", i + 1);
  if (i == std::string::npos || line.compare(i, 7, "include") != 0) {
    return false;
  }
  size_t open = line.find_first_of("<\"", i + 7);
  if (open == std::string::npos) return false;
  *kind = line[open];
  char closer = *kind == '<' ? '>' : '"';
  size_t close = line.find(closer, open + 1);
  if (close == std::string::npos) return false;
  *target = line.substr(open + 1, close - open - 1);
  return true;
}

/// The repo guard convention: path minus a leading src/, uppercased,
/// non-alphanumerics to '_', wrapped VSD_..._ (src/lint/fix.h ->
/// VSD_LINT_FIX_H_).
std::string GuardMacro(const std::string& path) {
  std::string p = StartsWith(path, "src/") ? path.substr(4) : path;
  std::string macro = "VSD_";
  for (char c : p) {
    macro += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  macro += '_';
  return macro;
}

struct IncludeEntry {
  char kind;
  std::string target;
  std::string text;  ///< The whole original line, trailing comment included.
};

}  // namespace

FixOutcome FixContent(const std::string& path, const std::string& content) {
  FixOutcome outcome;
  outcome.content = content;

  std::set<int> order_lines;  // 1-based lines of include-order findings.
  bool guard_missing = false;
  int guard_define_line = 0;  // 1-based #define line of a mismatched guard.
  for (const Finding& f : LintContent(path, content)) {
    if (f.rule == "include-order") {
      order_lines.insert(f.line);
    } else if (f.rule == "header-guard") {
      if (f.message.find("does not match") != std::string::npos) {
        guard_define_line = f.line;
      } else {
        guard_missing = true;
      }
    }
  }
  if (order_lines.empty() && !guard_missing && guard_define_line == 0) {
    return outcome;
  }

  // The final newline (present in every checked-in file) is re-appended
  // after the Join, so the empty piece after it is dropped here.
  bool trailing_newline = !content.empty() && content.back() == '\n';
  std::vector<std::string> lines = Split(content, '\n', /*keep_empty=*/true);
  if (lines.back().empty()) lines.pop_back();

  // Repair a mismatched #define from its #ifndef before any reflow moves
  // line numbers around.
  if (guard_define_line > 0 &&
      static_cast<size_t>(guard_define_line) <= lines.size()) {
    std::string macro;
    for (const std::string& line : lines) {
      size_t i = line.find_first_not_of(" \t");
      if (i != std::string::npos && line.compare(i, 7, "#ifndef") == 0) {
        size_t m = line.find_first_not_of(" \t", i + 7);
        if (m != std::string::npos) {
          macro = line.substr(m, line.find_first_of(" \t", m) - m);
        }
        break;
      }
    }
    if (!macro.empty()) {
      lines[guard_define_line - 1] = "#define " + macro;
      ++outcome.header_guard_fixes;
    }
  }

  // Rewrite each contiguous include block that carries a finding: system
  // includes first, sorted, then a blank line, then sorted project
  // includes. Blocks with line continuations are left for a human.
  std::vector<std::string> out;
  size_t i = 0;
  while (i < lines.size()) {
    char kind;
    std::string target;
    if (!ParseIncludeLine(lines[i], &kind, &target)) {
      out.push_back(lines[i]);
      ++i;
      continue;
    }
    std::vector<IncludeEntry> block;
    bool dirty = false;
    bool continuation = false;
    size_t j = i;
    while (j < lines.size() && ParseIncludeLine(lines[j], &kind, &target)) {
      block.push_back(IncludeEntry{kind, target, lines[j]});
      if (order_lines.count(static_cast<int>(j + 1))) dirty = true;
      if (!lines[j].empty() && lines[j].back() == '\\') continuation = true;
      ++j;
    }
    if (!dirty || continuation) {
      for (const IncludeEntry& e : block) out.push_back(e.text);
    } else {
      std::stable_sort(block.begin(), block.end(),
                       [](const IncludeEntry& a, const IncludeEntry& b) {
                         return a.kind != b.kind ? a.kind == '<'
                                                 : a.target < b.target;
                       });
      bool mixed = block.front().kind != block.back().kind;
      for (size_t k = 0; k < block.size(); ++k) {
        if (mixed && k > 0 && block[k].kind != block[k - 1].kind) {
          out.emplace_back();
        }
        out.push_back(block[k].text);
      }
      ++outcome.include_order_fixes;
    }
    i = j;
  }
  lines = std::move(out);

  if (guard_missing) {
    const std::string macro = GuardMacro(path);
    std::vector<std::string> wrapped;
    wrapped.push_back("#ifndef " + macro);
    wrapped.push_back("#define " + macro);
    wrapped.emplace_back();
    wrapped.insert(wrapped.end(), lines.begin(), lines.end());
    if (!lines.empty() && !lines.back().empty()) wrapped.emplace_back();
    wrapped.push_back("#endif  // " + macro);
    lines = std::move(wrapped);
    trailing_newline = true;
    ++outcome.header_guard_fixes;
  }

  outcome.content = Join(lines, "\n") + (trailing_newline ? "\n" : "");
  return outcome;
}

std::vector<FixedFile> FixTree(const std::string& root,
                               const std::vector<std::string>& subdirs) {
  std::vector<FixedFile> fixed;
  for (const std::string& rel : ListSourceFiles(root, subdirs)) {
    std::string content;
    if (!ReadFileToString(root, rel, &content)) continue;
    FixOutcome outcome = FixContent(rel, content);
    if (!outcome.changed()) continue;
    std::ofstream out(fs::path(root) / rel,
                      std::ios::binary | std::ios::trunc);
    if (!out) continue;
    out << outcome.content;
    fixed.push_back(FixedFile{
        rel, outcome.include_order_fixes + outcome.header_guard_fixes});
  }
  return fixed;
}

}  // namespace vsd::lint
