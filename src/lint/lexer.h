#ifndef VSD_LINT_LEXER_H_
#define VSD_LINT_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vsd::lint {

enum class TokenKind {
  kIdentifier,  ///< Identifiers and keywords (no distinction needed here).
  kNumber,      ///< Integer or floating literal, suffixes included.
  kString,      ///< String literal (quotes stripped), incl. raw strings.
  kChar,        ///< Character literal.
  kPunct,       ///< Operator / punctuator, longest-match (e.g. "==", "::").
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  int line = 0;          ///< 1-based line of the token's first character.
  bool is_float = false; ///< For kNumber: literal has '.', exponent, or f/F.
};

/// A preprocessor directive, captured as one trimmed line ("#include <x>",
/// "#pragma once", ...). Continuation lines are folded in.
struct PpDirective {
  int line = 0;
  std::string text;
};

/// Output of `Lex`. Comments and preprocessor lines never become tokens;
/// comments feed `suppressions`, preprocessor lines feed `directives`.
struct LexResult {
  std::vector<Token> tokens;           ///< Ends with a kEof token.
  std::vector<PpDirective> directives;
  /// Line -> rule names named in a `// vsd-lint: allow(rule, ...)` comment
  /// on that line. A suppression covers its own line and the next line, so
  /// it works both trailing an offending statement and on the line above.
  std::map<int, std::set<std::string>> suppressions;
};

/// Tokenizes C++ source. This is a lexer, not a parser: it understands
/// comments (including backslash line-continuation), string/char literals
/// (including raw strings with encoding prefixes), numbers (including digit
/// separators), and multi-character punctuators well enough that rule code
/// can pattern-match token sequences without being fooled by the contents
/// of literals.
LexResult Lex(const std::string& source);

// Token-walk primitives shared by every rule and analysis. Semantics are
// pinned by tests/lint_test.cc and tests/dataflow_test.cc.

inline bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

/// Index of the token matching the opener at `open` ("(" / "{" / "["), or
/// toks.size() when unbalanced.
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer);

/// Index of the opener matching the closer at `close` (")" / "]"), or
/// toks.size() when unbalanced.
size_t MatchBackward(const std::vector<Token>& toks, size_t close,
                     const char* opener, const char* closer);

/// With toks[open] == "<", returns the index one past the matching ">".
/// Handles ">>" closing two levels (template shorthand).
size_t SkipAngles(const std::vector<Token>& toks, size_t open);

/// One call `head<...>(...)`: `open`/`close` are its parentheses (`close`
/// is toks.size() when unbalanced).
struct CallExtent {
  size_t head = 0;
  size_t open = 0;
  size_t close = 0;
};

/// Every call to one of `callees` whose name lies in [begin, end), in token
/// order, optional template arguments skipped. Calls nested inside another
/// call's arguments are listed too, so a token can lie in several extents.
std::vector<CallExtent> CallExtents(const std::vector<Token>& toks,
                                    size_t begin, size_t end,
                                    const std::set<std::string>& callees);

/// `=` and the compound assignment operators.
const std::set<std::string>& AssignOps();

}  // namespace vsd::lint

#endif  // VSD_LINT_LEXER_H_
