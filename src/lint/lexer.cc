#include "lint/lexer.h"

#include <cctype>
#include <cstddef>

namespace vsd::lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Longest-match punctuator set. Only operators the rules care about need to
// be grouped correctly; everything else may fall through to single chars.
const char* const kPuncts3[] = {"<<=", ">>=", "...", "->*", "<=>"};
const char* const kPuncts2[] = {"::", "->", "==", "!=", "<=", ">=", "&&",
                                "||", "++", "--", "+=", "-=", "*=", "/=",
                                "%=", "&=", "|=", "^=", "<<", ">>"};

// Parses "vsd-lint: allow(rule-a, rule-b)" out of a comment body, if present.
void ParseSuppression(const std::string& comment, int line, LexResult* out) {
  const std::string kTag = "vsd-lint:";
  size_t tag = comment.find(kTag);
  if (tag == std::string::npos) return;
  size_t allow = comment.find("allow", tag + kTag.size());
  if (allow == std::string::npos) return;
  size_t open = comment.find('(', allow);
  if (open == std::string::npos) return;
  size_t close = comment.find(')', open);
  if (close == std::string::npos) return;
  std::string rules = comment.substr(open + 1, close - open - 1);
  std::string cur;
  for (size_t i = 0; i <= rules.size(); ++i) {
    char c = i < rules.size() ? rules[i] : ',';
    if (c == ',' ) {
      if (!cur.empty()) out->suppressions[line].insert(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur += c;
    }
  }
}

// Length of a raw-string-literal prefix ("R\"", "u8R\"", "uR\"", "UR\"",
// "LR\"") starting at `i`, or 0 if none. Only these exact spellings open a
// raw string; anything else (e.g. `MACRO_R"..."`) is an identifier followed
// by an ordinary string literal under max munch.
size_t RawPrefixLen(const std::string& s, size_t i) {
  static const char* const kPrefixes[] = {"u8R\"", "uR\"", "UR\"", "LR\"",
                                          "R\""};
  for (const char* p : kPrefixes) {
    size_t len = std::char_traits<char>::length(p);
    if (s.compare(i, len, p) == 0) return len;
  }
  return 0;
}

// A raw-string delimiter is at most 16 chars and contains no parenthesis,
// backslash, quote, or whitespace. Invalid delimiters mean the `R"` was not
// actually opening a raw string (ill-formed or macro trickery) — the caller
// falls back to ordinary tokenization.
bool IsValidRawDelimiter(const std::string& delim) {
  if (delim.size() > 16) return false;
  for (char c : delim) {
    if (c == '(' || c == ')' || c == '\\' || c == '"' ||
        std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace

LexResult Lex(const std::string& source) {
  LexResult out;
  size_t i = 0;
  const size_t n = source.size();
  int line = 1;
  bool at_line_start = true;  // Only whitespace seen since the last newline.

  auto push = [&](TokenKind kind, std::string text, bool is_float = false) {
    out.tokens.push_back(Token{kind, std::move(text), line, is_float});
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    // Line comment: may carry a suppression annotation. A backslash
    // immediately before the newline splices the next physical line into
    // the comment (phase-2 line splicing happens before comments form), so
    // the comment only ends at an unescaped newline.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      int start_line = line;
      std::string body;
      size_t end = i + 2;
      while (end < n) {
        if (source[end] == '\\' && end + 1 < n && source[end + 1] == '\n') {
          ++line;
          end += 2;
          body += ' ';
          continue;
        }
        if (source[end] == '\n') break;
        body += source[end];
        ++end;
      }
      ParseSuppression(body, start_line, &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      int start_line = line;
      size_t end = source.find("*/", i + 2);
      if (end == std::string::npos) end = n; else end += 2;
      std::string body = source.substr(i, end - i);
      ParseSuppression(body, start_line, &out);
      for (char bc : body) {
        if (bc == '\n') ++line;
      }
      i = end;
      continue;
    }

    // Preprocessor directive: '#' first on the line; folds continuations.
    if (c == '#' && at_line_start) {
      int start_line = line;
      std::string text;
      while (i < n) {
        char d = source[i];
        if (d == '\\' && i + 1 < n && source[i + 1] == '\n') {
          ++line;
          i += 2;
          text += ' ';
          continue;
        }
        if (d == '\n') break;
        // A trailing // comment is not part of the directive.
        if (d == '/' && i + 1 < n &&
            (source[i + 1] == '/' || source[i + 1] == '*')) {
          break;
        }
        text += d;
        ++i;
      }
      // Trim trailing whitespace.
      while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
        text.pop_back();
      }
      out.directives.push_back(PpDirective{start_line, std::move(text)});
      at_line_start = false;
      continue;
    }
    at_line_start = false;

    // Raw string literal, with optional encoding prefix:
    // (u8|u|U|L)?R"delim( ... )delim". Without this check, `u8R"(...)"`
    // would lex as identifier `u8R` plus an ordinary string that terminates
    // at the first '"' inside the raw body.
    if (size_t plen = RawPrefixLen(source, i); plen > 0) {
      size_t quote = i + plen - 1;  // The '"' after the prefix.
      size_t paren = source.find('(', quote + 1);
      std::string delim = paren == std::string::npos
                              ? std::string()
                              : source.substr(quote + 1, paren - quote - 1);
      if (paren != std::string::npos && IsValidRawDelimiter(delim)) {
        std::string closer = ")" + delim + "\"";
        size_t end = source.find(closer, paren + 1);
        if (end == std::string::npos) end = n; else end += closer.size();
        for (size_t k = i; k < end; ++k) {
          if (source[k] == '\n') ++line;
        }
        push(TokenKind::kString, "");
        i = end;
        continue;
      }
    }

    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      char quote = c;
      std::string text;
      ++i;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          text += source[i];
          text += source[i + 1];
          i += 2;
          continue;
        }
        if (source[i] == '\n') ++line;  // Unterminated; keep line count sane.
        text += source[i];
        ++i;
      }
      if (i < n) ++i;  // Closing quote.
      push(quote == '"' ? TokenKind::kString : TokenKind::kChar, std::move(text));
      continue;
    }

    // Number: digit, or '.' followed by digit.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::string text;
      bool hex = c == '0' && i + 1 < n && (source[i + 1] == 'x' || source[i + 1] == 'X');
      while (i < n) {
        char d = source[i];
        // A digit separator is only part of the literal when digits (or hex
        // letters) continue after it; a bare trailing quote belongs to the
        // next token (e.g. a following char literal).
        bool take = std::isalnum(static_cast<unsigned char>(d)) || d == '.' ||
                    (d == '\'' && i + 1 < n &&
                     std::isalnum(static_cast<unsigned char>(source[i + 1])));
        // Exponent signs: 1e-3, 0x1p+2.
        if ((d == '+' || d == '-') && !text.empty()) {
          char prev = text.back();
          take = prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P';
        }
        if (!take) break;
        text += d;
        ++i;
      }
      bool is_float = false;
      if (!hex) {
        for (char d : text) {
          if (d == '.' || d == 'e' || d == 'E' || d == 'f' || d == 'F') {
            is_float = true;
            break;
          }
        }
      } else {
        for (char d : text) {
          if (d == '.' || d == 'p' || d == 'P') {
            is_float = true;
            break;
          }
        }
      }
      push(TokenKind::kNumber, std::move(text), is_float);
      continue;
    }

    // Identifier / keyword.
    if (IsIdentStart(c)) {
      std::string text;
      while (i < n && IsIdentChar(source[i])) {
        text += source[i];
        ++i;
      }
      push(TokenKind::kIdentifier, std::move(text));
      continue;
    }

    // Punctuator, longest match first.
    bool matched = false;
    for (const char* p : kPuncts3) {
      if (source.compare(i, 3, p) == 0) {
        push(TokenKind::kPunct, p);
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* p : kPuncts2) {
      if (source.compare(i, 2, p) == 0) {
        push(TokenKind::kPunct, p);
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    push(TokenKind::kPunct, std::string(1, c));
    ++i;
  }

  push(TokenKind::kEof, "");
  return out;
}

size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer) {
  int depth = 1;
  size_t k = open + 1;
  while (k < toks.size() && depth > 0) {
    if (toks[k].text == opener) ++depth;
    else if (toks[k].text == closer) --depth;
    if (depth == 0) break;
    ++k;
  }
  return k;
}

size_t MatchBackward(const std::vector<Token>& toks, size_t close,
                     const char* opener, const char* closer) {
  int depth = 1;
  size_t k = close;
  while (k > 0 && depth > 0) {
    --k;
    if (toks[k].text == closer) ++depth;
    else if (toks[k].text == opener) --depth;
  }
  return depth == 0 ? k : toks.size();
}

size_t SkipAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 1;
  size_t j = open + 1;
  while (j < toks.size() && depth > 0) {
    if (toks[j].text == "<") ++depth;
    else if (toks[j].text == ">") --depth;
    else if (toks[j].text == ">>") depth -= 2;
    ++j;
  }
  return j;
}

std::vector<CallExtent> CallExtents(const std::vector<Token>& toks,
                                    size_t begin, size_t end,
                                    const std::set<std::string>& callees) {
  std::vector<CallExtent> extents;
  for (size_t i = begin; i + 1 < end && i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || !callees.count(toks[i].text)) continue;
    size_t j = i + 1;
    if (toks[j].text == "<") j = SkipAngles(toks, j);
    if (j >= toks.size() || toks[j].text != "(") continue;
    extents.push_back(CallExtent{i, j, MatchForward(toks, j, "(", ")")});
    i = j;  // Nested calls inside the arguments are still scanned.
  }
  return extents;
}

const std::set<std::string>& AssignOps() {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps;
}

}  // namespace vsd::lint
