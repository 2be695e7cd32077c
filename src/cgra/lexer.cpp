#include "cgra/lexer.hpp"

#include <cctype>
#include <cstdlib>

#include "core/error.hpp"

namespace citl::cgra {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1;
  int col = 1;

  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      if (src[i + k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += n;
  };

  while (i < src.size()) {
    const char c = src[i];
    // Whitespace.
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      advance(2);
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        advance(1);
      }
      if (i + 1 >= src.size()) {
        throw CompileError("unterminated block comment", line, col);
      }
      advance(2);
      continue;
    }
    // Identifiers / keywords.
    if (ident_start(c)) {
      Token t;
      t.kind = TokKind::kIdent;
      t.line = line;
      t.column = col;
      std::size_t j = i;
      while (j < src.size() && ident_char(src[j])) ++j;
      t.text.assign(src.substr(i, j - i));
      advance(j - i);
      out.push_back(std::move(t));
      continue;
    }
    // Numbers: [digits][.digits][e[+-]digits][f]
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      Token t;
      t.kind = TokKind::kNumber;
      t.line = line;
      t.column = col;
      std::size_t j = i;
      while (j < src.size() &&
             (std::isdigit(static_cast<unsigned char>(src[j])) ||
              src[j] == '.')) {
        ++j;
      }
      if (j < src.size() && (src[j] == 'e' || src[j] == 'E')) {
        std::size_t k = j + 1;
        if (k < src.size() && (src[k] == '+' || src[k] == '-')) ++k;
        if (k >= src.size() || !std::isdigit(static_cast<unsigned char>(src[k]))) {
          throw CompileError("malformed exponent", line, col);
        }
        while (k < src.size() && std::isdigit(static_cast<unsigned char>(src[k]))) {
          ++k;
        }
        j = k;
      }
      t.text.assign(src.substr(i, j - i));
      t.number = std::strtod(t.text.c_str(), nullptr);
      advance(j - i);
      // Optional float suffix.
      if (i < src.size() && (src[i] == 'f' || src[i] == 'F')) advance(1);
      out.push_back(std::move(t));
      continue;
    }
    // Two-character punctuation.
    if (i + 1 < src.size()) {
      const std::string_view two = src.substr(i, 2);
      if (two == "==" || two == "<=" || two == ">=" || two == "!=") {
        Token t;
        t.kind = TokKind::kPunct;
        t.text = std::string(two);
        t.line = line;
        t.column = col;
        advance(2);
        out.push_back(std::move(t));
        continue;
      }
    }
    // Single-character punctuation.
    const std::string singles = "(),;=+-*/<>?:";
    if (singles.find(c) != std::string::npos) {
      Token t;
      t.kind = TokKind::kPunct;
      t.text.assign(1, c);
      t.line = line;
      t.column = col;
      advance(1);
      out.push_back(std::move(t));
      continue;
    }
    throw CompileError(std::string("unexpected character '") + c + "'", line,
                       col);
  }

  Token end;
  end.kind = TokKind::kEnd;
  end.line = line;
  end.column = col;
  out.push_back(std::move(end));
  return out;
}

}  // namespace citl::cgra
