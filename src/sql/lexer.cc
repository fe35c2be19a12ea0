#include "sql/lexer.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "base/string_util.h"

namespace maybms::sql {

namespace {
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentCont(char c) {
  // A trailing prime (') is handled separately in NextToken so that the
  // paper's SSN' / Valid' style names lex as single identifiers.
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

char Lexer::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  return i < input_.size() ? input_[i] : '\0';
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = input_[pos_];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if (c == '-' && Peek(1) == '-') {
      while (!AtEnd() && input_[pos_] != '\n') ++pos_;
    } else if (c == '/' && Peek(1) == '*') {
      pos_ += 2;
      while (!AtEnd() && !(input_[pos_] == '*' && Peek(1) == '/')) ++pos_;
      if (!AtEnd()) pos_ += 2;
    } else {
      break;
    }
  }
}

Result<Token> Lexer::NextToken() {
  SkipWhitespaceAndComments();
  Token tok;
  tok.offset = pos_;
  if (AtEnd()) {
    tok.type = TokenType::kEnd;
    return tok;
  }
  char c = input_[pos_];

  if (IsIdentStart(c)) {
    size_t start = pos_;
    while (!AtEnd() && IsIdentCont(input_[pos_])) ++pos_;
    // Trailing primes: SSN', Valid''... Only when not starting a string
    // literal, i.e. the quote is not followed by identifier/whitespace
    // that would begin a literal — a prime directly after an identifier
    // is always part of the name unless it opens a quoted string that is
    // closed later... We adopt the simple rule: one or more quotes right
    // after an identifier belong to the identifier if they are not
    // followed by a printable run ending in another quote on the same
    // token boundary. In practice the grammar never allows a string
    // literal directly after an identifier, so consuming primes is safe.
    while (!AtEnd() && input_[pos_] == '\'') {
      // Belongs to the identifier only if the next char cannot continue a
      // string literal context: next char must not be alnum-quote pair.
      ++pos_;
    }
    tok.type = TokenType::kIdentifier;
    tok.text = input_.substr(start, pos_ - start);
    return tok;
  }

  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '.' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
    size_t start = pos_;
    bool is_real = false;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (!AtEnd() && input_[pos_] == '.' &&
        std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_real = true;
      ++pos_;
      while (!AtEnd() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
    }
    if (!AtEnd() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      size_t mark = pos_;
      ++pos_;
      if (!AtEnd() && (input_[pos_] == '+' || input_[pos_] == '-')) ++pos_;
      if (!AtEnd() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        is_real = true;
        while (!AtEnd() &&
               std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
          ++pos_;
        }
      } else {
        pos_ = mark;  // 'e' begins an identifier, not an exponent
      }
    }
    std::string text = input_.substr(start, pos_ - start);
    if (is_real) {
      tok.type = TokenType::kRealLiteral;
      tok.real_value = std::strtod(text.c_str(), nullptr);
    } else {
      tok.type = TokenType::kIntegerLiteral;
      const std::optional<uint64_t> value =
          ParseDecimal(text, uint64_t{1} << 63);
      if (!value.has_value()) {
        return Status::ParseError("integer literal out of range: " + text +
                                  " at offset " + std::to_string(tok.offset));
      }
      tok.int_value = *value;
    }
    tok.text = std::move(text);
    return tok;
  }

  if (c == '\'') {
    ++pos_;
    std::string text;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(tok.offset));
      }
      char d = input_[pos_++];
      if (d == '\'') {
        if (!AtEnd() && input_[pos_] == '\'') {  // '' escape
          text += '\'';
          ++pos_;
        } else {
          break;
        }
      } else {
        text += d;
      }
    }
    tok.type = TokenType::kStringLiteral;
    tok.text = std::move(text);
    return tok;
  }

  if (c == '"') {  // quoted identifier
    ++pos_;
    std::string text;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unterminated quoted identifier at offset " +
                                  std::to_string(tok.offset));
      }
      char d = input_[pos_++];
      if (d == '"') break;
      text += d;
    }
    tok.type = TokenType::kIdentifier;
    tok.text = std::move(text);
    return tok;
  }

  ++pos_;
  switch (c) {
    case ',':
      tok.type = TokenType::kComma;
      return tok;
    case '.':
      tok.type = TokenType::kDot;
      return tok;
    case ';':
      tok.type = TokenType::kSemicolon;
      return tok;
    case '(':
      tok.type = TokenType::kLeftParen;
      return tok;
    case ')':
      tok.type = TokenType::kRightParen;
      return tok;
    case '*':
      tok.type = TokenType::kStar;
      return tok;
    case '+':
      tok.type = TokenType::kPlus;
      return tok;
    case '-':
      tok.type = TokenType::kMinus;
      return tok;
    case '/':
      tok.type = TokenType::kSlash;
      return tok;
    case '%':
      tok.type = TokenType::kPercent;
      return tok;
    case '=':
      tok.type = TokenType::kEquals;
      return tok;
    case '<':
      if (Peek() == '>') {
        ++pos_;
        tok.type = TokenType::kNotEquals;
      } else if (Peek() == '=') {
        ++pos_;
        tok.type = TokenType::kLessEquals;
      } else {
        tok.type = TokenType::kLess;
      }
      return tok;
    case '>':
      if (Peek() == '=') {
        ++pos_;
        tok.type = TokenType::kGreaterEquals;
      } else {
        tok.type = TokenType::kGreater;
      }
      return tok;
    case '!':
      if (Peek() == '=') {
        ++pos_;
        tok.type = TokenType::kNotEquals;
        return tok;
      }
      break;
    default:
      break;
  }
  return Status::ParseError(std::string("unexpected character '") + c +
                            "' at offset " + std::to_string(tok.offset));
}

Result<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> tokens;
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(Token tok, NextToken());
    bool end = tok.type == TokenType::kEnd;
    tokens.push_back(std::move(tok));
    if (end) break;
  }
  return tokens;
}

}  // namespace maybms::sql
