#include "lang/Lexer.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace nascent;

const char *nascent::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::RealLiteral:
    return "real literal";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwSubroutine:
    return "'subroutine'";
  case TokenKind::KwFunction:
    return "'function'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwInteger:
    return "'integer'";
  case TokenKind::KwReal:
    return "'real'";
  case TokenKind::KwLogical:
    return "'logical'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElseif:
    return "'elseif'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwPrint:
    return "'print'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwAnd:
    return "'and'";
  case TokenKind::KwOr:
    return "'or'";
  case TokenKind::KwNot:
    return "'not'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'/='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// ASCII letters only; setting bit 5 folds upper case onto lower case and
/// maps no other byte into 'a'..'z'.
bool isLetter(char C) {
  char L = static_cast<char>(C | 0x20);
  return L >= 'a' && L <= 'z';
}

bool isIdentifierChar(char C) { return isLetter(C) || isDigit(C) || C == '_'; }

/// True when the \p N bytes at \p S spell the lower-case keyword \p Kw in
/// any case. Digits and '_' keep or gain bit 5 and so never match a letter.
bool spells(const char *S, const char *Kw, size_t N) {
  for (size_t K = 0; K != N; ++K)
    if (static_cast<char>(S[K] | 0x20) != Kw[K])
      return false;
  return true;
}

/// The keyword spelled by the identifier-shaped run [S, S+N), or
/// Identifier when it is none.
TokenKind classifyWord(const char *S, size_t N) {
  struct Keyword {
    const char *Spelling;
    TokenKind Kind;
  };
  static constexpr Keyword Len2[] = {{"if", TokenKind::KwIf},
                                     {"do", TokenKind::KwDo},
                                     {"or", TokenKind::KwOr}};
  static constexpr Keyword Len3[] = {{"end", TokenKind::KwEnd},
                                     {"and", TokenKind::KwAnd},
                                     {"not", TokenKind::KwNot}};
  static constexpr Keyword Len4[] = {{"real", TokenKind::KwReal},
                                     {"then", TokenKind::KwThen},
                                     {"else", TokenKind::KwElse},
                                     {"call", TokenKind::KwCall},
                                     {"true", TokenKind::KwTrue}};
  static constexpr Keyword Len5[] = {{"while", TokenKind::KwWhile},
                                     {"print", TokenKind::KwPrint},
                                     {"false", TokenKind::KwFalse}};
  static constexpr Keyword Len6[] = {{"elseif", TokenKind::KwElseif},
                                     {"return", TokenKind::KwReturn}};
  static constexpr Keyword Len7[] = {{"program", TokenKind::KwProgram},
                                     {"integer", TokenKind::KwInteger},
                                     {"logical", TokenKind::KwLogical}};
  static constexpr Keyword Len8[] = {{"function", TokenKind::KwFunction}};
  static constexpr Keyword Len10[] = {{"subroutine", TokenKind::KwSubroutine}};

  auto Match = [&](const auto &Table) {
    for (const Keyword &K : Table)
      if (spells(S, K.Spelling, N))
        return K.Kind;
    return TokenKind::Identifier;
  };
  switch (N) {
  case 2:
    return Match(Len2);
  case 3:
    return Match(Len3);
  case 4:
    return Match(Len4);
  case 5:
    return Match(Len5);
  case 6:
    return Match(Len6);
  case 7:
    return Match(Len7);
  case 8:
    return Match(Len8);
  case 10:
    return Match(Len10);
  default:
    return TokenKind::Identifier;
  }
}

} // namespace

std::string nascent::foldIdentifier(std::string_view Spelling) {
  std::string Name(Spelling);
  for (char &C : Name)
    if (C >= 'A' && C <= 'Z')
      C = static_cast<char>(C | 0x20);
  return Name;
}

Lexer::Lexer(std::string_view Source)
    : Cur(Source.data()), End(Source.data() + Source.size()),
      LineStart(Source.data()) {}

void Lexer::skipTrivia() {
  while (Cur != End) {
    switch (*Cur) {
    case '\n':
      ++Line;
      LineStart = ++Cur;
      break;
    case ' ':
    case '\t':
    case '\r':
    case '\v':
    case '\f':
      ++Cur;
      break;
    case '!': {
      // A comment runs to the newline, which the next iteration consumes.
      const void *NL = std::memchr(Cur, '\n', static_cast<size_t>(End - Cur));
      Cur = NL ? static_cast<const char *>(NL) : End;
      break;
    }
    default:
      return;
    }
  }
}

Token Lexer::lexNumber() {
  const char *Start = Cur;
  bool IsReal = false;
  while (Cur != End && isDigit(*Cur))
    ++Cur;
  if (End - Cur >= 2 && Cur[0] == '.' && isDigit(Cur[1])) {
    IsReal = true;
    Cur += 2;
    while (Cur != End && isDigit(*Cur))
      ++Cur;
  }
  if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
    // An exponent only when digits follow; otherwise the 'e' starts the
    // next token (e.g. "3 elseif").
    const char *P = Cur + 1;
    if (P != End && (*P == '+' || *P == '-'))
      ++P;
    if (P != End && isDigit(*P)) {
      IsReal = true;
      Cur = P;
      while (Cur != End && isDigit(*Cur))
        ++Cur;
    }
  }

  Token T;
  T.Loc = locOf(Start);
  T.Text = std::string_view(Start, static_cast<size_t>(Cur - Start));
  if (IsReal) {
    T.Kind = TokenKind::RealLiteral;
    // strtod rather than std::from_chars: libstdc++'s floating-point
    // from_chars brings some 40 KB of code and tables into the resident
    // set. strtod needs a terminated copy, which the small-string buffer
    // holds without allocating for spellings up to 15 bytes.
    T.RealValue = std::strtod(std::string(T.Text).c_str(), nullptr);
  } else {
    T.Kind = TokenKind::IntLiteral;
    auto [Ptr, Ec] = std::from_chars(Start, Cur, T.IntValue);
    (void)Ptr;
    if (Ec == std::errc::result_out_of_range) {
      T.IntValue = INT64_MAX;
      T.OutOfRange = true;
    }
  }
  return T;
}

Token Lexer::lexIdentifier() {
  const char *Start = Cur;
  while (Cur != End && isIdentifierChar(*Cur))
    ++Cur;
  Token T;
  T.Loc = locOf(Start);
  T.Text = std::string_view(Start, static_cast<size_t>(Cur - Start));
  T.Kind = classifyWord(Start, T.Text.size());
  return T;
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Loc = locOf(Cur);
  if (Cur == End) {
    T.Kind = TokenKind::Eof;
    return T;
  }
  char C = *Cur;
  if (isDigit(C))
    return lexNumber();
  if (isLetter(C) || C == '_')
    return lexIdentifier();

  T.Text = std::string_view(Cur, 1);
  ++Cur;
  // One- or two-byte operator: the second byte is '=' for the compound
  // comparisons.
  auto OrEq = [&](TokenKind One, TokenKind WithEq) {
    if (Cur != End && *Cur == '=') {
      ++Cur;
      T.Text = std::string_view(T.Text.data(), 2);
      return WithEq;
    }
    return One;
  };
  switch (C) {
  case '=':
    T.Kind = OrEq(TokenKind::Assign, TokenKind::EqEq);
    break;
  case '/':
    T.Kind = OrEq(TokenKind::Slash, TokenKind::NotEq);
    break;
  case '<':
    T.Kind = OrEq(TokenKind::Less, TokenKind::LessEq);
    break;
  case '>':
    T.Kind = OrEq(TokenKind::Greater, TokenKind::GreaterEq);
    break;
  case '+':
    T.Kind = TokenKind::Plus;
    break;
  case '-':
    T.Kind = TokenKind::Minus;
    break;
  case '*':
    T.Kind = TokenKind::Star;
    break;
  case '(':
    T.Kind = TokenKind::LParen;
    break;
  case ')':
    T.Kind = TokenKind::RParen;
    break;
  case ',':
    T.Kind = TokenKind::Comma;
    break;
  case ':':
    T.Kind = TokenKind::Colon;
    break;
  default:
    T.Kind = TokenKind::Error;
    break;
  }
  return T;
}
