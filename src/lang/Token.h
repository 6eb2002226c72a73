//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens of the mini-Fortran language. The language is a small
/// Fortran-flavoured imperative language: enough to express the paper's
/// benchmark programs (multi-dimensional constant-bound arrays, counted
/// do loops, while loops, procedures) without the full F77 grammar.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_TOKEN_H
#define NASCENT_LANG_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string_view>

namespace nascent {

enum class TokenKind {
  Eof,
  Identifier,
  IntLiteral,
  RealLiteral,
  // Keywords
  KwProgram,
  KwSubroutine,
  KwFunction,
  KwEnd,
  KwInteger,
  KwReal,
  KwLogical,
  KwIf,
  KwThen,
  KwElseif,
  KwElse,
  KwDo,
  KwWhile,
  KwCall,
  KwPrint,
  KwReturn,
  KwAnd,
  KwOr,
  KwNot,
  KwTrue,
  KwFalse,
  // Punctuation and operators
  Assign,    // =
  EqEq,      // ==
  NotEq,     // /=
  Less,      // <
  LessEq,    // <=
  Greater,   // >
  GreaterEq, // >=
  Plus,
  Minus,
  Star,
  Slash,
  LParen,
  RParen,
  Comma,
  Colon,
  Error, ///< a byte that starts no token; Text holds it
};

/// Returns a printable name for \p K (used in parse diagnostics).
const char *tokenKindName(TokenKind K);

/// One lexed token. Tokens are views: \c Text points into the source
/// buffer the lexer scans, so a token must not outlive that buffer.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLocation Loc;
  /// The token's spelling in the source buffer; an identifier keeps its
  /// case (see foldIdentifier), an Error token is the offending byte.
  std::string_view Text;
  int64_t IntValue = 0; ///< for IntLiteral
  double RealValue = 0; ///< for RealLiteral
  /// An IntLiteral above INT64_MAX (IntValue holds INT64_MAX). The parser
  /// reports it when the token becomes current, so diagnostics stay in
  /// source order.
  bool OutOfRange = false;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace nascent

#endif // NASCENT_LANG_TOKEN_H
