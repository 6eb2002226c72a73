//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for mini-Fortran. Whitespace and newlines are
/// insignificant; comments run from '!' to end of line. Identifiers and
/// keywords are case-insensitive, as in Fortran: keywords match in any
/// case, and identifier tokens keep their spelling until the parser folds
/// them (foldIdentifier) into the names the AST owns.
///
/// The lexer scans the caller's buffer in place: it copies no source text
/// and builds no string per token.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_LEXER_H
#define NASCENT_LANG_LEXER_H

#include "lang/Token.h"

#include <string>
#include <string_view>

namespace nascent {

/// The canonical, lower-case form of an identifier's spelling.
std::string foldIdentifier(std::string_view Spelling);

/// Lexes one source buffer into tokens on demand.
class Lexer {
public:
  /// Scans \p Source, which must outlive the lexer and every token it
  /// returns.
  explicit Lexer(std::string_view Source);

  /// Lexes and returns the next token (Eof at end of input; Error tokens
  /// carry the offending byte and the lexer recovers by skipping it).
  Token next();

private:
  SourceLocation locOf(const char *P) const {
    return SourceLocation(Line, static_cast<unsigned>(P - LineStart) + 1);
  }
  void skipTrivia();
  Token lexNumber();
  Token lexIdentifier();

  const char *Cur;
  const char *End;
  const char *LineStart; ///< first byte of the current line
  unsigned Line = 1;
};

} // namespace nascent

#endif // NASCENT_LANG_LEXER_H
