//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-Fortran. Produces a ProgramAST;
/// errors go to the DiagnosticEngine and the parser recovers by skipping
/// to the next plausible statement boundary.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_PARSER_H
#define NASCENT_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>

namespace nascent {

/// Parses one source buffer.
class Parser {
public:
  /// Parses \p Source in place; the buffer must outlive the parser (the
  /// returned AST owns copies of every name it keeps).
  Parser(std::string_view Source, DiagnosticEngine &Diags);

  /// Parses the whole file. On errors the returned AST may be partial;
  /// check Diags.hasErrors().
  std::unique_ptr<ProgramAST> parseProgram();

private:
  // Token stream management (one token of lookahead).
  const Token &cur() const { return CurTok; }
  const Token &ahead() const { return NextTok; }
  Token consume();
  /// Reports a lexical error carried by the token that just became current.
  void diagnoseLiteral();
  /// Consumes the current (identifier) token and returns its folded name.
  std::string consumeName() { return foldIdentifier(consume().Text); }
  bool match(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Msg);
  void syncToStatement();

  // Units and declarations.
  std::unique_ptr<ProcedureAST> parseUnit();
  void parseParams(ProcedureAST &P);
  bool parseDecl(ProcedureAST &P);
  bool parseDeclarator(Decl &D);
  bool parseDimBound(int64_t &Out);

  // Statements.
  std::vector<StmtPtr> parseStmtList();
  bool startsStatement(TokenKind K) const;
  StmtPtr parseStmt();
  StmtPtr parseIf();
  StmtPtr parseDo();
  StmtPtr parseWhile();
  StmtPtr parseCall();
  StmtPtr parseAssign();
  void expectEnd(TokenKind Kw, const char *What);

  // Expressions.
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseNot();
  ExprPtr parseComparison();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();
  std::vector<ExprPtr> parseArgList();

  Lexer Lex;
  DiagnosticEngine &Diags;
  Token CurTok;
  Token NextTok;
};

} // namespace nascent

#endif // NASCENT_LANG_PARSER_H
