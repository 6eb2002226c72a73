#include "lang/Lexer.h"

#include "suite/Suite.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace nascent;

namespace {

/// Lexes all of \p Src; the tokens view \p Src, which must outlive them.
std::vector<Token> lexAll(std::string_view Src) {
  Lexer L(Src);
  std::vector<Token> Out;
  while (true) {
    Token T = L.next();
    Out.push_back(T);
    if (T.is(TokenKind::Eof))
      break;
  }
  return Out;
}

TEST(Lexer, KeywordsAndIdentifiers) {
  auto Toks = lexAll("program foo end do while");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwProgram);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "foo");
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwEnd);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwDo);
  EXPECT_EQ(Toks[4].Kind, TokenKind::KwWhile);
}

TEST(Lexer, CaseInsensitive) {
  auto Toks = lexAll("PROGRAM Foo INTEGER");
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwProgram);
  EXPECT_EQ(Toks[1].Text, "Foo"); // tokens keep the spelling...
  EXPECT_EQ(foldIdentifier(Toks[1].Text), "foo"); // ...names fold
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwInteger);
}

TEST(Lexer, IntegerAndRealLiterals) {
  auto Toks = lexAll("42 3.5 1e3 2.5e-2 7");
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, 42);
  EXPECT_EQ(Toks[1].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[1].RealValue, 3.5);
  EXPECT_EQ(Toks[2].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[2].RealValue, 1000.0);
  EXPECT_EQ(Toks[3].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[3].RealValue, 0.025);
  EXPECT_EQ(Toks[4].Kind, TokenKind::IntLiteral);
}

TEST(Lexer, NumberFollowedByIdentifierIsNotExponent) {
  // "3e" with no digits after: 'e' starts the next identifier token.
  auto Toks = lexAll("3 elseif");
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[1].Kind, TokenKind::KwElseif);
}

TEST(Lexer, OperatorsAndPunctuation) {
  auto Toks = lexAll("= == /= < <= > >= + - * / ( ) , :");
  TokenKind Expected[] = {
      TokenKind::Assign,  TokenKind::EqEq,      TokenKind::NotEq,
      TokenKind::Less,    TokenKind::LessEq,    TokenKind::Greater,
      TokenKind::GreaterEq, TokenKind::Plus,    TokenKind::Minus,
      TokenKind::Star,    TokenKind::Slash,     TokenKind::LParen,
      TokenKind::RParen,  TokenKind::Comma,     TokenKind::Colon,
      TokenKind::Eof};
  ASSERT_EQ(Toks.size(), std::size(Expected));
  for (size_t K = 0; K != Toks.size(); ++K)
    EXPECT_EQ(Toks[K].Kind, Expected[K]) << "token " << K;
}

TEST(Lexer, CommentsAndLocations) {
  auto Toks = lexAll("a ! whole line ignored\n  b");
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Column, 3u);
}

TEST(Lexer, ErrorToken) {
  auto Toks = lexAll("a # b");
  EXPECT_EQ(Toks[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Error);
  // Recovers and continues.
  EXPECT_EQ(Toks[2].Kind, TokenKind::Identifier);
}


TEST(Lexer, IntegerLiteralRange) {
  // INT64_MAX is the largest literal; one more is flagged out of range
  // (the parser reports it, see Parser.IntegerLiteralOverflowInSourceOrder).
  auto Toks = lexAll("k = 9223372036854775807\n  m = 9223372036854775808");
  ASSERT_EQ(Toks.size(), 7u);
  EXPECT_EQ(Toks[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[2].IntValue, INT64_MAX);
  EXPECT_FALSE(Toks[2].OutOfRange);
  EXPECT_EQ(Toks[5].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[5].IntValue, INT64_MAX);
  EXPECT_TRUE(Toks[5].OutOfRange);
  EXPECT_EQ(Toks[5].Loc, SourceLocation(2, 7));
}

//===----------------------------------------------------------------------===//
// Golden token-stream digests. Each input's whole token stream (kind, line,
// column, spelling, integer value, real bits) is folded into one digest.
// The expected values were recorded with the original character-at-a-time
// lexer; any lexer rewrite must reproduce them exactly.
//===----------------------------------------------------------------------===//

std::string readRepoFile(const char *Rel) {
  std::ifstream In(std::string(NASCENT_REPO_DIR) + "/" + Rel,
                   std::ios::binary);
  EXPECT_TRUE(In.good()) << Rel;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The spelling the digest records: identifiers in lower case (their
/// canonical form), the offending character of an error token, and
/// nothing for other kinds.
std::string digestSpelling(const Token &T) {
  if (T.is(TokenKind::Identifier))
    return foldIdentifier(T.Text);
  if (T.is(TokenKind::Error))
    return std::string(T.Text);
  return "";
}

std::string tokenStreamDigest(const std::string &Src) {
  support::StableHasher H;
  for (const Token &T : lexAll(Src)) {
    H.u64(static_cast<uint64_t>(T.Kind));
    H.u32(T.Loc.Line);
    H.u32(T.Loc.Column);
    H.str(digestSpelling(T));
    H.i64(T.IntValue);
    H.f64(T.RealValue);
  }
  return H.digest().hex();
}

TEST(Lexer, GoldenSuiteTokenStreams) {
  const std::map<std::string, std::string> Expected = {
      {"arc2d", "9b55f7ab586c64b12fca053513ab0960"},
      {"bdna", "9f21228dcd434c845ab775ef1aa411b8"},
      {"dyfesm", "73a16da9f1912ca6a2c2c729251c516f"},
      {"edge-cases", "620685babf227bc34781d9328e2a9dc9"},
      {"linpackd", "2c201b70be58852510a1b9a6afe93524"},
      {"mdg", "69cbf47ec2d5ef85a83bcf03b4fa4375"},
      {"qcd", "8962d45dac480e1b07519beab797719d"},
      {"simple", "56c722ba27760a30422f031b63176042"},
      {"spec77", "e96e89d8b6ace3ab522742a5a27bf146"},
      {"trfd", "064de6fdf0240ac8c88309d3a423da67"},
      {"vortex", "674405062d6fb3cfb95c58c63f4ac86b"},
  };
  std::map<std::string, std::string> Got;
  for (const SuiteProgram &P : benchmarkSuite())
    Got[P.Name] = tokenStreamDigest(P.Source);
  // Edge cases the suite does not reach: mixed case, keyword prefixes,
  // every numeral shape (including "1.e3" and a dangling exponent), tabs,
  // carriage returns, form feeds, stray and non-ASCII bytes, a comment at
  // end of input, and the largest integer literal.
  Got["edge-cases"] = tokenStreamDigest(
      "PrOgRaM Edge_1 ELSEIF elsewhere endif _x9 End\r\n"
      "\t12.5E+3 1.e3 3e x 4E-2 5e+ y 007 0.5 .5 9223372036854775807\n"
      "a#b $ \x80\xff c\f\vd <=>= /= == = / ( ) , : ! trailing\n"
      "  TRUE .and. False NOT Or realx Real integer1 ! eof comment");
  EXPECT_EQ(Got, Expected);
}

TEST(Lexer, GoldenFileTokenStreams) {
  // The inputs are listed, not globbed, so that adding a file does not
  // move a recorded digest.
  const std::map<std::string, std::string> Expected = {
      {"examples/programs/saxpy.mf", "0ed5daaa563730412b17215d697ef3d6"},
      {"examples/programs/smooth.mf", "7455fbfa49e32ff6287faac8fca1aa44"},
      {"rcbench/corpus/lls_overflow.mf", "9ceab4930347849b488a23021c0138be"},
      {"rcbench/corpus/off_by_one.mf", "f13c5c7a7ada423bba39a0a731839f4e"},
      {"tests/hostile/frame_churn.mf", "4221724aaf9a573927ab54e0af7caa9b"},
      {"tests/hostile/huge_count.mf", "9d09089a81de2dbedd56992137266e7f"},
      {"tests/hostile/huge_extent.mf", "3eeada6fb8d3033f8d3d47fca019e610"},
  };
  const char *Files[] = {
      "rcbench/corpus/lls_overflow.mf", "rcbench/corpus/off_by_one.mf",
      "tests/hostile/frame_churn.mf",   "tests/hostile/huge_count.mf",
      "tests/hostile/huge_extent.mf",   "examples/programs/saxpy.mf",
      "examples/programs/smooth.mf",
  };
  std::map<std::string, std::string> Got;
  for (const char *F : Files)
    Got[F] = tokenStreamDigest(readRepoFile(F));
  EXPECT_EQ(Got, Expected);
}

} // namespace
