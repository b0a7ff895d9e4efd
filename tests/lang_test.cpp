// Tests for the mini Jade language front end: lexer, parser, interpreter
// basics, and the Jade constructs over real tasks.
#include <gtest/gtest.h>

#include "jade/lang/interp.hpp"
#include "jade/lang/parser.hpp"
#include "jade/mach/presets.hpp"

namespace jade::lang {
namespace {

// --- lexer -------------------------------------------------------------------

TEST(LangLexer, TokenKinds) {
  const auto toks = lex("var x = 1.5; // comment\nx = x + 2e3;");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::kVar);
  EXPECT_EQ(toks[1].kind, Tok::kIdent);
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].kind, Tok::kAssign);
  EXPECT_EQ(toks[3].kind, Tok::kNumber);
  EXPECT_DOUBLE_EQ(toks[3].number, 1.5);
  EXPECT_EQ(toks[4].kind, Tok::kSemi);
  // comment skipped; next is 'x' on line 2
  EXPECT_EQ(toks[5].text, "x");
  EXPECT_EQ(toks[5].line, 2);
  EXPECT_DOUBLE_EQ(toks[9].number, 2000.0);
}

TEST(LangLexer, KeywordsAndOperators) {
  const auto toks = lex("withonly do with cont for if else while <= >= == != && ||");
  EXPECT_EQ(toks[0].kind, Tok::kWithonly);
  EXPECT_EQ(toks[1].kind, Tok::kDo);
  EXPECT_EQ(toks[2].kind, Tok::kWith);
  EXPECT_EQ(toks[3].kind, Tok::kCont);
  EXPECT_EQ(toks[8].kind, Tok::kLe);
  EXPECT_EQ(toks[9].kind, Tok::kGe);
  EXPECT_EQ(toks[10].kind, Tok::kEq);
  EXPECT_EQ(toks[11].kind, Tok::kNe);
  EXPECT_EQ(toks[12].kind, Tok::kAndAnd);
  EXPECT_EQ(toks[13].kind, Tok::kOrOr);
}

TEST(LangLexer, BadCharacterReported) {
  try {
    lex("var x = 1;\nvar y = #;");
    FAIL();
  } catch (const LangError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// --- parser ------------------------------------------------------------------

TEST(LangParser, StatementShapes) {
  const Program p = parse(R"(
    var i = 0;
    for (i = 0; i < 10; i = i + 1) { x[0][i] = i * 2; }
    if (i >= 10) { i = 0; } else { i = 1; }
    while (i < 3) i = i + 1;
  )");
  ASSERT_EQ(p.statements.size(), 4u);
  EXPECT_EQ(p.statements[0]->kind, Stmt::Kind::kVarDecl);
  EXPECT_EQ(p.statements[1]->kind, Stmt::Kind::kFor);
  EXPECT_EQ(p.statements[2]->kind, Stmt::Kind::kIf);
  EXPECT_EQ(p.statements[3]->kind, Stmt::Kind::kWhile);
}

TEST(LangParser, WithonlyShape) {
  const Program p = parse(R"(
    withonly { rd_wr(c[i]); rd(r); } do (i) {
      charge(10);
      c[i][0] = sqrt(c[i][0]);
    }
  )");
  ASSERT_EQ(p.statements.size(), 1u);
  const Stmt& s = *p.statements[0];
  EXPECT_EQ(s.kind, Stmt::Kind::kWithonly);
  ASSERT_NE(s.spec, nullptr);
  EXPECT_EQ(s.spec->body.size(), 2u);
  ASSERT_EQ(s.params.size(), 1u);
  EXPECT_EQ(s.params[0], "i");
  EXPECT_EQ(s.then_branch->kind, Stmt::Kind::kBlock);
}

TEST(LangParser, SyntaxErrorsCarryLines) {
  try {
    parse("var x = ;");
    FAIL();
  } catch (const LangError& e) {
    EXPECT_EQ(e.line(), 1);
  }
  EXPECT_THROW(parse("withonly { rd(x); } (i) {}"), LangError);  // missing do
  EXPECT_THROW(parse("for (var i = 0; i < 2) {}"), LangError);
}

TEST(LangParser, DeepNestingIsASyntaxError) {
  const std::string deep(100000, '(');
  EXPECT_THROW(parse("x = " + deep + "1;"), LangError);
  EXPECT_THROW(parse(std::string(100000, '{')), LangError);
  EXPECT_THROW(parse("x = " + std::string(100000, '-') + "1;"), LangError);
  // Nesting well inside the bound still parses.
  EXPECT_NO_THROW(parse("x = " + std::string(50, '(') + "1" +
                        std::string(50, ')') + ";"));
}

TEST(LangParser, LongOperatorChainsAreASyntaxError) {
  // Left-associative chains build trees as deep as they are long.
  auto chain = [](const std::string& lhs, const std::string& step,
                  int steps) {
    std::string s = lhs + " = 0";
    for (int i = 0; i < steps; ++i) s += step;
    return s + ";";
  };
  EXPECT_THROW(parse(chain("x", "+1", 100000)), LangError);
  EXPECT_THROW(parse(chain("x", "*1", 100000)), LangError);
  EXPECT_THROW(parse(chain("x", "<1", 100000)), LangError);
  EXPECT_THROW(parse(chain("x", "&&1", 100000)), LangError);
  EXPECT_THROW(parse(chain("x", "[0]", 100000)), LangError);
  // A chain well inside the bound still parses and evaluates.
  Runtime rt;
  Environment env;
  auto out = rt.alloc<double>(1, "out");
  env.bind("out", out);
  run_program(rt, parse(chain("out[0]", "+1", 100)), env);
  EXPECT_DOUBLE_EQ(rt.get(out)[0], 100.0);
}

TEST(LangParser, Precedence) {
  // 1 + 2 * 3 < 10 && 4 == 4  parses and evaluates as expected.
  Runtime rt;
  Environment env;
  auto out = rt.alloc<double>(1, "out");
  env.bind("out", out);
  run_program(rt, parse("out[0] = (1 + 2 * 3 < 10) && (4 == 4);"), env);
  EXPECT_DOUBLE_EQ(rt.get(out)[0], 1.0);
}

// --- interpreter -------------------------------------------------------------

double run_scalar(const std::string& body) {
  Runtime rt;
  Environment env;
  auto out = rt.alloc<double>(1, "out");
  env.bind("out", out);
  run_program(rt, parse(body), env);
  return rt.get(out)[0];
}

TEST(LangInterp, ArithmeticAndControlFlow) {
  EXPECT_DOUBLE_EQ(run_scalar("out[0] = 2 + 3 * 4;"), 14.0);
  EXPECT_DOUBLE_EQ(run_scalar("out[0] = (2 + 3) * 4;"), 20.0);
  EXPECT_DOUBLE_EQ(run_scalar("out[0] = sqrt(81);"), 9.0);
  EXPECT_DOUBLE_EQ(run_scalar(R"(
    var acc = 0;
    for (var i = 1; i <= 10; i = i + 1) acc = acc + i;
    out[0] = acc;
  )"),
                   55.0);
  EXPECT_DOUBLE_EQ(run_scalar(R"(
    var i = 7;
    if (i % 2 == 1) out[0] = 1; else out[0] = 2;
  )"),
                   1.0);
  EXPECT_DOUBLE_EQ(run_scalar(R"(
    var x = 1;
    while (x < 100) x = x * 3;
    out[0] = x;
  )"),
                   243.0);
}

TEST(LangInterp, ScopingShadowsAndRestores) {
  EXPECT_DOUBLE_EQ(run_scalar(R"(
    var x = 1;
    {
      var x = 2;
      x = x + 1;
    }
    out[0] = x;
  )"),
                   1.0);
}

TEST(LangInterp, BuiltinsAndLen) {
  Runtime rt;
  Environment env;
  auto out = rt.alloc<double>(1, "out");
  auto data = rt.alloc<double>(7, "data");
  env.bind("out", out);
  env.bind("data", data);
  run_program(rt, parse("out[0] = len(data) + min(2, 9) + max(2, 9) + "
                        "abs(0 - 4) + floor(2.9);"),
              env);
  EXPECT_DOUBLE_EQ(rt.get(out)[0], 7 + 2 + 9 + 4 + 2);
}

TEST(LangInterp, HostScalarsVisible) {
  Runtime rt;
  Environment env;
  auto out = rt.alloc<double>(1, "out");
  env.bind("out", out);
  env.bind_scalar("n", 41.0);
  run_program(rt, parse("out[0] = n + 1;"), env);
  EXPECT_DOUBLE_EQ(rt.get(out)[0], 42.0);
}

TEST(LangInterp, ErrorsSurfaceWithLines) {
  auto expect_lang_error = [](const std::string& src) {
    Runtime rt;  // a Runtime supports one run()
    Environment env;
    env.bind("out", rt.alloc<double>(2, "out"));
    EXPECT_THROW(run_program(rt, parse(src), env), LangError) << src;
  };
  expect_lang_error("out[0] = nope;");
  expect_lang_error("out[0][1] = 1;");
  expect_lang_error("out[9] = 1;");
  expect_lang_error("rd(out);");  // access statement outside a spec
}

// --- Jade constructs ---------------------------------------------------------

RuntimeConfig config_for(EngineKind kind) {
  RuntimeConfig cfg;
  cfg.engine = kind;
  cfg.threads = 3;
  if (kind == EngineKind::kSim) cfg.cluster = presets::ideal(3);
  return cfg;
}

class LangTaskTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(LangTaskTest, TasksRunAndSynchronize) {
  Runtime rt(config_for(GetParam()));
  Environment env;
  std::vector<SharedRef<double>> cells;
  for (int i = 0; i < 4; ++i)
    cells.push_back(rt.alloc<double>(2, "cell" + std::to_string(i)));
  env.bind("a", cells);
  run_program(rt, parse(R"(
    // independent writers, then a dependent chain on a[0]
    for (var i = 0; i < 4; i = i + 1) {
      withonly { rd_wr(a[i]); } do (i) {
        charge(100);
        a[i][0] = i * 10;
        a[i][1] = i;
      }
    }
    for (var k = 0; k < 5; k = k + 1) {
      withonly { rd_wr(a[0]); } do (k) {
        a[0][0] = a[0][0] * 2 + k;
      }
    }
  )"),
              env);
  // serial: a0 = 0; then k-chain: x = 2x + k
  double x = 0;
  for (int k = 0; k < 5; ++k) x = 2 * x + k;
  EXPECT_DOUBLE_EQ(rt.get(cells[0])[0], x);
  EXPECT_DOUBLE_EQ(rt.get(cells[3])[0], 30.0);
  EXPECT_EQ(rt.stats().tasks_created, 9u);
}

TEST_P(LangTaskTest, UndeclaredAccessCaughtByRuntime) {
  Runtime rt(config_for(GetParam()));
  Environment env;
  auto a = rt.alloc<double>(1, "a");
  auto b = rt.alloc<double>(1, "b");
  env.bind("a", a);
  env.bind("b", b);
  EXPECT_THROW(run_program(rt, parse(R"(
                 withonly { rd_wr(a); } do () { b[0] = 1; }
               )"),
                           env),
               UndeclaredAccessError);
}

TEST_P(LangTaskTest, DynamicSpecLoopAndWithCont) {
  // The Section 4.2 pipeline, in the scripting language: deferred reads
  // converted one by one.
  Runtime rt(config_for(GetParam()));
  Environment env;
  std::vector<SharedRef<double>> cols;
  for (int i = 0; i < 6; ++i)
    cols.push_back(rt.alloc<double>(1, "col" + std::to_string(i)));
  auto sum = rt.alloc<double>(1, "sum");
  env.bind("c", cols);
  env.bind("sum", sum);
  env.bind_scalar("n", 6);
  run_program(rt, parse(R"(
    for (var i = 0; i < n; i = i + 1) {
      withonly { rd_wr(c[i]); } do (i) {
        charge(50);
        c[i][0] = (i + 1) * (i + 1);
      }
    }
    withonly {
      rd_wr(sum);
      for (var i = 0; i < n; i = i + 1) df_rd(c[i]);
    } do () {
      for (var j = 0; j < n; j = j + 1) {
        with { rd(c[j]); } cont;
        sum[0] = sum[0] + c[j][0];
        with { no_rd(c[j]); } cont;
      }
    }
  )"),
              env);
  EXPECT_DOUBLE_EQ(rt.get(sum)[0], 1 + 4 + 9 + 16 + 25 + 36);
}

TEST_P(LangTaskTest, NestedTasksAndParentReacquire) {
  Runtime rt(config_for(GetParam()));
  Environment env;
  auto v = rt.alloc<double>(1, "v");
  env.bind("v", v);
  run_program(rt, parse(R"(
    withonly { rd_wr(v); } do () {
      withonly { rd_wr(v); } do () { v[0] = 5; }
      v[0] = v[0] * 10 + 1;
    }
  )"),
              env);
  EXPECT_DOUBLE_EQ(rt.get(v)[0], 51.0);
}

TEST_P(LangTaskTest, CommutingUpdates) {
  Runtime rt(config_for(GetParam()));
  Environment env;
  auto acc = rt.alloc<double>(1, "acc");
  env.bind("acc", acc);
  run_program(rt, parse(R"(
    for (var i = 1; i <= 12; i = i + 1) {
      withonly { cm(acc); } do (i) { acc[0] = acc[0] + i; }
    }
  )"),
              env);
  EXPECT_DOUBLE_EQ(rt.get(acc)[0], 78.0);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, LangTaskTest,
                         ::testing::Values(EngineKind::kSerial,
                                           EngineKind::kThread,
                                           EngineKind::kSim),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kSerial: return "Serial";
                             case EngineKind::kThread: return "Thread";
                             case EngineKind::kSim: return "Sim";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace jade::lang
