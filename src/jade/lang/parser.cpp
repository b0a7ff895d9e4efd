#include "jade/lang/parser.hpp"

#include <algorithm>

namespace jade::lang {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Program parse_program() {
    Program p;
    while (!at(Tok::kEnd)) p.statements.push_back(statement());
    return p;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t k = 1) const {
    return toks_[std::min(pos_ + k, toks_.size() - 1)];
  }
  bool at(Tok k) const { return cur().kind == k; }
  Token take() { return toks_[pos_++]; }

  Token expect(Tok k, const char* what) {
    if (!at(k)) throw LangError(std::string("expected ") + what, cur().line);
    return take();
  }

  [[noreturn]] void fail(const std::string& msg) {
    throw LangError(msg, cur().line);
  }

  /// The parser is at most this many levels deep at once, which keeps the
  /// AST's height within a small multiple of it; deeper input is a syntax
  /// error rather than a stack overflow in the parser, in the recursive AST
  /// destructor or in the recursive interpreter.
  static constexpr int kMaxDepth = 256;

  /// The nesting levels one parser frame has entered, released when the
  /// frame returns.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {}
    ~Nest() { p_.depth_ -= levels_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

    /// Enters one more level: a nested statement or unary operand, or one
    /// step of a left-associative chain (`a+b+c`, `a[i][j]`), which puts
    /// everything parsed before it one tree node deeper.
    void enter() {
      if (p_.depth_ == kMaxDepth)
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth) +
                " levels");
      ++p_.depth_;
      ++levels_;
    }

   private:
    Parser& p_;
    int levels_ = 0;
  };

  // --- statements ----------------------------------------------------------

  StmtPtr statement() {
    Nest nest(*this);
    nest.enter();
    switch (cur().kind) {
      case Tok::kLBrace: return block();
      case Tok::kVar: return var_decl();
      case Tok::kFor: return for_stmt();
      case Tok::kWhile: return while_stmt();
      case Tok::kIf: return if_stmt();
      case Tok::kWithonly: return withonly_stmt();
      case Tok::kWith: return withcont_stmt();
      default: break;
    }
    if (at(Tok::kIdent) && cur().text == "charge" &&
        peek().kind == Tok::kLParen)
      return charge_stmt();
    return simple_then_semi();
  }

  StmtPtr block() {
    auto s = make(Stmt::Kind::kBlock);
    expect(Tok::kLBrace, "'{'");
    while (!at(Tok::kRBrace)) s->body.push_back(statement());
    expect(Tok::kRBrace, "'}'");
    return s;
  }

  StmtPtr var_decl() {
    auto s = make(Stmt::Kind::kVarDecl);
    expect(Tok::kVar, "'var'");
    s->var_name = expect(Tok::kIdent, "variable name").text;
    expect(Tok::kAssign, "'='");
    s->expr = expression();
    expect(Tok::kSemi, "';'");
    return s;
  }

  /// Assignment, store or expression statement — without the trailing ';'
  /// (shared with for-headers).
  StmtPtr simple() {
    if (at(Tok::kVar)) {
      // allow 'var i = 0' in for-init
      auto s = make(Stmt::Kind::kVarDecl);
      take();
      s->var_name = expect(Tok::kIdent, "variable name").text;
      expect(Tok::kAssign, "'='");
      s->expr = expression();
      return s;
    }
    ExprPtr e = expression();
    if (at(Tok::kAssign)) {
      take();
      if (e->kind == Expr::Kind::kVar) {
        auto s = make(Stmt::Kind::kAssign);
        s->var_name = e->name;
        s->expr = expression();
        return s;
      }
      if (e->kind == Expr::Kind::kIndex) {
        auto s = make(Stmt::Kind::kStore);
        s->target = std::move(e);
        s->expr = expression();
        return s;
      }
      fail("assignment target must be a variable or an indexed element");
    }
    auto s = make(Stmt::Kind::kExpr);
    s->expr = std::move(e);
    return s;
  }

  StmtPtr simple_then_semi() {
    StmtPtr s = simple();
    expect(Tok::kSemi, "';'");
    return s;
  }

  StmtPtr for_stmt() {
    auto s = make(Stmt::Kind::kFor);
    expect(Tok::kFor, "'for'");
    expect(Tok::kLParen, "'('");
    s->init = simple();
    expect(Tok::kSemi, "';'");
    s->expr = expression();
    expect(Tok::kSemi, "';'");
    s->step = simple();
    expect(Tok::kRParen, "')'");
    s->then_branch = statement();
    return s;
  }

  StmtPtr while_stmt() {
    auto s = make(Stmt::Kind::kWhile);
    expect(Tok::kWhile, "'while'");
    expect(Tok::kLParen, "'('");
    s->expr = expression();
    expect(Tok::kRParen, "')'");
    s->then_branch = statement();
    return s;
  }

  StmtPtr if_stmt() {
    auto s = make(Stmt::Kind::kIf);
    expect(Tok::kIf, "'if'");
    expect(Tok::kLParen, "'('");
    s->expr = expression();
    expect(Tok::kRParen, "')'");
    s->then_branch = statement();
    if (at(Tok::kElse)) {
      take();
      s->else_branch = statement();
    }
    return s;
  }

  StmtPtr withonly_stmt() {
    auto s = make(Stmt::Kind::kWithonly);
    expect(Tok::kWithonly, "'withonly'");
    // The access-declaration section is an arbitrary block; its
    // rd()/wr()/df_*()/no_*() calls are interpreted as access statements
    // when the spec runs at task creation.
    s->spec = block();
    expect(Tok::kDo, "'do'");
    expect(Tok::kLParen, "'('");
    while (!at(Tok::kRParen)) {
      s->params.push_back(expect(Tok::kIdent, "parameter name").text);
      if (at(Tok::kComma)) take();
    }
    expect(Tok::kRParen, "')'");
    s->then_branch = statement();  // task body
    return s;
  }

  StmtPtr withcont_stmt() {
    auto s = make(Stmt::Kind::kWithCont);
    expect(Tok::kWith, "'with'");
    s->spec = block();
    expect(Tok::kCont, "'cont'");
    expect(Tok::kSemi, "';'");
    return s;
  }

  StmtPtr charge_stmt() {
    auto s = make(Stmt::Kind::kCharge);
    take();  // 'charge'
    expect(Tok::kLParen, "'('");
    s->expr = expression();
    expect(Tok::kRParen, "')'");
    expect(Tok::kSemi, "';'");
    return s;
  }

  StmtPtr make(Stmt::Kind kind) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = cur().line;
    return s;
  }

  // --- expressions ----------------------------------------------------------

  ExprPtr expression() { return or_expr(); }

  ExprPtr or_expr() {
    Nest nest(*this);
    ExprPtr e = and_expr();
    while (at(Tok::kOrOr)) {
      take();
      nest.enter();
      e = binary("||", std::move(e), and_expr());
    }
    return e;
  }

  ExprPtr and_expr() {
    Nest nest(*this);
    ExprPtr e = equality();
    while (at(Tok::kAndAnd)) {
      take();
      nest.enter();
      e = binary("&&", std::move(e), equality());
    }
    return e;
  }

  ExprPtr equality() {
    Nest nest(*this);
    ExprPtr e = relational();
    for (;;) {
      const char* op = at(Tok::kEq) ? "==" : at(Tok::kNe) ? "!=" : nullptr;
      if (op == nullptr) return e;
      take();
      nest.enter();
      e = binary(op, std::move(e), relational());
    }
  }

  ExprPtr relational() {
    Nest nest(*this);
    ExprPtr e = additive();
    for (;;) {
      const char* op = at(Tok::kLt)   ? "<"
                       : at(Tok::kGt) ? ">"
                       : at(Tok::kLe) ? "<="
                       : at(Tok::kGe) ? ">="
                                      : nullptr;
      if (op == nullptr) return e;
      take();
      nest.enter();
      e = binary(op, std::move(e), additive());
    }
  }

  ExprPtr additive() {
    Nest nest(*this);
    ExprPtr e = multiplicative();
    for (;;) {
      const char* op = at(Tok::kPlus) ? "+" : at(Tok::kMinus) ? "-" : nullptr;
      if (op == nullptr) return e;
      take();
      nest.enter();
      e = binary(op, std::move(e), multiplicative());
    }
  }

  ExprPtr multiplicative() {
    Nest nest(*this);
    ExprPtr e = unary();
    for (;;) {
      const char* op = at(Tok::kStar)      ? "*"
                       : at(Tok::kSlash)   ? "/"
                       : at(Tok::kPercent) ? "%"
                                           : nullptr;
      if (op == nullptr) return e;
      take();
      nest.enter();
      e = binary(op, std::move(e), unary());
    }
  }

  // Every other expression recursion (parentheses, call arguments, unary
  // operators) passes through here once per level.
  ExprPtr unary() {
    Nest nest(*this);
    nest.enter();
    if (at(Tok::kMinus)) {
      const int line = take().line;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = "-";
      e->line = line;
      e->lhs = unary();
      return e;
    }
    if (at(Tok::kNot)) {
      const int line = take().line;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = "!";
      e->line = line;
      e->lhs = unary();
      return e;
    }
    return postfix();
  }

  ExprPtr postfix() {
    Nest nest(*this);
    ExprPtr e = primary();
    while (at(Tok::kLBracket)) {
      const int line = take().line;
      nest.enter();
      auto idx = std::make_unique<Expr>();
      idx->kind = Expr::Kind::kIndex;
      idx->line = line;
      idx->lhs = std::move(e);
      idx->rhs = expression();
      expect(Tok::kRBracket, "']'");
      e = std::move(idx);
    }
    return e;
  }

  ExprPtr primary() {
    if (at(Tok::kNumber)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kNumber;
      e->line = cur().line;
      e->number = take().number;
      return e;
    }
    if (at(Tok::kIdent)) {
      Token id = take();
      if (at(Tok::kLParen)) {
        take();
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kCall;
        e->name = id.text;
        e->line = id.line;
        while (!at(Tok::kRParen)) {
          e->args.push_back(expression());
          if (at(Tok::kComma)) take();
        }
        expect(Tok::kRParen, "')'");
        return e;
      }
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kVar;
      e->name = id.text;
      e->line = id.line;
      return e;
    }
    if (at(Tok::kLParen)) {
      take();
      ExprPtr e = expression();
      expect(Tok::kRParen, "')'");
      return e;
    }
    fail("expected an expression");
  }

  ExprPtr binary(const char* op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->op = op;
    e->line = lhs->line;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Program parse(const std::string& source) {
  Parser parser(lex(source));
  return parser.parse_program();
}

}  // namespace jade::lang
