//===- cl/Parser.cpp - CL parser -------------------------------------------===//

#include "cl/Parser.h"

#include "cl/Lexer.h"

#include <string_view>
#include <unordered_map>

using namespace ceal;
using namespace ceal::cl;

namespace {

const std::unordered_map<std::string_view, OpKind> &opTable() {
  static const std::unordered_map<std::string_view, OpKind> Table = {
      {"add", OpKind::Add}, {"sub", OpKind::Sub}, {"mul", OpKind::Mul},
      {"div", OpKind::Div}, {"mod", OpKind::Mod}, {"lt", OpKind::Lt},
      {"le", OpKind::Le},   {"gt", OpKind::Gt},   {"ge", OpKind::Ge},
      {"eq", OpKind::Eq},   {"ne", OpKind::Ne},   {"and", OpKind::And},
      {"or", OpKind::Or},   {"not", OpKind::Not}, {"neg", OpKind::Neg},
  };
  return Table;
}

class Parser {
public:
  explicit Parser(const std::string &Source) : Tokens(lex(Source)) {}

  ParseResult run() {
    // Pre-scan function names so references may be forward.
    for (size_t I = 0; I + 1 < Tokens.size(); ++I)
      if (Tokens[I].K == Token::Ident && Tokens[I].Text == "func" &&
          Tokens[I + 1].K == Token::Ident) {
        if (FuncIds.count(Tokens[I + 1].Text))
          return fail(Tokens[I + 1].Line,
                      "duplicate function '" + Tokens[I + 1].Text + "'");
        FuncIds[Tokens[I + 1].Text] = static_cast<FuncId>(FuncIds.size());
      }
    Prog.Funcs.resize(FuncIds.size());
    while (!Failed && peek().K != Token::EndOfFile)
      parseFunc();
    if (Failed)
      return {std::nullopt, Error};
    if (Prog.Funcs.empty())
      return fail(1, "empty program");
    return {std::move(Prog), ""};
  }

private:
  const Token &peek() const { return Tokens[Pos]; }
  const Token &next() { return Tokens[Pos++]; }

  ParseResult fail(unsigned Line, const std::string &Msg) {
    if (!Failed) {
      Failed = true;
      Error = "line " + std::to_string(Line) + ": " + Msg;
    }
    return {std::nullopt, Error};
  }
  void err(const std::string &Msg) { fail(peek().Line, Msg); }

  bool expect(Token::Kind K, const char *What) {
    if (peek().K != K) {
      err(std::string("expected ") + What + ", found '" + peek().Text + "'");
      return false;
    }
    ++Pos;
    return true;
  }

  bool expectKeyword(const char *KW) {
    if (peek().K != Token::Ident || peek().Text != KW) {
      err(std::string("expected '") + KW + "', found '" + peek().Text + "'");
      return false;
    }
    ++Pos;
    return true;
  }

  /// The identifier's text, or "" after a failure. The reference stays
  /// valid for the parser's lifetime: the token vector is never resized.
  const std::string &parseIdent(const char *What) {
    static const std::string Empty;
    if (peek().K != Token::Ident) {
      err(std::string("expected ") + What);
      return Empty;
    }
    return next().Text;
  }

  std::optional<Type> parseType() {
    const std::string &Base = parseIdent("type");
    if (Failed)
      return std::nullopt;
    Type T;
    if (Base == "int")
      T.Base = Type::Int;
    else if (Base == "modref")
      T.Base = Type::Modref;
    else {
      err("unknown type '" + Base + "'");
      return std::nullopt;
    }
    while (peek().K == Token::Star) {
      ++Pos;
      ++T.Indirection;
    }
    return T;
  }

  VarId lookupVar(const std::string &Name) {
    auto It = VarIds.find(Name);
    if (It == VarIds.end()) {
      err("unknown variable '" + Name + "'");
      return InvalidId;
    }
    return It->second;
  }

  VarId parseVarRef() { return lookupVar(parseIdent("variable")); }

  FuncId lookupFunc(const std::string &Name) {
    auto It = FuncIds.find(Name);
    if (It == FuncIds.end()) {
      err("unknown function '" + Name + "'");
      return InvalidId;
    }
    return It->second;
  }

  /// Parses "( [x ("," x)*] )".
  std::vector<VarId> parseVarList() {
    std::vector<VarId> Args;
    if (!expect(Token::LParen, "'('"))
      return Args;
    if (peek().K != Token::RParen) {
      Args.push_back(parseVarRef());
      while (!Failed && peek().K == Token::Comma) {
        ++Pos;
        Args.push_back(parseVarRef());
      }
    }
    expect(Token::RParen, "')'");
    return Args;
  }

  Jump parseJump() {
    const std::string &KW = parseIdent("jump");
    if (KW == "goto") {
      const std::string &Label = parseIdent("label");
      Jump J;
      J.K = Jump::Goto;
      // Targets may be forward references; store an index into
      // PendingLabels (tagged) and resolve at function end.
      PendingLabels.push_back(Label);
      J.Target = static_cast<BlockId>(PendingLabels.size() - 1) | LabelTag;
      return J;
    }
    if (KW == "tail") {
      const std::string &Name = parseIdent("function");
      Jump J;
      J.K = Jump::Tail;
      J.Fn = Failed ? InvalidId : lookupFunc(Name);
      J.Args = parseVarList();
      return J;
    }
    err("expected 'goto' or 'tail'");
    return Jump();
  }

  Expr parseExpr() {
    if (peek().K == Token::Number)
      return Expr::makeConst(next().Value);
    const std::string &Name = parseIdent("expression");
    if (Failed)
      return Expr();
    auto OpIt = opTable().find(Name);
    if (OpIt != opTable().end() && peek().K == Token::LParen) {
      std::vector<VarId> Args = parseVarList();
      if (!Failed && Args.size() != opArity(OpIt->second))
        err("operator '" + Name + "' expects " +
            std::to_string(opArity(OpIt->second)) + " operands");
      return Expr::makePrim(OpIt->second, std::move(Args));
    }
    VarId V = lookupVar(Name);
    if (peek().K == Token::LBracket) {
      ++Pos;
      VarId Idx = parseVarRef();
      expect(Token::RBracket, "']'");
      return Expr::makeIndex(V, Idx);
    }
    return Expr::makeVar(V);
  }

  Command parseCommandStartingWithIdent(const std::string &First) {
    Command C;
    if (First == "nop") {
      C.K = Command::Nop;
      return C;
    }
    if (First == "write") {
      C.K = Command::Write;
      expect(Token::LParen, "'('");
      C.Ref = parseVarRef();
      expect(Token::Comma, "','");
      C.Val = parseVarRef();
      expect(Token::RParen, "')'");
      return C;
    }
    if (First == "call") {
      C.K = Command::Call;
      const std::string &Name = parseIdent("function");
      if (!Failed)
        C.Fn = lookupFunc(Name);
      C.Args = parseVarList();
      return C;
    }
    // Assignment forms: x := ... or x[y] := ...
    VarId Dst = lookupVar(First);
    if (peek().K == Token::LBracket) {
      ++Pos;
      C.K = Command::Store;
      C.Base = Dst;
      C.Idx = parseVarRef();
      expect(Token::RBracket, "']'");
      expect(Token::Assign, "':='");
      C.E = parseExpr();
      return C;
    }
    if (!expect(Token::Assign, "':='"))
      return C;
    if (peek().K == Token::Ident) {
      const std::string &KW = peek().Text;
      if (KW == "modref" && Tokens[Pos + 1].K == Token::LParen) {
        ++Pos;
        C.K = Command::ModrefAlloc;
        C.Dst = Dst;
        C.Args = parseVarList(); // Optional memo-key arguments.
        return C;
      }
      if (KW == "read") {
        ++Pos;
        C.K = Command::Read;
        C.Dst = Dst;
        C.Src = parseVarRef();
        return C;
      }
      if (KW == "alloc") {
        ++Pos;
        C.K = Command::Alloc;
        C.Dst = Dst;
        expect(Token::LParen, "'('");
        C.SizeVar = parseVarRef();
        expect(Token::Comma, "','");
        const std::string &Init = parseIdent("init function");
        if (!Failed)
          C.Fn = lookupFunc(Init);
        while (!Failed && peek().K == Token::Comma) {
          ++Pos;
          C.Args.push_back(parseVarRef());
        }
        expect(Token::RParen, "')'");
        return C;
      }
    }
    C.K = Command::Assign;
    C.Dst = Dst;
    C.E = parseExpr();
    return C;
  }

  void parseBlock(Function &F) {
    const std::string &Label = parseIdent("label");
    if (!expect(Token::Colon, "':'"))
      return;
    if (Labels.count(Label)) {
      err("duplicate label '" + Label + "'");
      return;
    }
    Labels[Label] = static_cast<BlockId>(F.Blocks.size());
    BasicBlock B;
    B.Label = Label;
    if (peek().K == Token::Ident && peek().Text == "done") {
      ++Pos;
      B.K = BasicBlock::Done;
      expect(Token::Semi, "';'");
    } else if (peek().K == Token::Ident && peek().Text == "if") {
      ++Pos;
      B.K = BasicBlock::Cond;
      B.CondVar = parseVarRef();
      expectKeyword("then");
      B.J1 = parseJump();
      expectKeyword("else");
      B.J2 = parseJump();
      expect(Token::Semi, "';'");
    } else {
      B.K = BasicBlock::Cmd;
      const std::string &First = parseIdent("command");
      if (Failed)
        return;
      B.C = parseCommandStartingWithIdent(First);
      expect(Token::Semi, "';'");
      B.J = parseJump();
      expect(Token::Semi, "';'");
    }
    F.Blocks.push_back(std::move(B));
  }

  void resolveLabels(Function &F, unsigned Line) {
    auto Resolve = [&](Jump &J) {
      if (J.K != Jump::Goto || !(J.Target & LabelTag))
        return;
      std::string_view Label = PendingLabels[J.Target & ~LabelTag];
      auto It = Labels.find(Label);
      if (It == Labels.end()) {
        fail(Line, "undefined label '" + std::string(Label) +
                       "' in function " + F.Name);
        return;
      }
      J.Target = It->second;
    };
    for (BasicBlock &B : F.Blocks) {
      if (B.K == BasicBlock::Cond) {
        Resolve(B.J1);
        Resolve(B.J2);
      } else if (B.K == BasicBlock::Cmd) {
        Resolve(B.J);
      }
    }
  }

  void parseFunc() {
    unsigned StartLine = peek().Line;
    if (!expectKeyword("func"))
      return;
    const std::string &Name = parseIdent("function name");
    if (Failed)
      return;
    FuncId Id = FuncIds.at(Name);
    Function &F = Prog.Funcs[Id];
    F.Name = Name;
    VarIds.clear();
    Labels.clear();
    PendingLabels.clear();
    expect(Token::LParen, "'('");
    if (peek().K != Token::RParen) {
      do {
        auto Ty = parseType();
        if (!Ty)
          return;
        const std::string &VarName = parseIdent("parameter name");
        if (Failed)
          return;
        if (VarIds.count(VarName)) {
          err("duplicate parameter '" + VarName + "'");
          return;
        }
        VarIds[VarName] = static_cast<VarId>(F.Vars.size());
        F.Vars.push_back({VarName, *Ty});
        ++F.NumParams;
      } while (!Failed && peek().K == Token::Comma && (++Pos, true));
    }
    expect(Token::RParen, "')'");
    expect(Token::LBrace, "'{'");
    while (!Failed && peek().K == Token::Ident && peek().Text == "var") {
      ++Pos;
      auto Ty = parseType();
      if (!Ty)
        return;
      const std::string &VarName = parseIdent("variable name");
      if (Failed)
        return;
      if (VarIds.count(VarName)) {
        err("duplicate variable '" + VarName + "'");
        return;
      }
      VarIds[VarName] = static_cast<VarId>(F.Vars.size());
      F.Vars.push_back({VarName, *Ty});
      expect(Token::Semi, "';'");
    }
    while (!Failed && peek().K != Token::RBrace &&
           peek().K != Token::EndOfFile)
      parseBlock(F);
    expect(Token::RBrace, "'}'");
    if (!Failed && F.Blocks.empty()) {
      fail(StartLine, "function '" + Name + "' has no blocks");
      return;
    }
    if (!Failed)
      resolveLabels(F, StartLine);
  }

  static constexpr BlockId LabelTag = BlockId(1) << 30;

  // The name tables key on views of token text; Tokens is never resized
  // after lexing, so the views stay valid.
  std::vector<Token> Tokens;
  size_t Pos = 0;
  Program Prog;
  std::unordered_map<std::string_view, FuncId> FuncIds;
  std::unordered_map<std::string_view, VarId> VarIds;   // Per function.
  std::unordered_map<std::string_view, BlockId> Labels; // Per function.
  std::vector<std::string_view> PendingLabels;
  bool Failed = false;
  std::string Error;
};

} // namespace

ParseResult cl::parseProgram(const std::string &Source) {
  return Parser(Source).run();
}
