"""Recursive-descent parser for the loop language.

Grammar (newline-separated statements)::

    program  :=  { stmt NEWLINE }
    stmt     :=  [ NAME ':' ] loop | simple
    loop     :=  'loop' NEWLINE body 'endloop'
              |  'while' cond 'do' NEWLINE body 'endwhile'
              |  'for' NAME '=' expr ('to'|'downto') expr ['by' expr] 'do'
                     NEWLINE body 'endfor'
    simple   :=  NAME '=' expr
              |  NAME '[' expr ']' '=' expr
              |  'if' cond 'then' NEWLINE body ['else' NEWLINE body] 'endif'
              |  'break' | 'return' [expr]
              |  'assume' NAME REL ['-'] NUMBER
              |  'array' NAME '[' extent { ',' extent } ']'
    extent   :=  NUMBER | NAME
    cond     :=  orcond ;  orcond := andcond { 'or' andcond }
    andcond  :=  notcond { 'and' notcond }
    notcond  :=  'not' notcond | '(' cond ')' | expr REL expr
    expr     :=  term  { ('+'|'-') term }
    term     :=  factor { ('*'|'/'|'%'|'mod') factor }
    factor   :=  base [ '**' factor ]          (right associative)
    base     :=  NUMBER | NAME | NAME '[' expr ']' | '(' expr ')' | '-' base
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast
from repro.frontend.lexer import FrontendError, Token, TokenKind, tokenize

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point

_RELATIONS = {"<", "<=", ">", ">=", "==", "!="}
_ASSUME_RELATIONS = {"<", "<=", ">", ">=", "=="}
_BLOCK_ENDERS = {"endloop", "endwhile", "endfor", "endif", "else"}
#: texts that stop a statement list: a block ender, or EOF's ""
_BODY_STOPS = _BLOCK_ENDERS | {""}
_ADDITIVE = {"+", "-"}
_MULTIPLICATIVE = {"*": "*", "/": "/", "%": "%", "mod": "%"}

_NAME = TokenKind.NAME
_NUMBER = TokenKind.NUMBER


class _Parser:
    """Recursive descent over a token list ending in EOF.

    ``texts[pos]`` is the current token's text.  Names and numbers never
    share a text with an operator or keyword, NEWLINE's text is "\\n" and
    EOF's is "", so one string compare identifies any fixed token.  The
    parser never moves past EOF.
    """

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.texts = [token.text for token in tokens]
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def error(self, message: str) -> FrontendError:
        token = self.tokens[self.pos]
        return FrontendError(token.line, token.column, message)

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"expected {text!r}, found {self.texts[self.pos]!r}")
        self.pos += 1

    def expect_name(self) -> str:
        token = self.tokens[self.pos]
        if token.kind is not _NAME:
            raise self.error(f"expected a name, found {token.text!r}")
        self.pos += 1
        return token.text

    def skip_newlines(self) -> None:
        texts = self.texts
        while texts[self.pos] == "\n":
            self.pos += 1

    def end_statement(self) -> None:
        text = self.texts[self.pos]
        if text == "\n":
            self.pos += 1
        elif text:
            raise self.error(f"unexpected {text!r} after statement")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        return ast.Program(self.parse_body(until=None))

    def parse_body(self, until: Optional[set]) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        texts = self.texts
        while True:
            self.skip_newlines()
            text = texts[self.pos]
            if text in _BODY_STOPS:
                if not text:
                    if until:
                        raise self.error(f"missing {sorted(until)}")
                    return statements
                if until and text in until:
                    return statements
                raise self.error(f"unexpected {text!r}")
            statements.append(self.parse_statement())

    def parse_statement(self) -> ast.Statement:
        label: Optional[str] = None
        token = self.tokens[self.pos]
        if token.kind is _NAME:
            if self.texts[self.pos + 1] != ":":
                return self.parse_assignment()
            label = token.text
            self.pos += 2
            self.skip_newlines()
            token = self.tokens[self.pos]

        text = token.text
        if token.kind is TokenKind.KEYWORD:
            if text == "loop":
                return self.parse_loop(label)
            if text == "while":
                return self.parse_while(label)
            if text == "for":
                return self.parse_for(label)
            if label is not None:
                raise self.error("labels may only precede loops")
            if text == "if":
                return self.parse_if()
            if text == "break":
                self.pos += 1
                self.end_statement()
                return ast.Break()
            if text == "continue":
                self.pos += 1
                self.end_statement()
                return ast.Continue()
            if text == "return":
                self.pos += 1
                if self.texts[self.pos] in ("\n", ""):
                    self.end_statement()
                    return ast.Return(None)
                value = self.parse_expression()
                self.end_statement()
                return ast.Return(value)
            if text == "assume":
                return self.parse_assume()
            if text == "array":
                return self.parse_array_decl()
            raise self.error(f"unexpected {text!r}")
        if label is not None:
            raise self.error("labels may only precede loops")
        return self.parse_assignment()

    def parse_loop(self, label: Optional[str]) -> ast.Loop:
        self.expect("loop")
        self.end_statement()
        body = self.parse_body({"endloop"})
        self.expect("endloop")
        self.end_statement()
        return ast.Loop(body, label=label)

    def parse_while(self, label: Optional[str]) -> ast.WhileLoop:
        self.expect("while")
        condition = self.parse_condition()
        self.expect("do")
        self.end_statement()
        body = self.parse_body({"endwhile"})
        self.expect("endwhile")
        self.end_statement()
        return ast.WhileLoop(condition, body, label=label)

    def parse_for(self, label: Optional[str]) -> ast.ForLoop:
        self.expect("for")
        var = self.expect_name()
        self.expect("=")
        start = self.parse_expression()
        downward = False
        if self.accept("to"):
            pass
        elif self.accept("downto"):
            downward = True
        else:
            raise self.error("expected 'to' or 'downto' in for loop")
        stop = self.parse_expression()
        step = None
        if self.accept("by"):
            step = self.parse_expression()
        self.expect("do")
        self.end_statement()
        body = self.parse_body({"endfor"})
        self.expect("endfor")
        self.end_statement()
        return ast.ForLoop(var, start, stop, body, downward=downward, step=step, label=label)

    def parse_assume(self) -> ast.AssumeStmt:
        """``assume n <= 50``: a parameter fact consumed by repro.ranges."""
        self.expect("assume")
        name = self.expect_name()
        relation = self.texts[self.pos]
        if relation not in _ASSUME_RELATIONS:
            raise self.error("expected a relation after 'assume'")
        self.pos += 1
        negative = self.accept("-")
        token = self.tokens[self.pos]
        if token.kind is not _NUMBER:
            raise self.error("assume bounds must be integer literals")
        self.pos += 1
        bound = int(token.text)
        self.end_statement()
        return ast.AssumeStmt(name, relation, -bound if negative else bound)

    def parse_array_decl(self) -> ast.ArrayDecl:
        """``array A[10]`` / ``array A[n, 20]``: declared extents."""
        self.expect("array")
        name = self.expect_name()
        self.expect("[")
        extents: List[object] = [self.parse_extent()]
        while self.accept(","):
            extents.append(self.parse_extent())
        self.expect("]")
        self.end_statement()
        return ast.ArrayDecl(name, tuple(extents))

    def parse_extent(self):
        token = self.tokens[self.pos]
        if token.kind is _NUMBER:
            self.pos += 1
            return int(token.text)
        if token.kind is _NAME:
            self.pos += 1
            return token.text
        raise self.error("array extents must be numbers or names")

    def parse_if(self) -> ast.If:
        self.expect("if")
        condition = self.parse_condition()
        self.expect("then")
        self.end_statement()
        then_body = self.parse_body({"endif", "else"})
        else_body: List[ast.Statement] = []
        if self.accept("else"):
            self.end_statement()
            else_body = self.parse_body({"endif"})
        self.expect("endif")
        self.end_statement()
        return ast.If(condition, then_body, else_body)

    def parse_assignment(self) -> ast.Statement:
        target = self.expect_name()
        if self.accept("["):
            indices = self.parse_index_list()
            self.expect("=")
            value = self.parse_expression()
            self.end_statement()
            return ast.StoreStmt(target, indices, value)
        self.expect("=")
        value = self.parse_expression()
        self.end_statement()
        return ast.Assign(target, value)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------
    def parse_condition(self) -> ast.Condition:
        return self.parse_or()

    def parse_or(self) -> ast.Condition:
        left = self.parse_and()
        while self.accept("or"):
            right = self.parse_and()
            left = ast.BoolExpr("or", left, right)
        return left

    def parse_and(self) -> ast.Condition:
        left = self.parse_not()
        while self.accept("and"):
            right = self.parse_not()
            left = ast.BoolExpr("and", left, right)
        return left

    def parse_not(self) -> ast.Condition:
        if self.accept("not"):
            return ast.NotExpr(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Condition:
        attempt: Optional[FrontendError] = None
        if self.texts[self.pos] == "(":
            # could be '(cond)' or the lhs expression '(a+b) < c'; try cond
            saved = self.pos
            try:
                self.pos += 1
                condition = self.parse_condition()
                self.expect(")")
                if self.texts[self.pos] not in _RELATIONS:
                    return condition
            except FrontendError as error:
                attempt = error
            self.pos = saved
        try:
            lhs = self.parse_expression()
            relation = self.texts[self.pos]
            if relation not in _RELATIONS:
                raise self.error("expected a comparison operator")
            self.pos += 1
            return ast.CompareExpr(relation, lhs, self.parse_expression())
        except FrontendError as error:
            # both readings failed: report the one that got further
            if attempt is not None:
                if (attempt.line, attempt.column) > (error.line, error.column):
                    raise attempt from None
            raise

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_index_list(self) -> tuple:
        """Comma-separated subscript list after '['; consumes the ']'."""
        indices = [self.parse_expression()]
        while self.accept(","):
            indices.append(self.parse_expression())
        self.expect("]")
        return tuple(indices)

    def parse_expression(self) -> ast.Expression:
        left = self.parse_term()
        texts = self.texts
        op = texts[self.pos]
        while op in _ADDITIVE:
            self.pos += 1
            left = ast.BinaryExpr(op, left, self.parse_term())
            op = texts[self.pos]
        return left

    def parse_term(self) -> ast.Expression:
        left = self.parse_factor()
        texts = self.texts
        op = _MULTIPLICATIVE.get(texts[self.pos])
        while op is not None:
            self.pos += 1
            left = ast.BinaryExpr(op, left, self.parse_factor())
            op = _MULTIPLICATIVE.get(texts[self.pos])
        return left

    def parse_factor(self) -> ast.Expression:
        base = self.parse_base()
        if self.texts[self.pos] == "**":
            self.pos += 1
            return ast.BinaryExpr("**", base, self.parse_factor())
        return base

    def parse_base(self) -> ast.Expression:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is _NUMBER:
            self.pos += 1
            return ast.IntLit(int(token.text))
        if kind is _NAME:
            self.pos += 1
            if self.accept("["):
                return ast.ArrayRef(token.text, self.parse_index_list())
            return ast.Name(token.text)
        if self.accept("("):
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if self.accept("-"):
            return ast.UnaryExpr("-", self.parse_base())
        raise self.error(f"unexpected {token.text!r}")


@traced("frontend.parse")
def parse_program(source: str) -> ast.Program:
    """Parse source text into an AST."""
    fault_point("frontend.parse")
    parser = _Parser(tokenize(source))
    try:
        return parser.parse_program()
    except RecursionError:
        # a syntax error like any other, at the token where depth ran out
        raise parser.error("expression nested too deeply") from None
