"""Tests for the loop-language parser."""

import pytest

from repro.frontend import ast
from repro.frontend.lexer import FrontendError
from repro.frontend.parser import parse_program


class TestStatements:
    def test_assignment(self):
        program = parse_program("x = 1 + 2 * 3")
        stmt = program.body[0]
        assert isinstance(stmt, ast.Assign)
        assert stmt.target == "x"
        assert isinstance(stmt.value, ast.BinaryExpr) and stmt.value.op == "+"

    def test_precedence(self):
        expr = parse_program("x = 1 + 2 * 3").body[0].value
        assert expr.op == "+"
        assert isinstance(expr.rhs, ast.BinaryExpr) and expr.rhs.op == "*"

    def test_power_right_associative(self):
        expr = parse_program("x = 2 ** 3 ** 2").body[0].value
        assert expr.op == "**"
        assert isinstance(expr.rhs, ast.BinaryExpr) and expr.rhs.op == "**"

    def test_parentheses(self):
        expr = parse_program("x = (1 + 2) * 3").body[0].value
        assert expr.op == "*"

    def test_unary_minus(self):
        expr = parse_program("x = -y").body[0].value
        assert isinstance(expr, ast.UnaryExpr)

    def test_array_store_1d(self):
        stmt = parse_program("A[i] = 0").body[0]
        assert isinstance(stmt, ast.StoreStmt)
        assert len(stmt.indices) == 1

    def test_array_store_2d(self):
        stmt = parse_program("A[i, j + 1] = 0").body[0]
        assert len(stmt.indices) == 2

    def test_array_load_in_expr(self):
        stmt = parse_program("x = A[i, j] + B[k]").body[0]
        assert isinstance(stmt.value.lhs, ast.ArrayRef)
        assert len(stmt.value.lhs.indices) == 2
        assert len(stmt.value.rhs.indices) == 1

    def test_return(self):
        assert parse_program("return").body[0].value is None
        assert parse_program("return x + 1").body[0].value is not None

    def test_mod_keyword_and_percent(self):
        a = parse_program("x = a mod 2").body[0].value
        b = parse_program("x = a % 2").body[0].value
        assert a.op == b.op == "%"


class TestControlFlow:
    def test_if_else(self):
        program = parse_program(
            "if x > 0 then\n  y = 1\nelse\n  y = 2\nendif"
        )
        stmt = program.body[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_if_no_else(self):
        stmt = parse_program("if x > 0 then\n  y = 1\nendif").body[0]
        assert stmt.else_body == []

    def test_nested_if(self):
        stmt = parse_program(
            "if a > 0 then\n  if b > 0 then\n    c = 1\n  endif\nendif"
        ).body[0]
        assert isinstance(stmt.then_body[0], ast.If)

    def test_loop_with_label(self):
        stmt = parse_program("L7: loop\n  break\nendloop").body[0]
        assert isinstance(stmt, ast.Loop) and stmt.label == "L7"

    def test_loop_without_label(self):
        stmt = parse_program("loop\n  break\nendloop").body[0]
        assert stmt.label is None

    def test_while(self):
        stmt = parse_program("while i < n do\n  i = i + 1\nendwhile").body[0]
        assert isinstance(stmt, ast.WhileLoop)

    def test_for_basic(self):
        stmt = parse_program("for i = 1 to n do\n  x = i\nendfor").body[0]
        assert isinstance(stmt, ast.ForLoop)
        assert not stmt.downward and stmt.step is None

    def test_for_downto_by(self):
        stmt = parse_program("for i = n downto 1 by 2 do\n  x = i\nendfor").body[0]
        assert stmt.downward and stmt.step is not None

    def test_conditions_and_or_not(self):
        stmt = parse_program(
            "if a > 0 and not (b < 1 or c == 2) then\n  x = 1\nendif"
        ).body[0]
        cond = stmt.condition
        assert isinstance(cond, ast.BoolExpr) and cond.op == "and"
        assert isinstance(cond.rhs, ast.NotExpr)

    def test_parenthesized_expression_comparison(self):
        stmt = parse_program("if (a + b) < c then\n  x = 1\nendif").body[0]
        assert isinstance(stmt.condition, ast.CompareExpr)


class TestErrors:
    def test_missing_endloop(self):
        with pytest.raises(FrontendError):
            parse_program("loop\n  x = 1")

    def test_unexpected_end(self):
        with pytest.raises(FrontendError):
            parse_program("endif")

    def test_label_on_non_loop(self):
        with pytest.raises(FrontendError, match="labels"):
            parse_program("L1: x = 2")

    def test_missing_comparison(self):
        with pytest.raises(FrontendError, match="comparison"):
            parse_program("if x then\n  y = 1\nendif")

    def test_for_missing_to(self):
        with pytest.raises(FrontendError, match="'to'"):
            parse_program("for i = 1, n do\nendfor")

    def test_two_statements_one_line(self):
        with pytest.raises(FrontendError):
            parse_program("x = 1 y = 2")

    def test_garbage(self):
        with pytest.raises(FrontendError):
            parse_program("x = ")

    @pytest.mark.parametrize(
        "source,message",
        [
            # the '(cond)' reading gets further than the '(expr)' one
            ("if (a < b then\n  x = 1\nendif", "1:11: expected ')', found 'then'"),
            (
                "while (i < n and (j > 0) do\n  x = 1\nendwhile",
                "1:26: expected ')', found 'do'",
            ),
            # the '(expr)' reading gets further than the '(cond)' one
            ("if (a + b) then\n  x = 1\nendif", "1:12: expected a comparison operator"),
        ],
        ids=["if-cond", "while-nested-cond", "if-expr"],
    )
    def test_parenthesized_condition_reports_furthest_error(self, source, message):
        with pytest.raises(FrontendError) as excinfo:
            parse_program(source)
        assert str(excinfo.value) == message
