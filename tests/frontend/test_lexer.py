"""Tests for the loop-language lexer."""

import pytest

from repro.frontend.lexer import FrontendError, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind not in (TokenKind.NEWLINE, TokenKind.EOF)]


class TestTokens:
    def test_simple_assignment(self):
        assert texts("i = i + 1") == ["i", "=", "i", "+", "1"]

    def test_keywords_recognized(self):
        tokens = tokenize("for i = 1 to n do")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[0].text == "for"

    def test_name_not_keyword(self):
        tokens = tokenize("fortune = 1")
        assert tokens[0].kind is TokenKind.NAME

    def test_multichar_operators(self):
        assert texts("a <= b >= c == d != e ** f") == [
            "a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "**", "f",
        ]

    def test_star_star_beats_star(self):
        assert "**" in texts("x ** 2")
        assert texts("x * 2") == ["x", "*", "2"]

    def test_brackets_and_commas(self):
        assert texts("A[i, j]") == ["A", "[", "i", ",", "j", "]"]

    def test_numbers(self):
        tokens = tokenize("x = 12345")
        assert tokens[2].kind is TokenKind.NUMBER
        assert tokens[2].text == "12345"

    def test_underscored_names(self):
        assert texts("loop_count = _x") == ["loop_count", "=", "_x"]


class TestNewlinesAndComments:
    def test_newlines_collapse(self):
        tokens = tokenize("a = 1\n\n\nb = 2")
        newline_count = sum(1 for t in tokens if t.kind is TokenKind.NEWLINE)
        assert newline_count == 2  # one between, one trailing

    def test_comment_skipped(self):
        assert texts("a = 1 # a comment\nb = 2") == ["a", "=", "1", "b", "=", "2"]

    def test_trailing_newline_added(self):
        tokens = tokenize("a = 1")
        assert tokens[-2].kind is TokenKind.NEWLINE
        assert tokens[-1].kind is TokenKind.EOF

    def test_newline_after_comment_sits_at_the_comment(self):
        newline = tokenize("x = 1  # note\ny = 2")[3]
        assert newline.kind is TokenKind.NEWLINE
        assert (newline.line, newline.column) == (1, 8)

    def test_positions(self):
        tokens = tokenize("a = 1\nbb = 2")
        b_token = [t for t in tokens if t.text == "bb"][0]
        assert b_token.line == 2
        assert b_token.column == 1


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(FrontendError, match="unexpected character"):
            tokenize("a = 1 ~ 2")

    def test_error_position(self):
        try:
            tokenize("x = `")
        except FrontendError as e:
            assert e.line == 1 and e.column == 5
        else:
            pytest.fail("expected FrontendError")

    def test_non_decimal_digit_is_rejected(self):
        # numeric to str.isdigit(), but not a decimal digit int() accepts
        with pytest.raises(FrontendError) as excinfo:
            tokenize("x = ²")
        assert str(excinfo.value) == "1:5: unexpected character '²'"
        with pytest.raises(FrontendError, match="1:2: unexpected character '½'"):
            tokenize("1½")


class TestUnicode:
    def test_decimal_digits_beyond_ascii_are_numbers(self):
        tokens = tokenize("x = ١٢")
        assert tokens[2].kind is TokenKind.NUMBER
        assert tokens[2].text == "١٢"

    def test_letters_beyond_ascii_are_names(self):
        assert [t.kind for t in tokenize("é = x²")][:3] == [
            TokenKind.NAME, TokenKind.OP, TokenKind.NAME,
        ]
        assert texts("é = x²") == ["é", "=", "x²"]
