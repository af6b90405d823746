"""Frontend robustness: malformed input must fail with FrontendError
(position-carrying), never with an internal exception."""

import hypothesis.strategies as st
from hypothesis import given, settings

import pytest

from repro.frontend.lexer import FrontendError, TokenKind, tokenize
from repro.frontend.parser import parse_program
from repro.frontend.source import compile_source
from repro.pipeline import analyze

FRAGMENTS = [
    "for", "endfor", "if", "then", "else", "endif", "loop", "endloop",
    "while", "do", "endwhile", "break", "continue", "return", "to", "by",
    "x", "y", "A", "=", "+", "-", "*", "/", "%", "**", "(", ")", "[", "]",
    ",", "<", "<=", "==", "1", "42", ":", "L1", "and", "or", "not", "\n",
    "x = 1", "A[i] = 2", "for i = 1 to 3 do", "endfor",
    "²", "½", "é", "١", "x =", "(" * 400, "-" * 1200,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=12))
def test_parser_never_crashes(fragments):
    source = " ".join(fragments)
    try:
        compile_source(source)
    except FrontendError:
        pass  # rejected with a diagnostic: fine


# digits and letters beyond ASCII: '²' and '½' are numeric but not
# decimal, 'é' is a letter, '١' is an Arabic-Indic decimal digit
ALPHABET = "abcx=+-*/()[]<>,:#\n 0123456789²½é١"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=80))
def test_lexer_parser_arbitrary_text(source):
    try:
        parse_program(source)
    except FrontendError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_arbitrary_text_as_an_expression(text):
    try:
        parse_program("x = " + text)
    except FrontendError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=ALPHABET + "\t\r", max_size=80))
def test_token_positions_point_at_their_text(source):
    try:
        tokens = tokenize(source)
    except FrontendError:
        return
    lines = source.split("\n")
    for token in tokens:
        line = lines[token.line - 1]
        if token.kind is TokenKind.NEWLINE:
            assert 1 <= token.column <= len(line) + 1
        else:
            assert line[token.column - 1:][: len(token.text)] == token.text


NESTINGS = [
    ("x = ", "(", "1", ")"),
    ("x = ", "-", "1", ""),
    ("x = ", "A[", "1", "]"),
    ("x = ", "2 ** ", "1", ""),
    ("x = ", "1 + (", "1", ")"),
    ("if ", "not ", "a < b", " then\nendif"),
    ("if ", "(", "a < b", ") then\nendif"),
    ("", "loop\n", "x = 1", "\nendloop"),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NESTINGS), st.integers(min_value=1, max_value=3000))
def test_deep_nesting(nesting, depth):
    head, opener, middle, closer = nesting
    source = head + opener * depth + middle + closer * depth
    try:
        parse_program(source)
    except FrontendError:
        pass


class TestDiagnostics:
    def test_position_reported(self):
        with pytest.raises(FrontendError) as excinfo:
            parse_program("x = 1\ny = @")
        assert excinfo.value.line == 2

    def test_unclosed_loop_names_missing_keyword(self):
        with pytest.raises(FrontendError, match="endfor"):
            parse_program("for i = 1 to 3 do\n  x = i")

    @pytest.mark.parametrize(
        "source,message",
        [
            ("x = ²", "1:5: unexpected character '²'"),
            ("x = 1²", "1:6: unexpected character '²'"),
            ("x = " + "(" * 2000 + "1" + ")" * 2000, "expression nested too deeply"),
            ("x = " + "-" * 3000 + "1", "expression nested too deeply"),
        ],
        ids=["superscript", "superscript-after-digit", "parens", "unary-minus"],
    )
    def test_analyze_reraises_as_syntax_error(self, source, message):
        with pytest.raises(FrontendError, match=message) as excinfo:
            analyze(source)
        # at the offending token: for deep nesting, where the recursion
        # limit was reached, which depends on the interpreter's stack depth
        assert excinfo.value.line == 1
        assert 5 <= excinfo.value.column <= len(source)

    def test_helpful_equality_message(self):
        with pytest.raises(FrontendError, match="comparison"):
            parse_program("if x then\n  y = 1\nendif")
