"""Tokenizer for the loop language."""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple


class FrontendError(Exception):
    """Raised for lexical and syntactic errors, with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    NAME = "name"
    NUMBER = "number"
    KEYWORD = "keyword"
    OP = "op"
    NEWLINE = "newline"
    EOF = "eof"


KEYWORDS = {
    "loop",
    "endloop",
    "for",
    "endfor",
    "to",
    "downto",
    "by",
    "do",
    "while",
    "endwhile",
    "if",
    "then",
    "else",
    "endif",
    "break",
    "continue",
    "return",
    "and",
    "or",
    "not",
    "mod",
    "assume",
    "array",
}

# longest first: the scanner takes the first alternative that matches
_OPERATORS = [
    "**",
    "<=",
    ">=",
    "==",
    "!=",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "(",
    ")",
    "[",
    "]",
    ",",
    ":",
]


class Token(NamedTuple):
    """One token: a plain tuple, cheap to build about 1,600 times a program."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.column})"


# One scan per source line.  Leading blanks are folded into every match,
# so each iteration yields one token (or a comment, or an error); the
# token starts at the numbered group that matched.
_SCAN = re.compile(
    r"[ \t\r]*(?:"
    r"(\d+)"  # 1: number -- decimal digits only, so int() accepts it
    r"|([A-Za-z_]\w*)"  # 2: name or keyword
    r"|(" + "|".join(map(re.escape, _OPERATORS)) + r")"  # 3: operator
    r"|(#.*)"  # 4: comment to end of line
    r"|([^\W\d]\w*)"  # 5: non-ASCII word start, a name only if a letter
    r"|([^ \t\r])"  # 6: anything else
    r")"
).finditer

_COMMENT, _OTHER_WORD = 4, 5
#: kind of a number (1), word (2) or operator (3) match, unless its text
#: is a keyword or operator, whose kind ``_TEXT_KIND`` gives
_GROUP_KIND = (None, TokenKind.NUMBER, TokenKind.NAME, TokenKind.OP)
_TEXT_KIND = {keyword: TokenKind.KEYWORD for keyword in KEYWORDS}
_TEXT_KIND.update((op, TokenKind.OP) for op in _OPERATORS)
_NEWLINE = TokenKind.NEWLINE
#: builds a Token without the Python-level ``__new__`` frame
_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenize; newlines are significant (statement separators).

    Runs of blank lines collapse into one NEWLINE token, and a NEWLINE is
    appended after the last statement.  A NEWLINE sits at the end of its
    line, or where the line's comment starts; EOF sits where the last
    line ends.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    column = 1
    for line, text in enumerate(source.split("\n"), 1):
        if tokens and tokens[-1].kind is not _NEWLINE:
            append(_token(Token, (_NEWLINE, "\n", line - 1, column)))
        column = len(text) + 1
        for match in _SCAN(text):
            group = match.lastindex
            word = match[group]
            start = match.start(group) + 1
            if group < _COMMENT:
                kind = _TEXT_KIND.get(word, _GROUP_KIND[group])
                append(_token(Token, (kind, word, line, start)))
            elif group == _COMMENT:
                column = start
            elif group == _OTHER_WORD and word[0].isalpha():
                append(_token(Token, (TokenKind.NAME, word, line, start)))
            else:
                raise FrontendError(line, start, f"unexpected character {word[0]!r}")
    if tokens and tokens[-1].kind is not _NEWLINE:
        append(_token(Token, (_NEWLINE, "\n", line, column)))
    append(_token(Token, (TokenKind.EOF, "", line, column)))
    return tokens
