"""One token stream for the three text formats: PDDL, sketches and feature
expressions.

A format brings a compiled pattern whose alternatives are named by what they
match: `nl` a line break, `tok` a token, `bad` a character that starts no
token.  Any other match, such as blanks or a comment, is skipped.  A match
may begin with blanks, so that one match per token suffices: a token or bad
character stands where its group starts.  Lines and columns count from 1,
columns in code points.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple


class Token(NamedTuple):
    text: str
    line: int
    col: int


# How a format makes its exception from a message and the token it concerns
MakeError = Callable[[str, Token], Exception]


class Tokens:
    """The tokens of a text, read front to back.

    The text is tokenized at once, so a bad character anywhere is reported
    before any parse error.  After the last token comes the end token, whose
    text is empty and whose position is the last token's (1:1 in a text
    without tokens): `peek` returns it, `next` raises the format's `end`
    message on it.  `lower` lower-cases every token.
    """

    def __init__(
        self, text: str, pattern: re.Pattern, error: MakeError, end: str, lower: bool = False
    ):
        toks = []
        new = tuple.__new__  # Token(...) minus its Python-level __new__
        line, line_start = 1, 0
        for m in pattern.finditer(text):
            kind = m.lastgroup
            if kind == "tok":
                word = m.group(kind)
                col = m.start(kind) - line_start + 1
                toks.append(new(Token, (word.lower() if lower else word, line, col)))
            elif kind == "nl":
                line += 1
                line_start = m.end()
            elif kind == "bad":
                bad = Token(m.group(kind), line, m.start(kind) - line_start + 1)
                raise error(f"bad character '{bad.text}'", bad)
        last = toks[-1] if toks else Token("", 1, 1)
        toks.append(Token("", last.line, last.col))
        self.toks = toks
        self.pos = 0
        self.error = error
        self.end = end

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self, expect: str | None = None) -> Token:
        tok = self.toks[self.pos]
        if not tok.text:
            raise self.error(self.end, tok)
        if expect is not None and tok.text != expect:
            raise self.error(f"expected '{expect}', found '{tok.text}'", tok)
        self.pos += 1
        return tok
