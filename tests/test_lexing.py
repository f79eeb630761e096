"""The shared token stream against the three hand-written lexers it
replaced, kept here as test-only copies: on any text both give the same
(text, line, col) tokens, or raise the same exception."""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthplan import features, pddl, sketches
from widthplan.features import FeatureError
from widthplan.lexing import Token
from widthplan.pddl import PddlError
from widthplan.sketches import SketchError

# ---------------------------------------------------------------------------
# The old lexers, each with the end-of-text and expected-token errors of its
# stream


def _old_pddl(text):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append((c, line, col))
            i += 1
            col += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            toks.append((text[i:j].lower(), line, col))
            col += j - i
            i = j
    last = toks[-1] if toks else ("", 1, 1)
    return toks, PddlError("unexpected end of input", last[1], last[2])


def _old_pddl_expected(tok, expect):
    return PddlError(f"expected '{expect}', found '{tok[0]}'", tok[1], tok[2])


_OLD_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_OLD_SYMBOLS = ("=>", "++", "--", "=0", ">0", "{", "}", ";", ",", ":", "?", "!")


def _old_sketch(text):
    # the column, one past the index in the line, is recorded here too
    toks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            c = line[i]
            if c.isspace():
                i += 1
                continue
            for sym in _OLD_SYMBOLS:
                if line.startswith(sym, i):
                    toks.append((sym, lineno, i + 1))
                    i += len(sym)
                    break
            else:
                m = _OLD_NAME_RE.match(line, i)
                if m is None:
                    raise SketchError(f"line {lineno}: bad character '{c}'")
                toks.append((m.group(0), lineno, i + 1))
                i = m.end()
    return toks, SketchError("unexpected end of sketch text")


def _old_sketch_expected(tok, expect):
    return SketchError(f"line {tok[1]}: expected '{expect}', found '{tok[0]}'")


_OLD_TOKEN_RE = re.compile(r"\s*([A-Za-z0-9_]+|[(),]|\S)")


def _old_features(body, lineno=7):
    # the column is where the token starts in the body; the body is one line
    toks = [(m.group(1), 1, m.start(1) + 1) for m in _OLD_TOKEN_RE.finditer(body)]
    return toks, FeatureError(f"line {lineno}: unexpected end of expression")


def _old_features_expected(tok, expect, lineno=7):
    return FeatureError(f"line {lineno}: expected '{expect}', found '{tok[0]}'")


# ---------------------------------------------------------------------------
# Comparison


def _same_error(a, b):
    assert (type(a), str(a), getattr(a, "line", None), getattr(a, "col", None)) == (
        type(b), str(b), getattr(b, "line", None), getattr(b, "col", None)
    )


def _compare(text, old, old_expected, new):
    try:
        want, want_end = old(text)
    except ValueError as exc:
        want, want_end = exc, None
    try:
        ts = new(text)
    except ValueError as exc:
        assert isinstance(want, Exception), f"old lexer gave {want!r}"
        _same_error(exc, want)
        return
    assert not isinstance(want, Exception), f"old lexer raised {want!r}"
    got = []
    while True:
        tok = ts.peek()
        assert type(tok) is Token
        if not tok.text:
            break
        assert ts.next() is tok
        got.append(tuple(tok))
    assert got == want
    try:
        ts.next()
    except ValueError as exc:
        _same_error(exc, want_end)
    else:
        raise AssertionError("reading past the end did not raise")
    if want:  # a token that is not the one expected
        ts.pos = 0
        expect = want[0][0] + "\x00"
        try:
            ts.next(expect=expect)
        except ValueError as exc:
            _same_error(exc, old_expected(want[0], expect))
        else:
            raise AssertionError("a mismatched token did not raise")


_PDDL_CHARS = "()?:;-aAbZ \t\r\n\f\v\x85 İΣσ"
_SKETCH_CHARS = "{}=>+-!?,;:0aZ_é#$ \t\r\n\f\v\x1c\x1f\x85   "
_FEATURE_CHARS = "(),_aZ09é- \t\f 　"


@given(st.text(alphabet=_PDDL_CHARS, max_size=60) | st.text(max_size=40))
@settings(max_examples=400, deadline=None)
@example("(Define (DOMAIN İΣ)) ; Σ comment\r\n\tX")
@example("")
def test_pddl_tokens_match_the_old_lexer(text):
    _compare(text, _old_pddl, _old_pddl_expected, pddl._tokens)


@given(st.text(alphabet=_SKETCH_CHARS, max_size=60) | st.text(max_size=40))
@settings(max_examples=400, deadline=None)
@example("features {\r\n\f H: bool; } # c\x85rules { { H } => { !H }; }")
@example("a\r\rb\x1c=>0")
@example("")
def test_sketch_tokens_match_the_old_lexer(text):
    _compare(text, _old_sketch, _old_sketch_expected, sketches._tokens)


@given(st.text(alphabet=_FEATURE_CHARS, max_size=60) | st.text(max_size=40))
@settings(max_examples=400, deadline=None)
@example("count ( P ( A , _ ) )")
@example(" ")
def test_feature_tokens_match_the_old_lexer(text):
    _compare(text, _old_features, _old_features_expected, lambda body: features._tokens(body, 7))
