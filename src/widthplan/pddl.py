"""Parser for an untyped STRIPS subset of PDDL.

Grammar (case-insensitive, `;` line comments):

    (define (domain N)
      (:requirements :strips)?
      (:predicates (p ?x ?y) ...)
      (:action N :parameters (?x ...) :precondition (and ATOM...) :effect (and ATOM... (not ATOM)...))* )

    (define (problem N) (:domain N) (:objects o...) (:init ATOM...) (:goal (and LIT...)))

Preconditions are conjunctions of positive atoms; `(not ...)` is accepted in
effects and in problem goals, nowhere else.

Both parsers read their text once, front to back.  One reader, `_sections`,
reads the `(define (KIND N)` header of domains and problems and hands each
section's keyword to the parser, which reads the section's body; every
bracket of items, from requirement flags to a conjunction's literals, is
read by `_items`.  One atom class, `Atom`, holds a predicate and its
arguments: schema variables (with their leading `?`) in a domain, object
names in a problem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lexing import Token, Tokens


class PddlError(ValueError):
    """Syntax or semantic error with source position when available."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{msg}{where}")


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[str, ...]  # schema variables, written with a leading '?', or objects


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[str, ...]
    pre: tuple[Atom, ...]
    add: tuple[Atom, ...]
    delete: tuple[Atom, ...]


@dataclass(frozen=True)
class DomainAst:
    name: str
    predicates: tuple[tuple[str, int], ...]  # (name, arity)
    schemas: tuple[ActionSchema, ...]


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[str, ...]
    init: tuple[Atom, ...]
    goal_pos: tuple[Atom, ...]
    goal_neg: tuple[Atom, ...]


# ---------------------------------------------------------------------------
# Tokens: parentheses and words; blanks, tabs and carriage returns separate
# them, `;` starts a comment, and only `\n` starts a line

_TOKENS = re.compile(r"[ \t\r]*(?:(?P<nl>\n)|;[^\n]*|(?P<tok>[()]|[^ \t\r\n();]+))")


def _error(msg: str, tok: Token) -> PddlError:
    return PddlError(msg, tok.line, tok.col)


def _tokens(text: str) -> Tokens:
    return Tokens(text, _TOKENS, _error, "unexpected end of input", lower=True)


def _name(ts: Tokens, what: str) -> Token:
    tok = ts.next()
    if tok.text in "()" or tok.text.startswith(":"):
        raise _error(f"expected {what}, found '{tok.text}'", tok)
    return tok


def _sections(ts: Tokens, kind: str):
    """Reads `(define (KIND NAME)` and yields NAME's token, then the keyword
    of each section after its `(`; the caller reads the section's body and
    its `)`.  Ends after the definition's `)`, which must end the text."""
    ts.next("(")
    ts.next("define")
    ts.next("(")
    ts.next(kind)
    yield _name(ts, f"{kind} name")
    ts.next(")")
    while (tok := ts.peek()).text != ")":
        if not tok.text:
            raise PddlError(f"unterminated {kind} definition")
        ts.next("(")
        yield ts.next()
    ts.next()
    if (tok := ts.peek()).text:
        raise _error(f"trailing input '{tok.text}'", tok)


def _items(ts: Tokens, read):
    """Yields `read()` until the `)` that closes the current bracket, then
    reads that `)`."""
    while ts.peek().text not in (")", ""):
        yield read()
    ts.next(")")


def _parse_atom(ts: Tokens, opener: Token) -> tuple[Atom, Token]:
    """Reads an atom after its `(`, `opener`, up to and with its `)`; returns
    the atom and the token of its predicate."""
    head = _name(ts, "predicate")
    args = []
    while (tok := ts.peek()).text != ")":
        if not tok.text:
            raise _error("unterminated atom", opener)
        if tok.text == "(":
            raise _error("nested expression inside atom", tok)
        args.append(ts.next().text)
    ts.next()
    return Atom(head.text, tuple(args)), head


def _parse_literal(ts: Tokens, allow_not: bool, opener: Token) -> tuple[Atom, Token, bool]:
    """Reads an atom or `(not ATOM)` after its `(`, `opener`; returns the
    atom, its predicate's token and whether it was negated."""
    tok = ts.peek()
    if tok.text != "not":
        return *_parse_atom(ts, opener), False
    if not allow_not:
        raise _error("negation not allowed here", tok)
    ts.next()
    atom, head = _parse_atom(ts, ts.next("("))
    ts.next(")")
    return atom, head, True


def _parse_conjunction(ts: Tokens, allow_not: bool) -> list[tuple[Atom, Token, bool]]:
    """The literals of `(and ...)` or of a single literal, all read before
    any is checked."""
    opener = ts.next("(")
    if ts.peek().text != "and":
        return [_parse_literal(ts, allow_not, opener)]
    ts.next()
    return list(_items(ts, lambda: _parse_literal(ts, allow_not, ts.next("("))))


# ---------------------------------------------------------------------------
# Domain


def parse_domain(text: str) -> DomainAst:
    ts = _tokens(text)
    sections = _sections(ts, "domain")
    name = next(sections).text
    arity: dict[str, int] = {}
    schemas: dict[str, ActionSchema] = {}
    for section in sections:
        if section.text == ":requirements":
            for flag in _items(ts, ts.next):
                if flag.text != ":strips":
                    raise _error(f"unsupported requirement '{flag.text}'", flag)
        elif section.text == ":predicates":
            for decl, head in _items(ts, lambda: _parse_atom(ts, ts.next("("))):
                if decl.predicate in arity:
                    raise _error(f"duplicate predicate '{decl.predicate}'", head)
                for a in decl.args:
                    if not a.startswith("?"):
                        msg = f"predicate declaration argument '{a}' must be a variable"
                        raise _error(msg, head)
                arity[decl.predicate] = len(decl.args)
        elif section.text == ":action":
            schema = _parse_action(ts, arity)
            if schema.name in schemas:
                raise _error(f"duplicate action '{schema.name}'", section)
            schemas[schema.name] = schema
        else:
            raise _error(f"unexpected section '{section.text}'", section)
    return DomainAst(name, tuple(arity.items()), tuple(schemas.values()))


def _schema_atom(atom: Atom, head: Token, arity: dict[str, int], params: list[str]) -> Atom:
    declared = arity.get(atom.predicate)
    if declared is None:
        raise _error(f"undeclared predicate '{atom.predicate}'", head)
    if declared != len(atom.args):
        raise _error(
            f"arity mismatch for '{atom.predicate}': declared {declared}, used {len(atom.args)}", head
        )
    for a in atom.args:
        if not a.startswith("?"):
            raise _error(f"constant '{a}' not allowed in schema body", head)
        if a not in params:
            raise _error(f"unbound variable '{a}'", head)
    return atom


def _parse_action(ts: Tokens, arity: dict[str, int]) -> ActionSchema:
    name = _name(ts, "action name").text
    ts.next(":parameters")
    ts.next("(")
    params: list[str] = []
    for tok in _items(ts, ts.next):
        if not tok.text.startswith("?"):
            raise _error(f"parameter '{tok.text}' must start with '?'", tok)
        if tok.text in params:
            raise _error(f"duplicate parameter '{tok.text}'", tok)
        params.append(tok.text)

    ts.next(":precondition")
    pre = [_schema_atom(atom, head, arity, params)
           for atom, head, _ in _parse_conjunction(ts, allow_not=False)]
    ts.next(":effect")
    add: list[Atom] = []
    delete: list[Atom] = []
    for atom, head, negated in _parse_conjunction(ts, allow_not=True):
        (delete if negated else add).append(_schema_atom(atom, head, arity, params))
    ts.next(")")
    return ActionSchema(name, tuple(params), tuple(pre), tuple(add), tuple(delete))


# ---------------------------------------------------------------------------
# Problem


def parse_problem(text: str) -> ProblemAst:
    ts = _tokens(text)
    sections = _sections(ts, "problem")
    name = next(sections).text
    domain_name = None
    objects: dict[str, None] = {}  # in declared order
    init: list[Atom] = []
    goal_pos: list[Atom] = []
    goal_neg: list[Atom] = []
    seen: set[str] = set()
    for section in sections:
        if section.text in seen:
            raise _error(f"duplicate section '{section.text}'", section)
        seen.add(section.text)
        if section.text == ":domain":
            domain_name = _name(ts, "domain name").text
            ts.next(")")
        elif section.text == ":objects":
            for tok in _items(ts, ts.next):
                if tok.text.startswith(("?", ":")):
                    raise _error(f"bad object name '{tok.text}'", tok)
                if tok.text in objects:
                    raise _error(f"duplicate object '{tok.text}'", tok)
                objects[tok.text] = None
        elif section.text == ":init":
            for atom, head, negated in _items(ts, lambda: _parse_literal(ts, True, ts.next("("))):
                if negated:
                    raise _error("negated atom in :init (closed world)", head)
                init.append(_ground_atom(atom, head, objects))
        elif section.text == ":goal":
            for atom, head, negated in _parse_conjunction(ts, allow_not=True):
                (goal_neg if negated else goal_pos).append(_ground_atom(atom, head, objects))
            ts.next(")")
        else:
            raise _error(f"unexpected section '{section.text}'", section)
    if domain_name is None:
        raise PddlError("missing (:domain ...) section")
    return ProblemAst(
        name, domain_name, tuple(objects), tuple(init), tuple(goal_pos), tuple(goal_neg)
    )


def _ground_atom(atom: Atom, head: Token, objects: dict[str, None]) -> Atom:
    for a in atom.args:
        if a.startswith("?"):
            raise _error(f"variable '{a}' in ground atom", head)
        if a not in objects:
            raise _error(f"undeclared object '{a}'", head)
    return atom
