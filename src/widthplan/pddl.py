"""Parser for an untyped STRIPS subset of PDDL.

Grammar (case-insensitive, `;` line comments):

    (define (domain N)
      (:requirements :strips)?
      (:predicates (p ?x ?y) ...)
      (:action N :parameters (?x ...) :precondition (and ATOM...) :effect (and ATOM... (not ATOM)...))* )

    (define (problem N) (:domain N) (:objects o...) (:init ATOM...) (:goal (and LIT...)))

Preconditions are conjunctions of positive atoms; `(not ...)` is accepted in
effects and in problem goals, nowhere else.
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
class SchemaAtom:
    predicate: str
    args: tuple[str, ...]  # schema variables, written with a leading '?'


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[str, ...]
    pre: tuple[SchemaAtom, ...]
    add: tuple[SchemaAtom, ...]
    delete: tuple[SchemaAtom, ...]


@dataclass(frozen=True)
class DomainAst:
    name: str
    predicates: tuple[tuple[str, int], ...]  # (name, arity)
    schemas: tuple[ActionSchema, ...]


@dataclass(frozen=True)
class GroundAtomAst:
    predicate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[str, ...]
    init: tuple[GroundAtomAst, ...]
    goal_pos: tuple[GroundAtomAst, ...]
    goal_neg: tuple[GroundAtomAst, ...]


# ---------------------------------------------------------------------------
# Tokens: parentheses and words; blanks, tabs and carriage returns separate
# them, `;` starts a comment, and only `\n` starts a line

_TOKENS = re.compile(r"[ \t\r]*(?:(?P<nl>\n)|;[^\n]*|(?P<tok>[()]|[^ \t\r\n();]+))")


def _error(msg: str, tok: Token) -> PddlError:
    return PddlError(msg, tok.line, tok.col)


def _tokens(text: str) -> Tokens:
    return Tokens(text, _TOKENS, _error, "unexpected end of input", lower=True)


def _name(ts: Tokens, what: str = "name") -> Token:
    tok = ts.next()
    if tok.text in "()" or tok.text.startswith(":"):
        raise _error(f"expected {what}, found '{tok.text}'", tok)
    return tok


def _done(ts: Tokens):
    tok = ts.peek()
    if tok.text:
        raise _error(f"trailing input '{tok.text}'", tok)


def _parse_atom(ts: Tokens) -> tuple[SchemaAtom, Token]:
    opener = ts.next("(")
    head = _name(ts, "predicate")
    args = []
    while True:
        tok = ts.peek()
        if not tok.text:
            raise _error("unterminated atom", opener)
        if tok.text == ")":
            ts.next()
            break
        if tok.text == "(":
            raise _error("nested expression inside atom", tok)
        args.append(ts.next().text)
    return SchemaAtom(head.text, tuple(args)), head


# ---------------------------------------------------------------------------
# Domain


def parse_domain(text: str) -> DomainAst:
    ts = _tokens(text)
    ts.next("(")
    ts.next("define")
    ts.next("(")
    ts.next("domain")
    name = _name(ts, "domain name").text
    ts.next(")")

    predicates: list[tuple[str, int]] = []
    pred_arity: dict[str, int] = {}
    schemas: list[ActionSchema] = []
    schema_names: set[str] = set()

    while True:
        tok = ts.peek()
        if not tok.text:
            raise PddlError("unterminated domain definition")
        if tok.text == ")":
            ts.next()
            break
        ts.next("(")
        section = ts.next()
        if section.text == ":requirements":
            while ts.peek().text not in (")", ""):
                flag = ts.next()
                if flag.text != ":strips":
                    raise _error(f"unsupported requirement '{flag.text}'", flag)
            ts.next(")")
        elif section.text == ":predicates":
            while ts.peek().text not in (")", ""):
                decl, head = _parse_atom(ts)
                if decl.predicate in pred_arity:
                    raise _error(f"duplicate predicate '{decl.predicate}'", head)
                for a in decl.args:
                    if not a.startswith("?"):
                        msg = f"predicate declaration argument '{a}' must be a variable"
                        raise _error(msg, head)
                pred_arity[decl.predicate] = len(decl.args)
                predicates.append((decl.predicate, len(decl.args)))
            ts.next(")")
        elif section.text == ":action":
            schema = _parse_action(ts, pred_arity)
            if schema.name in schema_names:
                raise _error(f"duplicate action '{schema.name}'", section)
            schema_names.add(schema.name)
            schemas.append(schema)
        else:
            raise _error(f"unexpected section '{section.text}'", section)

    _done(ts)
    return DomainAst(name, tuple(predicates), tuple(schemas))


def _check_schema_atom(atom: SchemaAtom, head: Token, pred_arity: dict[str, int], params: set[str]):
    arity = pred_arity.get(atom.predicate)
    if arity is None:
        raise _error(f"undeclared predicate '{atom.predicate}'", head)
    if arity != len(atom.args):
        raise _error(
            f"arity mismatch for '{atom.predicate}': declared {arity}, used {len(atom.args)}", head
        )
    for a in atom.args:
        if not a.startswith("?"):
            raise _error(f"constant '{a}' not allowed in schema body", head)
        if a not in params:
            raise _error(f"unbound variable '{a}'", head)


def _parse_action(ts: Tokens, pred_arity: dict[str, int]) -> ActionSchema:
    name = _name(ts, "action name").text
    ts.next(":parameters")
    ts.next("(")
    params: list[str] = []
    while ts.peek().text not in (")", ""):
        tok = ts.next()
        if not tok.text.startswith("?"):
            raise _error(f"parameter '{tok.text}' must start with '?'", tok)
        if tok.text in params:
            raise _error(f"duplicate parameter '{tok.text}'", tok)
        params.append(tok.text)
    ts.next(")")
    param_set = set(params)

    ts.next(":precondition")
    pre: list[SchemaAtom] = []
    for atom, head, negated in _parse_conjunction(ts, allow_not=False):
        _check_schema_atom(atom, head, pred_arity, param_set)
        pre.append(atom)

    ts.next(":effect")
    add: list[SchemaAtom] = []
    delete: list[SchemaAtom] = []
    for atom, head, negated in _parse_conjunction(ts, allow_not=True):
        _check_schema_atom(atom, head, pred_arity, param_set)
        (delete if negated else add).append(atom)

    ts.next(")")
    return ActionSchema(name, tuple(params), tuple(pre), tuple(add), tuple(delete))


def _parse_conjunction(ts: Tokens, allow_not: bool):
    """Yields (atom, head_token, negated) for `(and ...)` or a single literal."""
    ts.next("(")
    tok = ts.peek()
    if tok.text == "and":
        ts.next()
        items = []
        while ts.peek().text not in (")", ""):
            items.append(_parse_literal(ts, allow_not))
        ts.next(")")
        return items
    # single literal without the (and ...) wrapper; rewind the '('
    ts.pos -= 1
    return [_parse_literal(ts, allow_not)]


def _parse_literal(ts: Tokens, allow_not: bool):
    save = ts.pos
    ts.next("(")
    tok = ts.peek()
    if tok.text == "not":
        if not allow_not:
            raise _error("negation not allowed here", tok)
        ts.next()
        atom, head = _parse_atom(ts)
        ts.next(")")
        return atom, head, True
    ts.pos = save
    atom, head = _parse_atom(ts)
    return atom, head, False


# ---------------------------------------------------------------------------
# Problem


def parse_problem(text: str) -> ProblemAst:
    ts = _tokens(text)
    ts.next("(")
    ts.next("define")
    ts.next("(")
    ts.next("problem")
    name = _name(ts, "problem name").text
    ts.next(")")

    domain_name = None
    objects: list[str] = []
    init: list[GroundAtomAst] = []
    goal_pos: list[GroundAtomAst] = []
    goal_neg: list[GroundAtomAst] = []
    seen: set[str] = set()

    while True:
        tok = ts.peek()
        if not tok.text:
            raise PddlError("unterminated problem definition")
        if tok.text == ")":
            ts.next()
            break
        ts.next("(")
        section = ts.next()
        if section.text in seen:
            raise _error(f"duplicate section '{section.text}'", section)
        seen.add(section.text)
        if section.text == ":domain":
            domain_name = _name(ts, "domain name").text
            ts.next(")")
        elif section.text == ":objects":
            while ts.peek().text not in (")", ""):
                tok = ts.next()
                if tok.text.startswith("?") or tok.text.startswith(":"):
                    raise _error(f"bad object name '{tok.text}'", tok)
                if tok.text in objects:
                    raise _error(f"duplicate object '{tok.text}'", tok)
                objects.append(tok.text)
            ts.next(")")
        elif section.text == ":init":
            while ts.peek().text not in (")", ""):
                atom, head, negated = _parse_literal(ts, allow_not=True)
                if negated:
                    raise _error("negated atom in :init (closed world)", head)
                init.append(_ground_atom(atom, head, objects))
            ts.next(")")
        elif section.text == ":goal":
            for atom, head, negated in _parse_conjunction(ts, allow_not=True):
                ga = _ground_atom(atom, head, objects)
                (goal_neg if negated else goal_pos).append(ga)
            ts.next(")")
        else:
            raise _error(f"unexpected section '{section.text}'", section)

    _done(ts)
    if domain_name is None:
        raise PddlError("missing (:domain ...) section")
    return ProblemAst(
        name, domain_name, tuple(objects), tuple(init), tuple(goal_pos), tuple(goal_neg)
    )


def _ground_atom(atom: SchemaAtom, head: Token, objects: list[str]) -> GroundAtomAst:
    for a in atom.args:
        if a.startswith("?"):
            raise _error(f"variable '{a}' in ground atom", head)
        if a not in objects:
            raise _error(f"undeclared object '{a}'", head)
    return GroundAtomAst(atom.predicate, atom.args)
