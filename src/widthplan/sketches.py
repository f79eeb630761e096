"""Condition->effect rules over features, compiled once per sketch into bit
masks (`Sketch.masks`) that serve the subgoal relation, the Boolean policy
graph, the SCC-based termination check (sieve) and the oracle; no other
code reads a rule's ops.  `Sketch.read` drops the features no rule
constrains: searches and the sketch-width oracle value states on it alone,
while segment values and feature-acyclicity keep the whole header.

Sketch file grammar (bit-exact tokens, `#` comments):

    features { H: bool; n: num; }
    rules { { !H, n>0 } => { H, n-- }; { H } => { !H }; }

Condition tokens: `p`, `!p`, `n=0`, `n>0`.
Effect tokens: `p`, `!p`, `p?`, `n++`, `n--`, `n?`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

from .lexing import Token, Tokens

# condition ops
POS, NEG, EQ0, GT0 = "pos", "neg", "eq0", "gt0"
# effect ops
SET, UNSET, ANYBOOL, INC, DEC, ANYNUM = "set", "unset", "anybool", "inc", "dec", "anynum"

_BOOL_CONDS = {POS, NEG}
_NUM_CONDS = {EQ0, GT0}
_BOOL_EFFS = {SET, UNSET, ANYBOOL}
_NUM_EFFS = {INC, DEC, ANYNUM}


class SketchError(ValueError):
    pass


@dataclass(frozen=True)
class Rule:
    conditions: tuple[tuple[int, str], ...]  # (feature index, condition op)
    effects: tuple[tuple[int, str], ...]  # (feature index, effect op)


@dataclass(frozen=True)
class SketchFeature:
    name: str
    kind: str  # "bool" | "num"


# One rule over the vertex bits (a Boolean's truth, a number's n = 0): the
# conditions `need` (p, n=0) and `forbid` (!p, n>0, and n--, which needs
# n > 0); the effects `sets` (p), `unsets` (!p), `inc` (n++), `dec` (n--)
# and `anys` (p?, n?); and `keep`, the features no effect mentions.
RuleMasks = namedtuple("RuleMasks", "need forbid sets unsets inc dec anys keep")


def _mask(rule: Rule, *ops: str) -> int:
    """The bits of the features that `rule` gives one of `ops` on either side."""
    return sum({1 << i for i, op in rule.conditions + rule.effects if op in ops})  # each bit once


@dataclass(frozen=True)
class Sketch:
    features: tuple[SketchFeature, ...]
    rules: tuple[Rule, ...]

    @property
    def names_kinds(self) -> list[tuple[str, str]]:
        return [(f.name, f.kind) for f in self.features]

    @cached_property
    def masks(self) -> tuple[RuleMasks, ...]:
        """Every rule compiled once: nothing else reads the rules' ops."""
        return tuple(
            RuleMasks(_mask(r, POS, EQ0), _mask(r, NEG, GT0, DEC), _mask(r, SET), _mask(r, UNSET),
                      _mask(r, INC), _mask(r, DEC), _mask(r, ANYBOOL, ANYNUM),
                      ~_mask(r, *_BOOL_EFFS, *_NUM_EFFS))
            for r in self.rules
        )

    @cached_property
    def read(self) -> "Sketch":
        """The sketch over the features some rule constrains, in header order.
        A feature that every rule leaves `?` with no condition changes no
        verdict of `relation`, so it is unread; with no rules, all are."""
        unread = -1  # every bit
        for m in self.masks:
            unread &= m.anys & ~(m.need | m.forbid)
        kept = {old: new for new, old in enumerate(
            i for i in range(len(self.features)) if not unread >> i & 1)}

        def restrict(pairs):
            return tuple((kept[i], op) for i, op in pairs if i in kept)

        return Sketch(tuple(self.features[i] for i in kept),
                      tuple(Rule(restrict(r.conditions), restrict(r.effects)) for r in self.rules))

    @cached_property
    def numeric(self) -> int:
        """The bits of the numerical features."""
        return sum(1 << i for i, f in enumerate(self.features) if f.kind == "num")


def relation(sketch: Sketch, fs: tuple[int, ...], fs2: tuple[int, ...]) -> bool:
    """The subgoal relation: some rule's masks pass the pair's source bits b,
    target bits b2 and the features that rose or fell.  A Boolean is 0 or 1
    and a number n >= 0; b2 keeps a number's truth, as no effect sets one."""
    b = b2 = up = down = 0
    bit = 1
    for v, w in zip(fs, fs2):
        if v:
            b |= bit
        if w:
            b2 |= bit
        if w > v:
            up |= bit
        elif w < v:
            down |= bit
        bit <<= 1
    b ^= sketch.numeric  # a number's bit is n = 0
    moved = up | down
    for need, forbid, sets, unsets, inc, dec, _anys, keep in sketch.masks:
        if (b & need == need and not b & forbid and b2 & sets == sets and not b2 & unsets
                and up & inc == inc and down & dec == dec and not moved & keep):
            return True
    return False


# ---------------------------------------------------------------------------
# Policy graph over Boolean condition valuations, the vertex bits of `RuleMasks`


@dataclass
class PolicyGraph:
    sketch: Sketch
    n_vertices: int
    edges: list[tuple[int, int, int]]  # (source vertex, target vertex, rule index)


MAX_POLICY_FEATURES = 16  # the graph has 2**n vertices over n sketch features


def build_policy_graph(sketch: Sketch) -> PolicyGraph:
    """A vertex v passes a rule when it holds every bit of `need` and none of
    `forbid`; its targets keep `keep`, turn on `sets` and take every subset
    of `anys | dec`.  INC and UNSET clear their bit: a value that grew is not 0."""
    n = len(sketch.features)
    if n > MAX_POLICY_FEATURES:
        raise SketchError(f"{n} features exceed the policy-graph cap {MAX_POLICY_FEATURES}")
    edges: list[tuple[int, int, int]] = []
    for ridx, m in enumerate(sketch.masks):
        free = m.anys | m.dec
        for v in range(1 << n):
            if v & m.need != m.need or v & m.forbid:
                continue
            fixed = v & m.keep | m.sets
            sub = free
            while True:
                edges.append((v, fixed | sub, ridx))
                if sub == 0:
                    break
                sub = (sub - 1) & free
    edges.sort()
    return PolicyGraph(sketch, 1 << n, edges)


# ---------------------------------------------------------------------------
# Tarjan SCC (iterative) and the sieve termination check


def strongly_connected_components(
    n_vertices: int, successors: list[list[int]]
) -> list[list[int]]:
    """SCCs in deterministic order (roots visited in ascending vertex order)."""
    index = [-1] * n_vertices
    lowlink = [0] * n_vertices
    on_stack = [False] * n_vertices
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n_vertices):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = successors[v]
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                scc.sort()
                sccs.append(scc)
            if work:
                u, _ = work[-1]
                lowlink[u] = min(lowlink[u], lowlink[v])
    return sccs


@dataclass
class SieveStep:
    component: tuple[int, ...]
    feature: int
    removed_edges: tuple[int, ...]  # indices into PolicyGraph.edges


@dataclass
class SieveResult:
    accepted: bool
    steps: list[SieveStep] = field(default_factory=list)
    remaining_edges: list[int] = field(default_factory=list)


def sieve(graph: PolicyGraph, choice=None) -> SieveResult:
    """Repeatedly drop, inside one SCC at a time, all edges decrementing a
    numerical feature that no edge of that SCC increments or leaves unknown;
    accept iff the graph becomes acyclic.

    `choice` picks among candidate (component, feature) moves (default: first
    in deterministic order); any choice leads to the same verdict.
    """
    sketch = graph.sketch
    # per rule: the features it decrements, and those it increments or leaves unknown
    dec = [m.dec for m in sketch.masks]
    grow = [m.inc | m.anys for m in sketch.masks]
    alive = [True] * len(graph.edges)
    steps: list[SieveStep] = []

    while True:
        succ: list[list[int]] = [[] for _ in range(graph.n_vertices)]
        for idx, (u, v, _r) in enumerate(graph.edges):
            if alive[idx]:
                succ[u].append(v)
        sccs = strongly_connected_components(graph.n_vertices, succ)
        comp_of = [0] * graph.n_vertices
        for ci, scc in enumerate(sccs):
            for v in scc:
                comp_of[v] = ci

        internal: dict[int, list[int]] = {}
        for idx, (u, v, _r) in enumerate(graph.edges):
            if alive[idx] and comp_of[u] == comp_of[v]:
                internal.setdefault(comp_of[u], []).append(idx)
        if not internal:  # acyclic: no SCC has an internal edge
            break

        candidates = []
        for ci in sorted(internal, key=lambda c: sccs[c][0]):
            edge_rules = [(idx, graph.edges[idx][2]) for idx in internal[ci]]
            grown = 0
            for _idx, r in edge_rules:
                grown |= grow[r]
            for n in range(len(sketch.features)):
                if grown >> n & 1:
                    continue
                dec_edges = tuple(idx for idx, r in edge_rules if dec[r] >> n & 1)
                if dec_edges:
                    candidates.append((tuple(sccs[ci]), n, dec_edges))
        if not candidates:
            return SieveResult(False, steps, [i for i, a in enumerate(alive) if a])

        comp, feat, removed = candidates[0] if choice is None else choice(candidates)
        for idx in removed:
            alive[idx] = False
        steps.append(SieveStep(comp, feat, removed))

    return SieveResult(True, steps, [i for i, a in enumerate(alive) if a])


# ---------------------------------------------------------------------------
# Parsing

_NAME_RE = re.compile(r"[A-Za-z_]\w*")
# line breaks as str.splitlines counts them; `#` comments to the line's end
_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_TOKENS = re.compile(
    rf"[^\S{_BREAK}]*(?:(?P<nl>\r\n|[{_BREAK}])|#[^{_BREAK}]*"
    r"|(?P<tok>=>|\+\+|--|=0|>0|[{};,:?!]|[A-Za-z_]\w*)|(?P<bad>\S))"
)


def _error(msg: str, tok: Token) -> SketchError:
    # the end of the text names no line
    return SketchError(f"line {tok.line}: {msg}" if tok.text else msg)


def _tokens(text: str) -> Tokens:
    return Tokens(text, _TOKENS, _error, "unexpected end of sketch text")


def parse_sketch(text: str) -> Sketch:
    lex = _tokens(text)
    lex.next("features")
    lex.next("{")
    features: list[SketchFeature] = []
    by_name: dict[str, int] = {}
    while lex.peek().text != "}":
        name_tok = lex.next()
        name = name_tok.text
        if not _NAME_RE.fullmatch(name):
            raise _error(f"bad feature name '{name}'", name_tok)
        lex.next(":")
        kind_tok = lex.next()
        kind = kind_tok.text
        if kind not in ("bool", "num"):
            raise _error(f"feature '{name}': kind must be bool or num, not '{kind}'", kind_tok)
        lex.next(";")
        if name in by_name:
            raise _error(f"duplicate feature '{name}'", name_tok)
        by_name[name] = len(features)
        features.append(SketchFeature(name, kind))
    lex.next("}")

    lex.next("rules")
    lex.next("{")
    rules: list[Rule] = []
    while lex.peek().text != "}":
        rules.append(_parse_rule(lex, features, by_name))
    lex.next("}")
    if lex.peek().text:
        raise _error(f"trailing token '{lex.peek().text}'", lex.peek())
    return Sketch(tuple(features), tuple(rules))


def _parse_rule(lex: Tokens, features, by_name) -> Rule:
    conditions = _parse_side(lex, features, by_name, effects=False)
    lex.next("=>")
    effects = _parse_side(lex, features, by_name, effects=True)
    lex.next(";")
    return Rule(tuple(sorted(conditions.items())), tuple(sorted(effects.items())))


_SUFFIX_OPS = {"++": INC, "--": DEC, "=0": EQ0, ">0": GT0}


def _parse_side(lex: Tokens, features, by_name, effects: bool) -> dict[int, str]:
    lex.next("{")
    out: dict[int, str] = {}
    while lex.peek().text != "}":
        negated = lex.peek().text == "!"
        if negated:
            lex.next()
        name_tok = lex.next()
        name = name_tok.text
        idx = by_name.get(name)
        if idx is None:
            raise _error(f"undeclared feature '{name}'", name_tok)
        kind = features[idx].kind
        suffix = lex.peek().text
        if negated:
            op = UNSET if effects else NEG
        elif suffix == "?":
            lex.next()
            op = ANYBOOL if kind == "bool" else ANYNUM
            if not effects:
                raise _error(f"'{name}?' is only valid as an effect", name_tok)
        elif suffix in _SUFFIX_OPS:
            lex.next()
            op = _SUFFIX_OPS[suffix]
        else:
            op = SET if effects else POS
        _check_op(name_tok, kind, op, effects)
        if idx in out:
            raise _error(f"feature '{name}' mentioned twice on one rule side", name_tok)
        out[idx] = op
        if lex.peek().text == ",":
            lex.next()
    lex.next("}")
    return out


def _check_op(name: Token, kind: str, op: str, effects: bool):
    if effects:
        valid = _BOOL_EFFS if kind == "bool" else _NUM_EFFS
        side = "effect"
    else:
        valid = _BOOL_CONDS if kind == "bool" else _NUM_CONDS
        side = "condition"
    if op not in valid:
        raise _error(f"'{name.text}' ({kind}): invalid {side} form", name)
