"""Boolean and numerical state features and their small definition language.

Bundle file format, one declaration per line (`#` comments):

    feature H bool = nonzero(count(holding(_)))
    feature n num  = chain_count(on, x, up)
    feature t num  = distance(pos, adjacent, cells(target))
    feature u num  = missing(ppos(_, target), p1, p2)
    feature p num  = distance(pos, adjacent, cells_of(ppos(_, _), not target), zero_if(holding(_)))
    feature d num  = sum(distance(hpos, hadj, cells(h3)), distance(vpos, vadj, cells(v2)))
    feature m num  = builtin(marbles_first_box)

`_` is a wildcard argument.  `cells(obj,...)` is a fixed target set;
`cells_of(pattern)` collects the objects bound to the last argument of the
matching true atoms, minus any `not obj,...` exclusions.  `distance` walks
the graph of facts of its adjacency predicate from the unique location of
its position predicate to the nearest target, and is 0 when the target set
is empty, the position is undefined, or the optional `zero_if` pattern
matches the state.

Evaluation is compiled: a FeatureSet turns each feature into a kernel
`s -> int` over precomputed atom masks the first time it values a state of a
GroundProblem, and keeps the kernels of that one problem.  `count` is the
popcount of the state under the pattern's mask, `distance` returns the first
of its position's layers (d, mask of the target atoms at distance d) that
meets the state, and `builtin(name)` calls the kernel factory registered
under `name`:

    @register_builtin("holding_count")
    def _holding_count(problem: GroundProblem) -> Kernel:
        mask = state_from_atoms(problem.atoms_by_predicate.get("holding", ()))
        return lambda s: (s & mask).bit_count()

The factory runs once per problem, so its masks and tables cost nothing per
state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .lexing import Token, Tokens
from .strips import GroundProblem, State, atoms_of, state_from_atoms


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Pattern:
    predicate: str
    args: tuple[str, ...]  # object names or the wildcard "_"

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"

    def matches(self, atom_args: tuple[str, ...]) -> bool:
        return len(atom_args) == len(self.args) and all(
            p == "_" or p == a for p, a in zip(self.args, atom_args)
        )


@dataclass(frozen=True)
class Count:
    pattern: Pattern


@dataclass(frozen=True)
class Missing:
    """Objects from a fixed set whose filled-in pattern is false in the state."""

    pattern: Pattern  # exactly one "_" hole
    objects: tuple[str, ...]


@dataclass(frozen=True)
class ChainCount:
    predicate: str
    seed: str
    direction: str  # "up": follow pred(next, cur); "down": follow pred(cur, next)


@dataclass(frozen=True)
class CellTargets:
    objects: tuple[str, ...]


@dataclass(frozen=True)
class PatternTargets:
    pattern: Pattern
    exclude: tuple[str, ...] = ()


@dataclass(frozen=True)
class Distance:
    pos_predicate: str
    adj_predicate: str
    targets: CellTargets | PatternTargets
    zero_if: Pattern | None = None


@dataclass(frozen=True)
class Builtin:
    name: str


@dataclass(frozen=True)
class Sum:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Nonzero:
    inner: "Expr"


Expr = Count | Missing | ChainCount | Distance | Builtin | Sum | Nonzero


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str  # "bool" | "num"
    expr: Expr
    line: int = field(default=0, compare=False)  # of the declaration; 0 if not parsed


class FeatureSet:
    """Ordered features; valuations are tuples aligned with declaration order."""

    def __init__(self, features: list[Feature]):
        self.by_name: dict[str, Feature] = {}
        for f in features:
            if f.name in self.by_name:
                raise FeatureError(f"duplicate feature name '{f.name}'")
            self.by_name[f.name] = f
        self.features = list(features)
        # (problem, kernels) of the last problem valued
        self._compiled: tuple[GroundProblem, tuple[Kernel, ...]] | None = None
        # feature name -> (problem, kernel), shared with every selection;
        # threads racing on an entry at worst compile it twice
        self._kernels: dict[str, tuple[GroundProblem, Kernel]] = {}

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def valuation(self, problem: GroundProblem, s: State) -> tuple[int, ...]:
        """Feature values in `s`.  A kernel is compiled once per problem and
        shared by a set and every set selected from it; it is kept until
        another problem is valued."""
        compiled = self._compiled
        if compiled is None or compiled[0] is not problem:
            kernels = []
            for f in self.features:
                entry = self._kernels.get(f.name)
                if entry is None or entry[0] is not problem:
                    entry = self._kernels[f.name] = (problem, compile_feature(f, problem))
                kernels.append(entry[1])
            compiled = self._compiled = (problem, tuple(kernels))
        return tuple([kernel(s) for kernel in compiled[1]])

    def select(self, names_kinds: list[tuple[str, str]]) -> "FeatureSet":
        """Subset in the requested order; kinds must match the declarations."""
        chosen = []
        for name, kind in names_kinds:
            f = self.by_name.get(name)
            if f is None:
                raise FeatureError(f"feature '{name}' not defined in bundle")
            if f.kind != kind:
                raise FeatureError(
                    f"feature '{name}' is {f.kind} in the bundle but {kind} in the sketch"
                )
            chosen.append(f)
        selected = FeatureSet(chosen)
        selected._kernels = self._kernels
        return selected


def boolean_projection(phi: FeatureSet, values: tuple[int, ...]) -> tuple[bool, ...]:
    """Per feature: Boolean value itself, or `value == 0` for numerical ones."""
    bits = []
    for f, v in zip(phi.features, values):
        bits.append(bool(v) if f.kind == "bool" else v == 0)
    return tuple(bits)


# ---------------------------------------------------------------------------
# Compilation to mask kernels
#
# A feature compiles against one GroundProblem into a kernel `s -> int` that
# reads the state only through atom masks and tables built here.

Kernel = Callable[[State], int]

BUILTINS: dict[str, Callable[[GroundProblem], Kernel]] = {}


def register_builtin(name: str):
    """Register a kernel factory `problem -> (s -> int)` as `builtin(name)`."""

    def deco(factory):
        BUILTINS[name] = factory
        return factory

    return deco


def compile_feature(feature: Feature, problem: GroundProblem) -> Kernel:
    """Kernel of `feature` on `problem`.  It raises FeatureError for what
    does not compile, such as a name the problem does not declare, naming
    the feature and the line of its declaration; the kernel raises it for a
    bool value outside {0, 1} or a negative value."""
    try:
        inner = _compile(feature.expr, problem)
    except FeatureError as exc:
        where = f"line {feature.line}: " if feature.line else ""
        raise FeatureError(f"{where}feature '{feature.name}': {exc}") from None
    if isinstance(feature.expr, Nonzero) or (
        feature.kind == "num" and not _may_be_negative(feature.expr)
    ):
        return inner  # in range by construction
    name, is_bool = feature.name, feature.kind == "bool"

    def kernel(s: State) -> int:
        v = inner(s)
        if is_bool and v not in (0, 1):
            raise FeatureError(f"feature '{name}' declared bool but evaluated to {v}")
        if v < 0:
            raise FeatureError(f"feature '{name}' evaluated to negative value {v}")
        return v

    return kernel


def _declared(problem: GroundProblem, predicate: str, arity: int, objects) -> None:
    """Raise FeatureError unless `problem` declares `predicate` at `arity`
    and every one of `objects`.  A declared atom that is never true passes:
    a `count` of it is 0, and `missing` counts it."""
    declared = problem.predicates.get(predicate)
    if declared is None:
        raise FeatureError(f"undeclared predicate '{predicate}'")
    if declared != arity:
        raise FeatureError(f"predicate '{predicate}' has arity {declared}, not {arity}")
    for obj in objects:
        if obj not in problem.objects:
            raise FeatureError(f"unknown object '{obj}'")


def _may_be_negative(expr: Expr) -> bool:
    """Only a builtin can give a negative value; every other kernel counts."""
    if isinstance(expr, Builtin):
        return True
    if isinstance(expr, Sum):
        return _may_be_negative(expr.left) or _may_be_negative(expr.right)
    return False


def _compile(expr: Expr, problem: GroundProblem) -> Kernel:
    if isinstance(expr, Count):
        mask = _pattern_mask(problem, expr.pattern)
        return lambda s: (s & mask).bit_count()
    if isinstance(expr, Missing):
        return _compile_missing(expr, problem)
    if isinstance(expr, ChainCount):
        return _compile_chain(expr, problem)
    if isinstance(expr, Distance):
        return _compile_distance(expr, problem)
    if isinstance(expr, Builtin):
        factory = BUILTINS.get(expr.name)
        if factory is None:
            raise FeatureError(f"unregistered builtin '{expr.name}'")
        return factory(problem)
    if isinstance(expr, Sum):
        left = _compile(expr.left, problem)
        right = _compile(expr.right, problem)
        return lambda s: left(s) + right(s)
    if isinstance(expr, Nonzero):
        inner = _compile(expr.inner, problem)
        return lambda s: 1 if inner(s) else 0
    raise FeatureError(f"unknown expression {expr!r}")


def _pattern_mask(problem: GroundProblem, pattern: Pattern) -> State:
    _declared(problem, pattern.predicate, len(pattern.args), [a for a in pattern.args if a != "_"])
    return state_from_atoms(
        aid for aid in problem.atoms_by_predicate.get(pattern.predicate, ())
        if pattern.matches(problem.atoms[aid].args)
    )


def _compile_missing(expr: Missing, problem: GroundProblem) -> Kernel:
    hole = expr.pattern.args.index("_")
    others = expr.pattern.args[:hole] + expr.pattern.args[hole + 1:]
    _declared(problem, expr.pattern.predicate, len(expr.pattern.args), expr.objects + others)
    bits = []
    for obj in expr.objects:
        args = list(expr.pattern.args)
        args[hole] = obj
        aid = problem.atom_id(expr.pattern.predicate, tuple(args))
        bits.append(0 if aid is None else 1 << aid)  # no ground atom: always missing
    mask = state_from_atoms(b.bit_length() - 1 for b in bits if b)
    n = len(bits)
    if mask.bit_count() == sum(1 for b in bits if b):
        return lambda s: n - (s & mask).bit_count()
    # an object listed twice counts twice
    return lambda s: sum(1 for b in bits if not s & b)


def _compile_chain(expr: ChainCount, problem: GroundProblem) -> Kernel:
    # "up" counts objects stacked over the seed via pred(above, below).
    _declared(problem, expr.predicate, 2, (expr.seed,))
    ids = problem.atoms_by_predicate.get(expr.predicate, ())
    mask = state_from_atoms(ids)
    link: dict[int, tuple[str, str]] = {}  # atom id -> (from, to)
    for aid in ids:
        a, b = problem.atoms[aid].args
        link[aid] = (b, a) if expr.direction == "up" else (a, b)
    pred, seed = expr.predicate, expr.seed

    def kernel(s: State) -> int:
        nxt: dict[str, str] = {}
        for aid in atoms_of(s & mask):
            key, val = link[aid]
            if key in nxt:
                raise FeatureError(f"chain_count({pred}): two links from '{key}'")
            nxt[key] = val
        n = 0
        cur = seed
        seen = {cur}
        while cur in nxt:
            cur = nxt[cur]
            if cur in seen:
                raise FeatureError(f"chain_count({pred}): cycle at '{cur}'")
            seen.add(cur)
            n += 1
        return n

    return kernel


def _graph(problem: GroundProblem, edges: State) -> dict[str, list[str]]:
    graph: dict[str, list[str]] = {}
    for aid in atoms_of(edges):
        a, b = problem.atoms[aid].args
        graph.setdefault(a, []).append(b)
    return graph


def _layers(graph: dict[str, list[str]], source: str, bits: dict[str, State]):
    """Ascending (d, OR of the bits of the cells at distance d from
    `source`), for each d at which some cell has bits."""
    dist = {source: 0}
    order = [source]  # grows as the walk reaches new cells
    for cell in order:
        for n in graph.get(cell, ()):
            if n not in dist:
                dist[n] = dist[cell] + 1
                order.append(n)
    layers: dict[int, State] = {}
    for cell, b in bits.items():
        if cell in dist:
            layers[dist[cell]] = layers.get(dist[cell], 0) | b
    return sorted(layers.items())


def _compile_distance(expr: Distance, problem: GroundProblem) -> Kernel:
    """A target cell is the bits that make it a target.  Each position gets
    layer masks (d, OR of the bits of the target cells at distance d) over
    the initial adjacency facts.  A state holding other ones (only if the
    adjacency predicate is fluent) gets layers over its own, not kept."""
    atoms = problem.atoms
    spec = expr.targets
    cells = isinstance(spec, CellTargets)
    pos_mask = _pattern_mask(problem, Pattern(expr.pos_predicate, ("_",)))
    # the targets are nodes of the adjacency graph
    _declared(problem, expr.adj_predicate, 2, spec.objects if cells else spec.exclude)
    zero_mask = _pattern_mask(problem, expr.zero_if) if expr.zero_if is not None else 0
    adj_mask = state_from_atoms(problem.atoms_by_predicate.get(expr.adj_predicate, ()))
    if cells:  # a fixed target is there in every state
        bits, target_mask = dict.fromkeys(spec.objects, -1), -1
    else:  # a cell is a target by the P atoms whose last argument names it
        pattern_mask = _pattern_mask(problem, spec.pattern)
        if not spec.pattern.args:
            raise FeatureError(f"cells_of({spec.pattern}): a pattern with no argument names no cell")
        bits, target_mask = {}, 0
        for aid in atoms_of(pattern_mask):
            cell = atoms[aid].args[-1]
            if cell not in spec.exclude:
                bits[cell] = bits.get(cell, 0) | 1 << aid
                target_mask |= 1 << aid
    base = problem.init & adj_mask
    base_graph = _graph(problem, base)
    source_of = {aid: atoms[aid].args[0] for aid in atoms_of(pos_mask)}
    rows = {aid: _layers(base_graph, source, bits) for aid, source in source_of.items()}

    def kernel(s: State) -> int:
        if s & zero_mask:
            return 0
        pos = s & pos_mask
        if not pos:
            return 0
        if pos & (pos - 1):
            raise FeatureError(f"distance: several {expr.pos_predicate} atoms true")
        if not s & target_mask:
            return 0
        aid = pos.bit_length() - 1
        adj = s & adj_mask
        layers = rows[aid] if adj == base else _layers(_graph(problem, adj), source_of[aid], bits)
        for d, mask in layers:
            if s & mask:
                return d
        raise FeatureError(f"distance: no target of {spec} reachable from '{source_of[aid]}'")

    return kernel


# ---------------------------------------------------------------------------
# Registered domain-specific kernel factories


@register_builtin("marbles_first_box")
def _marbles_first_box(problem: GroundProblem) -> Kernel:
    """Marbles in the lexicographically first box still on the table."""
    atoms = problem.atoms
    contents: dict[str, State] = {}  # box -> mask of its in(_, box) atoms
    for aid in problem.atoms_by_predicate.get("in", ()):
        box = atoms[aid].args[1]
        contents[box] = contents.get(box, 0) | 1 << aid
    boxes = sorted(
        (atoms[aid].args[0], 1 << aid) for aid in problem.atoms_by_predicate.get("ontable", ())
    )
    table = [(bit, contents.get(box, 0)) for box, bit in boxes]

    def kernel(s: State) -> int:
        for on_table, inside in table:
            if s & on_table:
                return (s & inside).bit_count()
        return 0

    return kernel


@register_builtin("hanoi_parity")
def _hanoi_parity(problem: GroundProblem) -> Kernel:
    aid = problem.atom_id("e", ())
    bit = 0 if aid is None else 1 << aid
    return lambda s: 1 if s & bit else 0


def _hanoi_top_less(problem: GroundProblem, peg_i: str, peg_j: str) -> Kernel:
    # An empty peg counts as carrying a virtual disk larger than every disk:
    # the comparison is true iff peg i is non-empty and peg j is empty, or
    # both are non-empty and top(i) is the smaller disk.
    atoms = problem.atoms
    under: dict[str, State] = {}  # object -> mask of the on(_, object) atoms
    for aid in problem.atoms_by_predicate.get("on", ()):
        below = atoms[aid].args[1]
        under[below] = under.get(below, 0) | 1 << aid
    smaller = {atoms[aid].args: 1 << aid for aid in problem.atoms_by_predicate.get("smaller", ())}
    n_objects = len(problem.objects)

    def top(s: State, peg: str) -> str:
        # a tower holds each object at most once, so a walk that is still
        # climbing after n_objects steps has met a cycle of `on` atoms
        cur = peg
        for _ in range(n_objects):
            on = s & under.get(cur, 0)
            if not on:
                return cur
            cur = atoms[on.bit_length() - 1].args[0]
        raise FeatureError(f"hanoi: cycle of on atoms above '{peg}'")

    def kernel(s: State) -> int:
        top_i = top(s, peg_i)
        if top_i == peg_i:
            return 0
        top_j = top(s, peg_j)
        if top_j == peg_j:
            return 1
        return 1 if s & smaller.get((top_i, top_j), 0) else 0

    return kernel


for _i, _j in ((1, 2), (1, 3), (2, 3)):
    register_builtin(f"hanoi_p{_i}{_j}")(
        lambda problem, i=_i, j=_j: _hanoi_top_less(problem, f"peg{i}", f"peg{j}")
    )


# ---------------------------------------------------------------------------
# Bundle parsing

_DECL_RE = re.compile(r"^feature\s+(\w+)\s+(bool|num)\s*=\s*(.+)$")
# an expression is ASCII words and single characters between blanks
_TOKENS = re.compile(r"\s*(?P<tok>[A-Za-z0-9_]+|\S)")
# parsing, compiling and valuing each recurse once per level of nesting, so
# a bound far under Python's recursion limit keeps all three off it
_MAX_NESTING = 100


def _tokens(body: str, lineno: int) -> Tokens:
    """The tokens of the expression declared on line `lineno`."""

    def error(msg: str, tok: Token) -> FeatureError:
        return FeatureError(f"line {lineno}: {msg}")

    return Tokens(body, _TOKENS, error, "unexpected end of expression")


def _expr(ts: Tokens, depth: int = 1) -> Expr:
    head = ts.next()
    word = head.text
    if depth > _MAX_NESTING:
        raise ts.error(f"expressions nest at most {_MAX_NESTING} deep", head)
    if word == "count":
        ts.next("(")
        p = _pattern(ts)
        ts.next(")")
        return Count(p)
    if word == "missing":
        ts.next("(")
        p = _pattern(ts)
        if p.args.count("_") != 1:
            raise ts.error("missing(...) needs exactly one '_' hole", head)
        objs = _comma_names(ts)
        ts.next(")")
        if not objs:
            raise ts.error("missing(...) needs at least one object", head)
        return Missing(p, tuple(objs))
    if word == "chain_count":
        ts.next("(")
        pred = _name(ts)
        ts.next(",")
        seed = _name(ts)
        ts.next(",")
        direction = _name(ts)
        if direction not in ("up", "down"):
            raise ts.error("chain_count direction must be 'up' or 'down'", head)
        ts.next(")")
        return ChainCount(pred, seed, direction)
    if word == "distance":
        ts.next("(")
        pos_pred = _name(ts)
        ts.next(",")
        adj_pred = _name(ts)
        ts.next(",")
        targets = _targets(ts)
        zero_if = None
        if ts.peek().text == ",":
            ts.next()
            ts.next("zero_if")
            ts.next("(")
            zero_if = _pattern(ts)
            ts.next(")")
        ts.next(")")
        return Distance(pos_pred, adj_pred, targets, zero_if)
    if word == "builtin":
        ts.next("(")
        name = _name(ts)
        ts.next(")")
        return Builtin(name)
    if word == "sum":
        ts.next("(")
        left = _expr(ts, depth + 1)
        ts.next(",")
        right = _expr(ts, depth + 1)
        ts.next(")")
        return Sum(left, right)
    if word == "nonzero":
        ts.next("(")
        inner = _expr(ts, depth + 1)
        ts.next(")")
        return Nonzero(inner)
    raise ts.error(f"unknown expression '{word}'", head)


def _name(ts: Tokens) -> str:
    tok = ts.next()
    if not re.fullmatch(r"\w+", tok.text):
        raise ts.error(f"expected name, found '{tok.text}'", tok)
    return tok.text.lower()


def _comma_names(ts: Tokens) -> list[str]:
    """The names that follow, each after a comma."""
    names = []
    while ts.peek().text == ",":
        ts.next()
        names.append(_name(ts))
    return names


def _pattern(ts: Tokens) -> Pattern:
    pred = _name(ts)
    ts.next("(")
    args = [_name(ts), *_comma_names(ts)] if ts.peek().text != ")" else []
    ts.next(")")
    return Pattern(pred, tuple(args))


def _targets(ts: Tokens) -> CellTargets | PatternTargets:
    head = ts.next()
    if head.text == "cells":
        ts.next("(")
        objs = [_name(ts), *_comma_names(ts)]
        ts.next(")")
        return CellTargets(tuple(objs))
    if head.text == "cells_of":
        ts.next("(")
        p = _pattern(ts)
        exclude = []
        if ts.peek().text == ",":
            ts.next()
            ts.next("not")
            exclude = [_name(ts), *_comma_names(ts)]
        ts.next(")")
        return PatternTargets(p, tuple(exclude))
    raise ts.error(f"expected cells(...) or cells_of(...), found '{head.text}'", head)


def parse_features(text: str) -> FeatureSet:
    features = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise FeatureError(f"line {lineno}: expected 'feature NAME bool|num = EXPR'")
        name, kind, body = m.groups()
        ts = _tokens(body, lineno)
        expr = _expr(ts)
        if ts.peek().text:
            raise ts.error(f"trailing '{ts.peek().text}'", ts.peek())
        if name in features:
            raise FeatureError(f"line {lineno}: duplicate feature name '{name}'")
        features[name] = Feature(name, kind, expr, lineno)
    return FeatureSet(list(features.values()))
