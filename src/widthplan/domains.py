"""Instance generators for the built-in families: Blocksworld (clear-goal,
on-goal, general), Grid with one or two position predicates, Delivery,
Marbles, and Towers of Hanoi with a move-alternation atom.

Each generator returns a Bundle of texts: a domain, written here as PDDL
text, and a problem from one writer (`_problem`), both in the subset that
`pddl` parses; a feature bundle; named sketches; and (for the blocks
families) explicit tuple-set files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class DomainError(ValueError):
    pass


@dataclass
class Bundle:
    family: str
    domain_text: str
    problem_text: str
    features_text: str | None = None
    sketches: dict[str, str] = field(default_factory=dict)
    tuple_sets: dict[str, str] = field(default_factory=dict)


def _ga(pred: str, *args: str) -> str:
    """The PDDL text of a ground atom."""
    return f"({' '.join((pred, *args))})"


def _problem(name, domain, objects, init, goal_pos, goal_neg=()) -> str:
    """The PDDL text of a problem; its goal is the conjunction of the atoms
    of `goal_pos` and the negations of those of `goal_neg`."""
    goal = "".join([*(" " + a for a in goal_pos), *(f" (not {a})" for a in goal_neg)])
    return (
        f"(define (problem {name})\n  (:domain {domain})\n"
        f"  (:objects {' '.join(objects)})\n  (:init {' '.join(init)})\n"
        f"  (:goal (and{goal}))\n)\n"
    )


# ---------------------------------------------------------------------------
# Blocksworld (four schemas: pickup, putdown, stack, unstack)

_BLOCKS_DOMAIN = """\
(define (domain blocks)
  (:requirements :strips)
  (:predicates (on ?x0 ?x1) (ontable ?x0) (clear ?x0) (hold ?x0) (handempty))
  (:action pickup
    :parameters (?x)
    :precondition (and (clear ?x) (ontable ?x) (handempty))
    :effect (and (hold ?x) (not (clear ?x)) (not (ontable ?x)) (not (handempty))))
  (:action putdown
    :parameters (?x)
    :precondition (and (hold ?x))
    :effect (and (clear ?x) (ontable ?x) (handempty) (not (hold ?x))))
  (:action stack
    :parameters (?x ?y)
    :precondition (and (hold ?x) (clear ?y))
    :effect (and (on ?x ?y) (clear ?x) (handempty) (not (hold ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?x ?y)
    :precondition (and (clear ?x) (on ?x ?y) (handempty))
    :effect (and (hold ?x) (clear ?y) (not (clear ?x)) (not (on ?x ?y)) (not (handempty))))
)
"""


def blocks(
    towers: list[list[str]],
    goal: tuple[str, ...],
    holding: str | None = None,
    name: str = "blocks-instance",
) -> Bundle:
    """General Blocksworld instance. `towers` lists blocks bottom-up; `goal`
    is ('clear', x) or ('on', x, y); `holding` puts a block in the gripper."""
    blocks_all = [b for t in towers for b in t] + ([holding] if holding else [])
    if len(set(blocks_all)) != len(blocks_all):
        raise DomainError("duplicate block names")
    for b in blocks_all:
        if not re.fullmatch(r"[a-z][a-z0-9_-]*", b):
            raise DomainError(f"bad block name {b!r}: lowercase letters, digits, '_' or '-'")
    init: list[str] = []
    for tower in towers:
        if not tower:
            raise DomainError("empty tower")
        init.append(_ga("ontable", tower[0]))
        for below, above in zip(tower, tower[1:]):
            init.append(_ga("on", above, below))
        init.append(_ga("clear", tower[-1]))
    if holding:
        init.append(_ga("hold", holding))
    else:
        init.append(_ga("handempty"))
    if goal[0] == "clear" and len(goal) == 2:
        goal_pos = (_ga("clear", goal[1]),)
    elif goal[0] == "on" and len(goal) == 3 and goal[1] != goal[2]:
        goal_pos = (_ga("on", goal[1], goal[2]),)
    else:
        raise DomainError(f"unsupported blocks goal {goal!r}")
    for b in goal[1:]:
        if b not in blocks_all:
            raise DomainError(f"goal block '{b}' is in no tower and not held")
    problem = _problem(name, "blocks", sorted(blocks_all), init, goal_pos)
    return Bundle("blocks", _BLOCKS_DOMAIN, problem)


def blocks_clear(height: int, holding: str | None = None) -> Bundle:
    """Clear-goal instance: blocks b1 (top) .. b<height> stacked above x.

    Emits the singleton tuple set that walks the stack down block by block;
    when a block starts in the gripper it must first reach the table, so the
    set gains that block's ontable atom.
    """
    if height < 1:
        raise DomainError("height must be >= 1")
    above = [f"b{i}" for i in range(1, height + 1)]  # b1 topmost
    tower = ["x"] + list(reversed(above))
    bundle = blocks([tower], ("clear", "x"), holding=holding, name=f"clear-{height}")
    bundle.family = "blocks-clear"
    bundle.features_text = (
        "feature H bool = nonzero(count(hold(_)))\n"
        "feature n num = chain_count(on, x, up)\n"
    )
    bundle.sketches["policy"] = (
        "features { H: bool; n: num; }\n"
        "rules { { !H, n>0 } => { H, n-- }; { H } => { !H }; }\n"
    )
    lines = []
    if holding:
        lines.append(f"ontable({holding})")
    lines.append(f"clear({above[0]})")
    for i, b in enumerate(above, start=1):
        lines.append(f"hold({b})")
        if i < height:
            lines.append(f"ontable({b})")
    bundle.tuple_sets["walk"] = "\n".join(lines) + "\n"
    return bundle


def blocks_on(above_x: int, above_y: int) -> Bundle:
    """On-goal instance with x and y in different towers, `above_x` blocks
    over x (b1 topmost) and `above_y` over y (d1 topmost); goal on(x, y).

    It ships no tuple set: a hand-written walk of phase tuples is admissible
    on layout (1, 1) alone, and every bundled set must hold on every layout.
    """
    if above_x < 0 or above_y < 0:
        raise DomainError("block counts must be non-negative")
    bs = [f"b{i}" for i in range(1, above_x + 1)]
    ds = [f"d{i}" for i in range(1, above_y + 1)]
    tower_x = ["x"] + list(reversed(bs))
    tower_y = ["y"] + list(reversed(ds))
    bundle = blocks(
        [tower_x, tower_y], ("on", "x", "y"), name=f"on-{above_x}-{above_y}"
    )
    bundle.family = "blocks-on"
    return bundle


# ---------------------------------------------------------------------------
# Grid: cells c1..cN row-major, one position predicate


def _grid_cells(width: int, height: int) -> list[str]:
    return [f"c{i}" for i in range(1, width * height + 1)]


def _grid_adjacency(width: int, height: int) -> list[tuple[str, str]]:
    pairs = []
    for row in range(height):
        for col in range(width):
            i = row * width + col + 1
            if col + 1 < width:
                pairs.append((f"c{i}", f"c{i + 1}"))
                pairs.append((f"c{i + 1}", f"c{i}"))
            if row + 1 < height:
                j = i + width
                pairs.append((f"c{i}", f"c{j}"))
                pairs.append((f"c{j}", f"c{i}"))
    return pairs


_GRID_DOMAIN = """\
(define (domain grid)
  (:requirements :strips)
  (:predicates (pos ?x0) (adjacent ?x0 ?x1))
  (:action move
    :parameters (?from ?to)
    :precondition (and (pos ?from) (adjacent ?from ?to))
    :effect (and (pos ?to) (not (pos ?from))))
)
"""


def grid(width: int, height: int, start: int, goal: int) -> Bundle:
    if width < 1 or height < 1:
        raise DomainError("width and height must be >= 1")
    cells = _grid_cells(width, height)
    if not (1 <= start <= len(cells) and 1 <= goal <= len(cells)):
        raise DomainError("start/goal cell out of range")
    init = [_ga("pos", f"c{start}")]
    init += [_ga("adjacent", a, b) for a, b in _grid_adjacency(width, height)]
    problem = _problem(f"grid-{width}x{height}", "grid", cells, init, [_ga("pos", f"c{goal}")])
    bundle = Bundle("grid", _GRID_DOMAIN, problem)
    bundle.features_text = f"feature d num = distance(pos, adjacent, cells(c{goal}))\n"
    bundle.sketches["policy"] = (
        "features { d: num; }\nrules { { d>0 } => { d-- }; }\n"
    )
    return bundle


_GRID2_DOMAIN = """\
(define (domain grid2)
  (:requirements :strips)
  (:predicates (hpos ?x0) (vpos ?x0) (hadj ?x0 ?x1) (vadj ?x0 ?x1))
  (:action moveh
    :parameters (?from ?to)
    :precondition (and (hpos ?from) (hadj ?from ?to))
    :effect (and (hpos ?to) (not (hpos ?from))))
  (:action movev
    :parameters (?from ?to)
    :precondition (and (vpos ?from) (vadj ?from ?to))
    :effect (and (vpos ?to) (not (vpos ?from))))
)
"""


def grid2(
    width: int, height: int, start: tuple[int, int], goal: tuple[int, int]
) -> Bundle:
    """Grid with split horizontal/vertical position coordinates."""
    if not all(1 <= x <= width and 1 <= y <= height for x, y in (start, goal)):
        raise DomainError("start/goal cell out of range")
    hs = [f"h{i}" for i in range(1, width + 1)]
    vs = [f"v{i}" for i in range(1, height + 1)]
    init = [_ga("hpos", f"h{start[0]}"), _ga("vpos", f"v{start[1]}")]
    for i in range(1, width):
        init += [_ga("hadj", f"h{i}", f"h{i + 1}"), _ga("hadj", f"h{i + 1}", f"h{i}")]
    for i in range(1, height):
        init += [_ga("vadj", f"v{i}", f"v{i + 1}"), _ga("vadj", f"v{i + 1}", f"v{i}")]
    problem = _problem(
        f"grid2-{width}x{height}", "grid2", hs + vs, init,
        [_ga("hpos", f"h{goal[0]}"), _ga("vpos", f"v{goal[1]}")],
    )
    bundle = Bundle("grid2", _GRID2_DOMAIN, problem)
    bundle.features_text = (
        "feature d num = sum(distance(hpos, hadj, cells(h{0})), "
        "distance(vpos, vadj, cells(v{1})))\n".format(goal[0], goal[1])
    )
    bundle.sketches["policy"] = (
        "features { d: num; }\nrules { { d>0 } => { d-- }; }\n"
    )
    return bundle


# ---------------------------------------------------------------------------
# Delivery: agent and packages on a grid, all packages to one target cell

_DELIVERY_DOMAIN = """\
(define (domain delivery)
  (:requirements :strips)
  (:predicates (pos ?x0) (ppos ?x0 ?x1) (holding ?x0) (empty) (adjacent ?x0 ?x1))
  (:action move
    :parameters (?from ?to)
    :precondition (and (pos ?from) (adjacent ?from ?to))
    :effect (and (pos ?to) (not (pos ?from))))
  (:action pick
    :parameters (?p ?c)
    :precondition (and (pos ?c) (ppos ?p ?c) (empty))
    :effect (and (holding ?p) (not (ppos ?p ?c)) (not (empty))))
  (:action drop
    :parameters (?p ?c)
    :precondition (and (pos ?c) (holding ?p))
    :effect (and (ppos ?p ?c) (empty) (not (holding ?p))))
)
"""

_DELIVERY_RULES = {
    "r0": "",
    "r1": "{ H } => { !H, p?, t? };",
    "r2": "{ !H } => { H, p?, t? };",
    "r3": "{ H } => { !H, p?, t? }; { !H } => { H, p?, t? };",
    "r4": "{ u>0 } => { u--, H?, p?, t? };",
    "r5": "{ !H } => { H, p?, t? }; { u>0 } => { u--, H?, p?, t? };",
    "r6": "{ !H, p>0 } => { p--, t? };",
    "r7": "{ H, t>0 } => { t--, p? };",
    "r8": (
        "{ !H } => { H, p?, t? }; { u>0 } => { u--, H?, p?, t? }; "
        "{ !H, p>0 } => { p--, t? }; { H, t>0 } => { t--, p? };"
    ),
    "policy": (
        "{ !H, p>0 } => { p--, t? }; { !H, p=0 } => { H }; "
        "{ H, t>0 } => { t-- }; { H, t=0, u>0 } => { !H, u--, p? };"
    ),
}


def delivery(
    width: int, height: int, packages: list[int], target: int, start: int
) -> Bundle:
    """Delivery instance; `packages` lists the start cell of each package."""
    if width < 1 or height < 1:
        raise DomainError("width and height must be >= 1")
    if not packages:  # the feature `u` names every package
        raise DomainError("need at least one package")
    cells = _grid_cells(width, height)
    names = [f"p{i}" for i in range(1, len(packages) + 1)]
    for c in packages + [target, start]:
        if not 1 <= c <= len(cells):
            raise DomainError(f"cell index {c} out of range")
    init = [_ga("pos", f"c{start}"), _ga("empty")]
    init += [_ga("ppos", p, f"c{c}") for p, c in zip(names, packages)]
    init += [_ga("adjacent", a, b) for a, b in _grid_adjacency(width, height)]
    goal = [_ga("ppos", p, f"c{target}") for p in names]
    problem = _problem(
        f"delivery-{width}x{height}-{len(packages)}", "delivery",
        sorted(cells + names), init, goal,
    )
    bundle = Bundle("delivery", _DELIVERY_DOMAIN, problem)
    tgt = f"c{target}"
    bundle.features_text = (
        "feature H bool = nonzero(count(holding(_)))\n"
        f"feature p num = distance(pos, adjacent, cells_of(ppos(_, _), not {tgt}), "
        "zero_if(holding(_)))\n"
        f"feature t num = distance(pos, adjacent, cells({tgt}))\n"
        f"feature u num = missing(ppos(_, {tgt}), {', '.join(names)})\n"
    )
    header = "features { H: bool; p: num; t: num; u: num; }\n"
    for key, body in _DELIVERY_RULES.items():
        bundle.sketches[key] = header + "rules { " + body + " }\n"
    return bundle


# ---------------------------------------------------------------------------
# Marbles: boxes leave the table once emptied of marbles

_MARBLES_DOMAIN = """\
(define (domain marbles)
  (:requirements :strips)
  (:predicates (ontable ?x0) (in ?x0 ?x1) (cnt ?x0 ?x1) (succ ?x0 ?x1) (zero ?x0))
  (:action take
    :parameters (?r ?b ?k ?j)
    :precondition (and (in ?r ?b) (cnt ?b ?k) (succ ?j ?k))
    :effect (and (cnt ?b ?j) (not (in ?r ?b)) (not (cnt ?b ?k))))
  (:action remove_box
    :parameters (?b ?k)
    :precondition (and (ontable ?b) (cnt ?b ?k) (zero ?k))
    :effect (and (not (ontable ?b))))
)
"""


def marbles(counts: list[int]) -> Bundle:
    """One box per entry of `counts`, holding that many marbles; the goal is
    a conjunction of negated ontable atoms, so this is not plain STRIPS."""
    if not counts or any(c < 0 for c in counts):
        raise DomainError("counts must be non-negative, at least one box")
    boxes = [f"b{i}" for i in range(1, len(counts) + 1)]
    top = max(counts)
    markers = [f"n{i}" for i in range(top + 1)]
    marble_names = []
    init = [_ga("zero", "n0")]
    for i in range(top):
        init.append(_ga("succ", f"n{i}", f"n{i + 1}"))
    ridx = 0
    for b, c in zip(boxes, counts):
        init.append(_ga("ontable", b))
        init.append(_ga("cnt", b, f"n{c}"))
        for _ in range(c):
            ridx += 1
            marble_names.append(f"r{ridx}")
            init.append(_ga("in", f"r{ridx}", b))
    problem = _problem(
        f"marbles-{'-'.join(map(str, counts))}", "marbles",
        sorted(boxes + markers + marble_names), init,
        [], [_ga("ontable", b) for b in boxes],
    )
    bundle = Bundle("marbles", _MARBLES_DOMAIN, problem)
    bundle.features_text = (
        "feature n num = count(ontable(_))\n"
        "feature m num = builtin(marbles_first_box)\n"
    )
    bundle.sketches["policy"] = (
        "features { n: num; m: num; }\n"
        "rules { { m>0 } => { m-- }; { m=0, n>0 } => { n--, m? }; }\n"
    )
    return bundle


# ---------------------------------------------------------------------------
# Towers of Hanoi with a parity atom alternating between disk classes

_HANOI_DOMAIN = """\
(define (domain hanoi)
  (:requirements :strips)
  (:predicates (on ?x0 ?x1) (clear ?x0) (smaller ?x0 ?x1) (e) (o))
  (:action move_e
    :parameters (?d ?from ?to)
    :precondition (and (e) (on ?d ?from) (clear ?d) (clear ?to) (smaller ?d ?to))
    :effect (and (o) (on ?d ?to) (clear ?from) (not (e)) (not (on ?d ?from)) (not (clear ?to))))
  (:action move_o
    :parameters (?d ?from ?to)
    :precondition (and (o) (on ?d ?from) (clear ?d) (clear ?to) (smaller ?d ?to))
    :effect (and (e) (on ?d ?to) (clear ?from) (not (o)) (not (on ?d ?from)) (not (clear ?to))))
)
"""

_HANOI_POLICY = (
    "features { q: bool; p12: bool; p13: bool; p23: bool; }\n"
    "rules {\n"
    "  # smallest disk moves, always one peg to the left\n"
    "  { q, p12, p13 } => { !q, p12?, !p13, !p23 };\n"
    "  { q, !p12, p23 } => { !q, p12, p13, p23? };\n"
    "  { q, !p13, !p23 } => { !q, !p12, p13?, p23 };\n"
    "  # the other disk takes its only legal move\n"
    "  { !q, p12, p13, p23 } => { q, !p23 };\n"
    "  { !q, p12, p13, !p23 } => { q, p23 };\n"
    "  { !q, !p12, p13, p23 } => { q, !p13 };\n"
    "  { !q, !p12, !p13, p23 } => { q, p13 };\n"
    "  { !q, p12, !p13, !p23 } => { q, !p12 };\n"
    "  { !q, !p12, !p13, !p23 } => { q, p12 };\n"
    "}\n"
)


def hanoi(n_disks: int, from_peg: int = 1, to_peg: int = 3) -> Bundle:
    """Single tower of `n_disks` (d1 smallest) moved between pegs 1..3; the
    atom `e` is true initially and flips with every move."""
    if n_disks < 1:
        raise DomainError("need at least one disk")
    if not (1 <= from_peg <= 3 and 1 <= to_peg <= 3 and from_peg != to_peg):
        raise DomainError("pegs must be distinct and in 1..3")
    disks = [f"d{i}" for i in range(1, n_disks + 1)]
    pegs = [f"peg{i}" for i in (1, 2, 3)]
    init = [_ga("e")]
    for i in range(1, n_disks + 1):
        for j in range(i + 1, n_disks + 1):
            init.append(_ga("smaller", f"d{i}", f"d{j}"))
        for p in pegs:
            init.append(_ga("smaller", f"d{i}", p))
    src = f"peg{from_peg}"
    init.append(_ga("on", disks[-1], src))
    for upper, lower in zip(disks, disks[1:]):
        init.append(_ga("on", upper, lower))
    init.append(_ga("clear", disks[0]))
    for p in pegs:
        if p != src:
            init.append(_ga("clear", p))
    dst = f"peg{to_peg}"
    goal = [_ga("on", disks[-1], dst)]
    goal += [_ga("on", upper, lower) for upper, lower in zip(disks, disks[1:])]
    problem = _problem(f"hanoi-{n_disks}", "hanoi", sorted(disks + pegs), init, goal)
    bundle = Bundle("hanoi", _HANOI_DOMAIN, problem)
    bundle.features_text = (
        "feature q bool = builtin(hanoi_parity)\n"
        "feature p12 bool = builtin(hanoi_p12)\n"
        "feature p13 bool = builtin(hanoi_p13)\n"
        "feature p23 bool = builtin(hanoi_p23)\n"
    )
    bundle.sketches["policy"] = _HANOI_POLICY
    return bundle


def hanoi_odd(n_disks: int) -> Bundle:
    """Odd-disk-count selector: the alternation policy then moves the tower
    from peg 1 to peg 3."""
    if n_disks % 2 != 1:
        raise DomainError("instance selector requires an odd number of disks")
    return hanoi(n_disks, from_peg=1, to_peg=3)


# ---------------------------------------------------------------------------
# CLI dispatch


# the parameters each family takes
FAMILY_PARAMS = {
    "blocks-clear": {"l", "held"},
    "blocks-on": {"l", "m"},
    "blocks": {"towers", "goal", "held"},
    "grid": {"width", "height", "start", "goal"},
    "grid2": {"width", "height", "start", "goal"},
    "delivery": {"width", "height", "packages", "target", "start"},
    "marbles": {"counts"},
    "hanoi": {"n", "from", "to"},
}


def generate(family: str, params: dict[str, str]) -> Bundle:
    if family not in FAMILY_PARAMS:
        raise DomainError(f"unknown family '{family}'")
    unknown = sorted(set(params) - FAMILY_PARAMS[family])
    if unknown:
        raise DomainError(f"unknown parameter '{unknown[0]}' for family '{family}'")

    def text(key):
        if key not in params:
            raise DomainError(f"missing parameter '{key}'")
        return params[key]

    def ints(key, count=None):
        """The comma-separated integers of `key`: `count` of them, or any
        number when `count` is None.  An empty value holds none; an empty
        item between or after commas is an error."""
        raw = text(key)
        items = raw.split(",") if raw else []
        try:
            if count in (None, len(items)):
                return [int(v) for v in items]
        except ValueError:
            pass
        want = {None: "comma-separated integers", 1: "an integer", 2: "two comma-separated integers"}
        raise DomainError(f"parameter '{key}' needs {want[count]}, got '{raw}'")

    def num(key, default=None):
        return default if key not in params and default is not None else ints(key, 1)[0]

    if family == "blocks-clear":
        held = params.get("held")
        return blocks_clear(num("l"), holding=held)
    if family == "blocks-on":
        return blocks_on(num("l"), num("m"))
    if family == "blocks":
        towers = [t.split(".") for t in text("towers").split(";") if t]
        goal = tuple(text("goal").replace(":", ",").split(","))
        return blocks(towers, goal, holding=params.get("held"))
    if family == "grid":
        return grid(num("width"), num("height"), num("start"), num("goal"))
    if family == "grid2":
        start, goal = ints("start", 2), ints("goal", 2)
        return grid2(num("width"), num("height"), tuple(start), tuple(goal))
    if family == "delivery":
        cells = ints("packages")
        return delivery(num("width"), num("height"), cells, num("target"), num("start"))
    if family == "marbles":
        return marbles(ints("counts"))
    return hanoi(num("n"), num("from", 1), num("to", 3))  # the last family left
