"""The three workloads: their instances, timed operations and checks.

Everything reaches widthplan through module attributes looked up at call
time (`search.iw_k`, not a name imported once), so the traced run's wrappers
see the benchmark's own calls as well as the program's internal ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from widthplan import domains, features, grounding, novelty, oracle, pddl, search, siw, sketches

import checks


@dataclass(frozen=True)
class Instance:
    name: str
    make: Callable[[], "domains.Bundle"]
    features: bool = False
    sketches: tuple[str, ...] = ()
    tuples: str | None = None


@dataclass
class Prepared:
    problem: object
    phi: object = None
    sketches: dict = field(default_factory=dict)
    tuples: object = None


def prepare(inst: Instance) -> Prepared:
    """Set-up as a user pays it: generate, parse, ground, parse features and
    sketches (and the tuple set, which needs the ground atoms)."""
    bundle = inst.make()
    problem = grounding.ground(
        pddl.parse_domain(bundle.domain_text), pddl.parse_problem(bundle.problem_text)
    )
    out = Prepared(problem)
    if inst.features:
        out.phi = features.parse_features(bundle.features_text)
    out.sketches = {name: sketches.parse_sketch(bundle.sketches[name]) for name in inst.sketches}
    if inst.tuples is not None:
        out.tuples = novelty.parse_tuple_set(bundle.tuple_sets[inst.tuples], out.problem)
    return out


@dataclass(frozen=True)
class Operation:
    name: str
    instance: Instance
    run: Callable[[Prepared], object]
    check: Callable[[Prepared, object], list[str]]
    cli: tuple[str, ...] | None = None  # `widthplan solve` arguments doing the same search


# ---------------------------------------------------------------------------
# iw-ladder: novelty searches, no features, no oracle


def _iw_k_op(name, inst, k, length=None, min_length=None):
    def check(p, r):
        out = checks.plan_problems(p.problem, r.plan, length=length, min_length=min_length)
        return out + checks.at_most("expanded", r.stats.expanded, checks.iw_bound(p.problem.n_atoms, k))

    return Operation(name, inst, lambda p: search.iw_k(p.problem, k), check,
                     cli=("--alg", "iwk", "--k", str(k)))


def _iw_op(name, inst):
    def check(p, r):
        out = checks.plan_problems(p.problem, r.plan)
        return out + checks.at_most(
            "expanded", r.stats.expanded, checks.iw_bound(p.problem.n_atoms, r.k)
        )

    return Operation(name, inst, lambda p: search.iw(p.problem), check, cli=("--alg", "iw"))


def _iw_t_op(name, inst, height):
    def check(p, r):
        out = checks.plan_problems(p.problem, r.plan, length=2 * height - 1)
        return out + checks.at_most("expanded", r.stats.expanded, len(p.tuples))

    return Operation(name, inst, lambda p: search.iw_t(p.problem, p.tuples), check,
                     cli=("--alg", "iwt"))


def iw_ladder(seed: int) -> list[Operation]:
    ops = [
        _iw_k_op(f"iw2-grid-c{a}-c{b}", Instance(f"grid-10x10-c{a}-c{b}",
                 lambda a=a, b=b: domains.grid(10, 10, a, b)), 2, length=10 + 10 - 2)
        for a, b in ((1, 100), (10, 91), (100, 1), (91, 10))
    ]
    ops += [
        _iw_k_op(f"iw3-hanoi-4-peg{peg}", Instance(f"hanoi-4-peg{peg}",
                 lambda peg=peg: domains.hanoi(4, 1, peg)), 3, min_length=2**4 - 1)
        for peg in (3, 2)
    ]
    ops += [
        _iw_k_op(f"iw2-blocks-on-{n}-{n}", Instance(f"blocks-on-{n}-{n}",
                 lambda n=n: domains.blocks_on(n, n)), 2, length=2 * n + 2 * n + 2)
        for n in (3, 5)
    ]
    deliv = Instance("delivery-3x3-2", lambda: domains.delivery(3, 3, [3, 8], 1, 5))
    clear = Instance("blocks-clear-32", lambda: domains.blocks_clear(32), tuples="walk")
    return ops + [_iw_op("iw-delivery-3x3-2", deliv), _iw_t_op("iwt-blocks-clear-32", clear, 32)]


# ---------------------------------------------------------------------------
# siwr-sketch: serialized and policy-driven solving over features

# Base layouts (width, height, package cells, target, start).  A seed maps
# each onto an image under a symmetry of the grid with the packages in a
# shuffled order: the cells, atom numbering and tie-breaks change with the
# seed, while every seed's instances stay isomorphic and so cost about the
# same.
DELIVERY_BASES = {
    "4x4x3": (4, 4, [3, 8, 12], 1, 5),
    "5x5x3": (5, 5, [7, 13, 24], 1, 12),
    "6x6x5": (6, 6, [3, 8, 20, 30, 12], 1, 5),
}


def delivery_layout(seed: int, key: str):
    width, height, packages, target, start = DELIVERY_BASES[key]
    rng = random.Random(seed * 1000 + sorted(DELIVERY_BASES).index(key))
    sym = rng.randrange(8 if width == height else 4)
    packages = packages[:]
    rng.shuffle(packages)

    def image(cell):
        row, col = divmod(cell - 1, width)
        if sym & 1:
            col = width - 1 - col
        if sym & 2:
            row = height - 1 - row
        if sym & 4:
            row, col = col, row
        return row * width + col + 1

    return width, height, [image(c) for c in packages], image(target), image(start)


def _siw_r_op(name, inst, rules, k_max):
    def check(p, r):
        if not r.solved:
            return [f"siw_r failed: {r.reason}"]
        out = checks.plan_problems(p.problem, r.plan)
        for i, seg in enumerate(r.segments):
            out += checks.at_most(f"segment {i} k", seg.k, k_max)
            if rules == "r8":
                out += checks.expect(f"segment {i} length", len(seg.plan), 1)
        return out

    return Operation(
        name, inst,
        lambda p: siw.siw_r(p.problem, p.sketches[rules], p.phi, k_max=k_max), check,
    )


def siwr_sketch(seed: int) -> list[Operation]:
    deliv = {}
    for key in DELIVERY_BASES:
        layout = delivery_layout(seed, key)
        deliv[key] = Instance(
            f"delivery-{key}", lambda layout=layout: domains.delivery(*layout),
            features=True, sketches=("r4", "r5", "r8"),
        )
    hanoi7 = Instance("hanoi-odd-7", lambda: domains.hanoi_odd(7), features=True,
                      sketches=("policy",))
    counts = [4, 4, 1]
    marbles = Instance("marbles-4-4-1", lambda: domains.marbles(counts), features=True)

    def check_policy(p, run):
        if not run.reached_goal:
            return [f"policy ended {run.status}"]
        return checks.plan_problems(p.problem, run.actions, length=2**7 - 1)

    return [
        _siw_r_op("siwr-r5-4x4x3", deliv["4x4x3"], "r5", 1),
        _siw_r_op("siwr-r5-5x5x3", deliv["5x5x3"], "r5", 1),
        _siw_r_op("siwr-r5-6x6x5", deliv["6x6x5"], "r5", 1),
        _siw_r_op("siwr-r4-4x4x3", deliv["4x4x3"], "r4", 2),
        _siw_r_op("siwr-r4-5x5x3", deliv["5x5x3"], "r4", 2),
        _siw_r_op("siwr-r8-5x5x3", deliv["5x5x3"], "r8", 0),
        _siw_r_op("siwr-r8-6x6x5", deliv["6x6x5"], "r8", 0),
        Operation("policy-hanoi-odd-7", hanoi7,
                  lambda p: siw.run_policy(p.problem, p.sketches["policy"], p.phi), check_policy),
        Operation(
            "iwphi-marbles-4-4-1", marbles, lambda p: search.iw_phi(p.problem, p.phi),
            lambda p, r: checks.plan_problems(p.problem, r.plan, length=sum(counts) + len(counts)),
        ),
    ]


# ---------------------------------------------------------------------------
# oracle-verify: brute-force verification by enumeration


def _lower_bound_op(name, inst, n_blocks):
    def run(p):
        space = oracle.enumerate_space(p.problem)
        return len(space), oracle.lower_bound_witness(space, 1)

    def check(p, r):
        states, verdict = r
        return (checks.expect("states", states, checks.blocks_states(n_blocks))
                + checks.expect("width-above-1 verdict", verdict, True))

    return Operation(name, inst, run, check)


def _admissible_op(height):
    inst = Instance(f"blocks-clear-{height}", lambda: domains.blocks_clear(height), tuples="walk")

    def run(p):
        space = oracle.enumerate_space(p.problem)
        return len(space), oracle.is_admissible(space, p.tuples).ok

    def check(p, r):
        states, ok = r
        return (checks.expect("states", states, checks.blocks_states(height + 1))
                + checks.expect("walk set admissible", ok, True))

    return Operation(f"admissible-blocks-clear-{height}", inst, run, check)


def _sketch_width_op(inst, rules, width):
    def run(p):
        space = oracle.enumerate_space(p.problem)
        return oracle.sketch_width_on(space, p.sketches[rules], p.phi).value

    return Operation(f"sketch-width-{rules}-{inst.name}", inst, run,
                     lambda p, value: checks.expect(f"{rules} sketch width", value, width))


def oracle_verify(seed: int) -> list[Operation]:
    deliv = Instance("delivery-3x2-2", lambda: domains.delivery(3, 2, [2, 5], 1, 4),
                     features=True, sketches=("r4", "r5", "r8"))
    grid2 = Instance("grid2-10x10", lambda: domains.grid2(10, 10, (1, 1), (10, 10)))

    def run_grid2(p):
        width = oracle.effective_width(p.problem)
        space = oracle.enumerate_space(p.problem)
        return width, len(space), oracle.lower_bound_witness(space, 1)

    def check_grid2(p, r):
        width, states, above_1 = r
        return (checks.expect("effective width", width, 2)
                + checks.expect("states", states, 10 * 10)
                + checks.expect("width-above-1 verdict", above_1, True))

    return [
        _lower_bound_op("lower-bound-blocks-on-2-3",
                        Instance("blocks-on-2-3", lambda: domains.blocks_on(2, 3)), 7),
        _lower_bound_op("lower-bound-blocks-on-3-2",
                        Instance("blocks-on-3-2", lambda: domains.blocks_on(3, 2)), 7),
        *(_admissible_op(h) for h in range(2, 7)),
        _sketch_width_op(deliv, "r4", 2),
        _sketch_width_op(deliv, "r5", 1),
        _sketch_width_op(deliv, "r8", 0),
        Operation("width-grid2-10x10", grid2, run_grid2, check_grid2),
    ]


WORKLOADS = {
    "iw-ladder": iw_ladder,
    "siwr-sketch": siwr_sketch,
    "oracle-verify": oracle_verify,
}
