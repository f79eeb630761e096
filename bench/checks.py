"""Correctness checks made apart from the program.

Plans are replayed with the benchmark's own mask arithmetic, and lengths,
state counts and node bounds come from closed forms, never from another
widthplan routine.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

from math import comb, factorial


def iw_bound(n_atoms: int, k: int) -> int:
    """Most nodes IW(k) can expand: each expansion makes a tuple of size
    1..k true for the first time.  IW(0) tracks only the empty tuple, which
    lets the root through and nothing else."""
    if k == 0:
        return 1
    return sum(comb(n_atoms, i) for i in range(1, k + 1))


def _towers(n: int) -> int:
    """Ways to stack n labelled blocks into unordered towers on the table:
    the Lah-number sum over k towers of C(n-1, k-1) n!/k!."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k - 1) * factorial(n) // factorial(k) for k in range(1, n + 1))


def blocks_states(n: int) -> int:
    """Reachable Blocksworld states with n blocks: hand empty, or one of the
    n blocks held over towers of the other n-1."""
    return _towers(n) + n * _towers(n - 1)


def replay(problem, plan) -> tuple[int | None, str | None]:
    """Final state of `plan` from the initial state, or (None, reason) at the
    first inapplicable step."""
    s = problem.init
    for step, aid in enumerate(plan):
        act = problem.actions[aid]
        if act.pre & s != act.pre:
            return None, f"step {step} ({act}) is not applicable"
        s = (s & ~act.delete) | act.add
    return s, None


def reaches_goal(problem, s: int) -> bool:
    return s & problem.goal_pos == problem.goal_pos and not s & problem.goal_neg


def plan_problems(problem, plan, length=None, min_length=None) -> list[str]:
    """A plan must exist, replay to a goal, and meet a closed-form length."""
    if plan is None:
        return ["no plan"]
    end, reason = replay(problem, plan)
    if end is None:
        return [reason]
    out = []
    if not reaches_goal(problem, end):
        out.append("plan does not reach the goal")
    if length is not None and len(plan) != length:
        out.append(f"plan length {len(plan)}, expected {length}")
    if min_length is not None and len(plan) < min_length:
        out.append(f"plan length {len(plan)} below {min_length}")
    return out


def expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label} is {got!r}, expected {want!r}"]


def at_most(label: str, got: int, bound: int) -> list[str]:
    return [] if got <= bound else [f"{label} {got} exceeds {bound}"]
