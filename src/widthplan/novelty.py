"""Tuple bookkeeping for novelty-pruned searches.

Tracks which atom tuples have been made true so far, either over an explicit
tuple set or over the implicit universe of all tuples of size at most k.
When the caller supplies the set of atoms flipped by a transition, only the
tuples touching a flipped atom are examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .strips import GroundProblem, State, atoms_of, state_from_atoms


class TupleSetError(ValueError):
    pass


@dataclass(frozen=True)
class TupleSet:
    """Explicit duplicate-free set of atom tuples, stored as sorted id tuples."""

    tuples: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_iterable(tuples) -> "TupleSet":
        canon = {tuple(sorted(set(t))) for t in tuples}
        return TupleSet(tuple(sorted(canon)))

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def size(self) -> int:
        """Largest tuple size; 0 for the empty set."""
        return max((len(t) for t in self.tuples), default=0)

    def masks(self) -> list[State]:
        return [state_from_atoms(t) for t in self.tuples]


@dataclass(frozen=True)
class TupleUniverse:
    """All tuples of 1..k atoms over an n-atom problem, never materialized.

    `fluent` is the mask of atoms that can change truth value; a novelty
    table over the universe tracks tuples of fluent atoms only.
    """

    n_atoms: int
    k: int
    fluent: State

    def __len__(self) -> int:
        return sum(comb(self.n_atoms, i) for i in range(1, self.k + 1))

    @property
    def size(self) -> int:
        return self.k


def all_tuples_up_to(problem: GroundProblem, k: int) -> TupleUniverse:
    if not 0 <= k <= problem.n_atoms:
        raise ValueError(f"k={k} out of range 0..{problem.n_atoms}")
    return TupleUniverse(problem.n_atoms, k, problem.fluent_mask)


class NoveltyTable:
    """Seen-tuple table owned by a single search.

    `register(s, delta)` returns True iff some tracked tuple is true in `s`
    for the first time, and marks every tracked tuple true in `s` as seen.
    `delta` (the atoms that flipped between the parent state and `s`) limits
    the check to tuples containing a flipped atom; this is only sound when
    the parent state was itself registered earlier.

    Over a universe, only tuples of fluent atoms are kept.  The states one
    search registers all share their non-fluent atoms, so a tuple holding a
    true non-fluent atom is new exactly when its fluent part is, except in
    the first registered state, which is also novel when it holds any
    non-fluent atom.  The verdicts are those of the full
    universe.
    """

    def __init__(self, tracked: TupleSet | TupleUniverse):
        self.tracked = tracked
        if isinstance(tracked, TupleSet):
            self._masks = tracked.masks()
            self._seen = [False] * len(self._masks)
        else:
            self._k = tracked.k
            self._fluent = tracked.fluent
            fluent_atoms = atoms_of(tracked.fluent)
            n = len(fluent_atoms)
            # None once a first state is registered
            self._static = ((1 << tracked.n_atoms) - 1) & ~tracked.fluent
            # dense ranks of the fluent atoms, monotone in atom id; None when
            # every atom is fluent and ranks are atom ids
            self._rank: list[int] | None = None
            if n < tracked.n_atoms:
                self._rank = [0] * tracked.n_atoms
                for r, aid in enumerate(fluent_atoms):
                    self._rank[aid] = r
            self._n = n
            self._seen1 = 0
            self._seen2 = bytearray(n * n) if tracked.k >= 2 else None
            self._seen_hi: set[tuple[int, ...]] = set()

    def register(self, s: State, delta: State | None = None) -> bool:
        if isinstance(self.tracked, TupleSet):
            return self._register_explicit(s, delta)
        return self._register_universe(s, delta)

    def _register_explicit(self, s: State, delta: State | None) -> bool:
        novel = False
        masks, seen = self._masks, self._seen
        for i, t in enumerate(masks):
            if seen[i]:
                continue
            if delta is not None and t and not (t & delta):
                continue
            if t & s == t:
                seen[i] = True
                novel = True
        return novel

    def _register_universe(self, s: State, delta: State | None) -> bool:
        if not self._k:  # the universe of k = 0 holds no tuple
            return False
        novel = False
        if self._static is not None:
            novel = bool(s & self._static)
            self._static = None
        s &= self._fluent
        scope = s if delta is None else s & delta
        # size 1
        fresh = scope & ~self._seen1
        if fresh:
            novel = True
            self._seen1 |= fresh
        if self._k < 2:
            return novel
        # size 2, over fluent ranks
        table = self._seen2
        n = self._n
        rank = self._rank
        s_atoms = atoms_of(s)
        scope_atoms = s_atoms if delta is None else atoms_of(scope)
        if rank is not None:
            s_atoms = [rank[a] for a in s_atoms]
            scope_atoms = s_atoms if delta is None else [rank[a] for a in scope_atoms]
        scope_set = set(scope_atoms)
        for i in scope_atoms:
            base = i * n
            for j in s_atoms:
                if j == i or (j in scope_set and j < i):
                    continue
                idx = base + j if i < j else j * n + i
                if not table[idx]:
                    table[idx] = 1
                    novel = True
        # sizes 3..k
        for r in range(3, self._k + 1):
            if len(s_atoms) < r:
                break
            for tup in combinations(s_atoms, r):
                if delta is not None and not any(a in scope_set for a in tup):
                    continue
                if tup not in self._seen_hi:
                    self._seen_hi.add(tup)
                    novel = True
        return novel


# ---------------------------------------------------------------------------
# Explicit tuple-set file format: one tuple per line, atoms joined by '&',
# e.g. `hold(d1) & clear(x)`.  Blank lines and '#' comments are skipped.


def parse_tuple_set(text: str, problem: GroundProblem) -> TupleSet:
    tuples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ids = []
        for part in line.split("&"):
            ids.append(_parse_atom_ref(part.strip(), problem, lineno))
        tuples.append(tuple(sorted(set(ids))))
    return TupleSet.from_iterable(tuples)


def _parse_atom_ref(text: str, problem: GroundProblem, lineno: int) -> int:
    if not text.endswith(")") or "(" not in text:
        raise TupleSetError(f"line {lineno}: malformed atom '{text}'")
    pred, argtext = text[:-1].split("(", 1)
    pred = pred.strip().lower()
    args = tuple(a.strip().lower() for a in argtext.split(",") if a.strip())
    aid = problem.atom_id(pred, args)
    if aid is None:
        raise TupleSetError(f"line {lineno}: unknown atom '{text}'")
    return aid


def format_tuple_set(tuples: TupleSet, problem: GroundProblem) -> str:
    lines = []
    for t in tuples.tuples:
        lines.append(" & ".join(str(problem.atoms[i]) for i in t))
    return "\n".join(lines) + "\n"
