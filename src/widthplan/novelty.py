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
    table over the universe keeps tuples of two or more fluent atoms only.
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

    Over a universe, one rule serves every tuple size: a tuple T of fluent
    atoms has been seen iff, for some atom a in T, the mask kept under
    T - {a} holds a.  Only a state that makes some tuple new can add a bit,
    and it ORs its fluent atoms into the mask of each of its fluent subsets;
    size 1 is one mask over every atom.  The states one search registers
    share their non-fluent atoms, so a tuple holding one is new exactly when
    its fluent part is, and the size-1 mask makes the first state novel when
    that part is empty.  The verdicts are those of the full universe.
    """

    def __init__(self, tracked: TupleSet | TupleUniverse):
        self.tracked = tracked
        if isinstance(tracked, TupleSet):
            self._masks = tracked.masks()
            self._seen = [False] * len(self._masks)
        else:
            self._k = tracked.k
            self._fluent = tracked.fluent
            self._seen1 = 0
            # size 2: per atom id, the fluent atoms seen together with it
            self._pair = [0] * tracked.n_atoms if tracked.k >= 2 else None
            # sizes 3..k: the same per sorted tuple of 2..k-1 fluent atom ids
            self._with: dict[tuple[int, ...], int] = {}

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
        k = self._k
        if not k:  # the universe of k = 0 holds no tuple
            return False
        scope = s if delta is None else s & delta
        fs = s & self._fluent
        if not scope & ~self._seen1 and (k < 2 or not self._fresh(fs, scope)):
            return False
        self._seen1 |= s
        if k >= 2:
            atoms = atoms_of(fs)
            for a in atoms:
                self._pair[a] |= fs
            for r in range(2, k):
                for sub in combinations(atoms, r):
                    self._with[sub] = self._with.get(sub, 0) | fs
        return True

    def _fresh(self, fs: State, scope: State) -> bool:
        """Whether a tuple of 2..k fluent atoms true in `fs` and holding an
        atom of `scope` is unseen, every such smaller tuple being seen."""
        flipped = atoms_of(fs & scope)
        pair = self._pair
        for a in flipped:
            if fs & ~pair[a]:
                return True
        if self._k < 3:
            return False
        kept = atoms_of(fs & ~scope)
        # T is seen iff T - {b} holds b for any b in T, so it suffices to
        # look at the subsets that keep a flipped atom
        for r in range(2, self._k):
            for j in range(1, r + 1):
                for part in combinations(flipped, j):
                    for rest in combinations(kept, r - j):
                        if fs & ~self._with.get(tuple(sorted(part + rest)), 0):
                            return True
        return False


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
