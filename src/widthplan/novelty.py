"""Tuple bookkeeping for novelty-pruned searches.

Tracks which atom tuples have been made true so far, either over an explicit
tuple set or over the implicit universe of all tuples of size at most k.
When the caller supplies the set of atoms flipped by a transition, only the
tuples touching a flipped atom are examined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

from .strips import GroundAtom, GroundProblem, State, atoms_of, state_from_atoms


class TupleSetError(ValueError):
    pass


@dataclass(frozen=True)
class TupleSet:
    """Explicit duplicate-free set of atom tuples, stored as sorted id tuples.

    `never_true` holds the atoms of a parsed set that are well formed but not
    numbered, since they are never true: they take the ids n_atoms,
    n_atoms + 1, ... of the problem parsed against, bits no state holds, so
    a tuple holding one is never true.
    """

    tuples: tuple[tuple[int, ...], ...]
    never_true: tuple[GroundAtom, ...] = ()

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

    def state_str(self, problem: GroundProblem, mask: State) -> str:
        """`problem.state_str`, naming the never-true atoms too."""
        return "{" + ", ".join(self.atom_str(problem, i) for i in atoms_of(mask)) + "}"

    def atom_str(self, problem: GroundProblem, atom_id: int) -> str:
        """The name of atom `atom_id`, numbered or never true."""
        n = problem.n_atoms
        return str(problem.atoms[atom_id] if atom_id < n else self.never_true[atom_id - n])


@dataclass(frozen=True)
class TupleUniverse:
    """All tuples of 0..k atoms over an n-atom problem, never materialized.

    `fluent` is the mask of atoms that can change truth value; a novelty
    table over the universe keeps masks under tuples of fluent atoms only.
    """

    n_atoms: int
    k: int
    fluent: State

    def __len__(self) -> int:
        return sum(comb(self.n_atoms, i) for i in range(self.k + 1))


def all_tuples_up_to(problem: GroundProblem, k: int) -> TupleUniverse:
    """Every tuple of at most k numbered atoms; no tuple is larger than the
    atom count, so a larger k gives the universe of every tuple.  A tuple
    holding an atom that is never true, and so not numbered, is never true:
    leaving it out changes no novelty verdict."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return TupleUniverse(problem.n_atoms, min(k, problem.n_atoms), problem.fluent_mask)


class NoveltyTable:
    """Seen-tuple table owned by a single search.

    `register(s, delta)` returns True iff some tracked tuple is true in `s`
    for the first time, and marks every tracked tuple true in `s` as seen.
    `delta` (the atoms that flipped between the parent state and `s`) limits
    the check to tuples containing a flipped atom; this is only sound when
    the parent state was itself registered earlier.

    Over a universe, `register` is the test `novel(s, delta)` followed, when
    it passes, by the fold `add(s)`; a caller may also fold states it has
    tested in a batch.  The empty tuple is true in every state, so it makes
    exactly the first added state novel.  One rule serves every other tuple
    size: a tuple T of fluent atoms has been seen iff, for some atom a in T,
    the mask kept under T - {a} holds a.  `add` ORs the state into the mask
    of each of its fluent subsets; size 1 is one mask over every atom.  The
    states one table sees share their non-fluent atoms, so a tuple holding
    one is new exactly when its fluent part is.  The verdicts are those of
    the full universe.
    """

    def __init__(self, tracked: TupleSet | TupleUniverse):
        self.tracked = tracked
        if isinstance(tracked, TupleSet):
            self._masks = tracked.masks()
            self._seen = [False] * len(self._masks)
        else:
            self._k = tracked.k
            self._fluent = tracked.fluent
            self._empty_seen = False
            # k = 0 tracks no atom: every one counts as seen
            self._seen1 = 0 if tracked.k else -1
            # size 2: per atom id, the fluent atoms seen together with it
            self._pair = [0] * tracked.n_atoms if tracked.k >= 2 else None
            # sizes 3..k: the same per sorted tuple of 2..k-1 fluent atom ids
            self._with: dict[tuple[int, ...], int] = {}

    def register(self, s: State, delta: State | None = None) -> bool:
        if isinstance(self.tracked, TupleSet):
            return self._register_explicit(s, delta)
        if not self.novel(s, delta):
            return False
        self.add(s)
        return True

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

    def novel(self, s: State, delta: State | None = None) -> bool:
        """Whether a tuple of the universe true in `s` is unseen; with
        `delta`, only tuples holding a flipped atom are examined."""
        if not self._empty_seen:
            return True
        scope = s if delta is None else s & delta
        if scope & ~self._seen1:
            return True
        if self._k < 2:
            return False
        fs = s & self._fluent
        pair = self._pair
        rest = fs & scope
        while rest:
            low = rest & -rest
            rest ^= low
            if fs & ~pair[low.bit_length() - 1]:
                return True
        return self._k > 2 and self._fresh(fs, scope)

    def add(self, s: State) -> None:
        """Mark every tuple of the universe true in `s` as seen."""
        self._empty_seen = True
        self._seen1 |= s
        if self._k >= 2:
            fs = s & self._fluent
            atoms = atoms_of(fs)
            for a in atoms:
                self._pair[a] |= fs
            for r in range(2, self._k):
                for sub in combinations(atoms, r):
                    self._with[sub] = self._with.get(sub, 0) | fs

    def _fresh(self, fs: State, scope: State) -> bool:
        """Whether a tuple of 3..k fluent atoms true in `fs` and holding an
        atom of `scope` is unseen."""
        with_ = self._with
        flipped = atoms_of(fs & scope)
        kept = atoms_of(fs & ~scope)
        if not kept:  # every atom in scope: the subsets come sorted
            return any(fs & ~with_.get(sub, 0)
                       for r in range(2, self._k) for sub in combinations(flipped, r))
        # T is seen iff T - {b} holds b for any b in T, so it suffices to
        # look at the subsets that keep a flipped atom
        for r in range(2, self._k):
            for j in range(1, r + 1):
                for part in combinations(flipped, j):
                    for rest in combinations(kept, r - j):
                        if fs & ~with_.get(tuple(sorted(part + rest)), 0):
                            return True
        return False


# ---------------------------------------------------------------------------
# Explicit tuple-set file format: one tuple per line, atoms joined by '&',
# e.g. `hold(d1) & clear(x)`.  Blank lines and '#' comments are skipped.


def parse_tuple_set(text: str, problem: GroundProblem) -> TupleSet:
    tuples = []
    never_true: dict[tuple[str, tuple[str, ...]], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ids = []
        for part in line.split("&"):
            ids.append(_parse_atom_ref(part.strip(), problem, lineno, never_true))
        tuples.append(tuple(sorted(set(ids))))
    never = tuple(GroundAtom(i, *key) for key, i in never_true.items())
    return replace(TupleSet.from_iterable(tuples), never_true=never)


def _parse_atom_ref(text: str, problem: GroundProblem, lineno: int, never_true: dict) -> int:
    if not text.endswith(")") or "(" not in text:
        raise TupleSetError(f"line {lineno}: malformed atom '{text}'")
    pred, argtext = text[:-1].split("(", 1)
    pred = pred.strip().lower()
    args = tuple(a.strip().lower() for a in argtext.split(",") if a.strip())
    aid = problem.atom_id(pred, args)
    if aid is not None:
        return aid
    if not problem.is_well_formed(pred, args):
        raise TupleSetError(f"line {lineno}: unknown atom '{text}'")
    return never_true.setdefault((pred, args), problem.n_atoms + len(never_true))


def format_tuple_set(tuples: TupleSet, problem: GroundProblem) -> str:
    lines = []
    for t in tuples.tuples:
        lines.append(" & ".join(tuples.atom_str(problem, i) for i in t))
    return "\n".join(lines) + "\n"
