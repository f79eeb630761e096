"""Tuple bookkeeping for novelty-pruned searches.

Tracks which atom tuples have been made true so far, either over an explicit
tuple set or over the implicit universe of all tuples of size at most k.
When the caller supplies the set of atoms flipped by a transition, only the
tuples touching a flipped atom are examined.  Over the universe, only the
tuples holding an atom the transition made true are then recorded too: every
other tuple true in the state was true in its parent, which was registered
first.  A tuple T is recorded under T - {x} for each atom x of T whose
removal leaves such an atom, so its record may differ from one x to another.
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
    `delta` holds the atoms that flipped between the parent state and `s`;
    passing it is only sound when the parent was registered earlier, novel
    or not.  A tuple true in `s` that holds no atom `s` gained (`s & delta`)
    is true in the parent, and so was seen then: only the others are
    examined and recorded.

    Over an explicit set, `delta` changes no verdict, so it is not read: a
    tracked tuple true in `s` that holds no flipped atom was true in the
    parent, which was registered first, so the tuple is already seen
    (induct down to the root, whose `delta` is the root itself).

    Over a universe, `register` is the test `novel(s, delta)` followed, when
    it passes, by the fold `add(s, delta)`; a caller may also fold states it
    has tested in a batch.  The empty tuple is true in every state, so it
    makes exactly the first added state novel.  One rule serves every
    other size: a tuple T of fluent atoms has been seen iff, for some atom x
    in T, the mask kept under T - {x} holds x; size 1 is the one mask under
    the empty set, over every atom.  The states one table sees share their
    non-fluent atoms, so a tuple holding one is new exactly when its fluent
    part is.

    The fold ORs the fluent part fs of `s` into the mask under each subset U
    of fs with 1 <= |U| < k that holds a gained atom.  With no `delta`, or
    at the root, whose `delta` is the root itself, every atom of `s` counts
    as gained and the fold is full.  Invariant: every tuple T of 2..k fluent
    atoms true in an added state is seen.  If T holds a gained atom b, take
    x in T other than b: T - {x} holds b, so its mask got fs, which holds
    x.  Otherwise T is true in the parent, which was either added before,
    so T is seen by induction, or not novel, so T had been seen already.
    Conversely a mask under U only ever gets states that hold U, so a seen
    tuple was true in an added state, and the verdicts are those of the
    full universe.  The masks are not symmetric, though: T may be recorded
    under T - {x} for one x and not for another.  So the test, which looks
    for a T holding a gained atom under the masks of the subsets that hold
    one, checks each T those masks leave in every other direction before it
    calls T new.
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
            # size 2: per atom id, the mask under that atom
            self._pair = [0] * tracked.n_atoms if tracked.k >= 2 else None
            # sizes 3..k: the mask under each set of 2..k-1 fluent atoms,
            # keyed by the set's own mask
            self._with: dict[State, State] = {}

    def register(self, s: State, delta: State | None = None) -> bool:
        if isinstance(self.tracked, TupleSet):
            return self._register_explicit(s)
        if not self.novel(s, delta):
            return False
        self.add(s, delta)
        return True

    def _register_explicit(self, s: State) -> bool:
        novel = False
        masks, seen = self._masks, self._seen
        for i, t in enumerate(masks):
            if not seen[i] and t & s == t:
                seen[i] = True
                novel = True
        return novel

    def novel(self, s: State, delta: State | None = None) -> bool:
        """Whether a tuple of the universe true in `s` is unseen; with
        `delta`, only tuples holding an atom `s` gained are examined."""
        if not self._empty_seen:
            return True
        gained = s if delta is None else s & delta
        if gained & ~self._seen1:
            return True
        if self._k < 2:
            return False
        fs = s & self._fluent
        pair = self._pair
        rest = fs & gained
        while rest:
            low = rest & -rest
            rest ^= low
            # {a, b} has been seen iff pair[b] holds a or pair[a] holds b
            unseen = fs & ~(pair[low.bit_length() - 1] | low)
            while unseen:
                a = unseen & -unseen
                unseen ^= a
                if not pair[a.bit_length() - 1] & low:
                    return True
        return self._k > 2 and self._fresh(fs, fs & gained)

    def add(self, s: State, delta: State | None = None) -> None:
        """Mark every tuple of the universe true in `s` as seen; `delta`
        as for `register`."""
        self._empty_seen = True
        self._seen1 |= s
        if self._k < 2:
            return
        fs = s & self._fluent
        gained = fs if delta is None else fs & delta
        pair = self._pair
        rest = gained
        while rest:
            low = rest & -rest
            rest ^= low
            pair[low.bit_length() - 1] |= fs
        if self._k > 2:
            with_ = self._with
            for u in _subsets_holding(gained, fs, self._k):
                with_[u] = with_.get(u, 0) | fs

    def _fresh(self, fs: State, gained: State) -> bool:
        """Whether a tuple of 3..k fluent atoms true in `fs` and holding an
        atom of `gained` is unseen."""
        with_ = self._with
        for u in _subsets_holding(gained, fs, self._k):
            unseen = fs & ~(with_.get(u, 0) | u)
            while unseen:
                x = unseen & -unseen
                unseen ^= x
                # T = U + {x} is not recorded under U; look under T - {y}
                t, rest = u | x, u
                while rest:
                    y = rest & -rest
                    rest ^= y
                    if with_.get(t ^ y, 0) & y:
                        break
                else:
                    return True
        return False


def _subsets_holding(gained: State, fs: State, k: int) -> list[State]:
    """The subsets of `fs` with 2..k-1 atoms that hold an atom of `gained`,
    as masks; each comes once, with its lowest atom of `gained`."""
    rest = []
    while fs:
        low = fs & -fs
        rest.append(low)
        fs ^= low
    subsets = []
    while gained:
        g = gained & -gained
        gained ^= g
        rest.remove(g)
        subsets += [g | b for b in rest]
        for r in range(2, k - 1):  # distinct bits: their sum is their union
            subsets += [g | sum(c) for c in combinations(rest, r)]
    return subsets


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
    pred, _, argtext = text[:-1].partition("(")
    args = tuple(a.strip().lower() for a in argtext.split(",")) if argtext.strip() else ()
    if not text.endswith(")") or text.count("(") != 1 or text.count(")") != 1 or "" in args:
        raise TupleSetError(f"line {lineno}: malformed atom '{text}'")
    pred = pred.strip().lower()
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
