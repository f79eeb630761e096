"""Instantiate schema-level domain/problem ASTs into a GroundProblem.

Actions are enumerated in lexicographic (schema, args) order over the
bindings that a join of the schema's static preconditions (those on a
predicate never occurring in any effect) against the initial facts admits,
with every parameter inside its argument domain: a parameter ranges over
the values of its domain that some initial fact allows it, given the earlier
parameters, and over its whole domain when no static precondition mentions
it.  A binding is dropped when it mentions a repeated-argument atom or when
it adds and deletes the same atom.

The argument domains come from a fixpoint over predicate positions, run
before the join (see `_argument_domains`).  They bound the objects a
parameter can take in any binding that the delete relaxation can apply, so
the join yields only bindings the relaxed reachable problem may need, not
every object tuple of a schema without static preconditions.

No atom universe is built.  The join interns each atom a binding mentions,
and one relaxed fixpoint from the initial facts, which ignores deletes,
finds the atoms that can be true and the actions that can be applied
(Helmert, *Concise finite-domain representations for PDDL planning tasks*,
AIJ 2009).  Only those atoms, plus every goal atom, are numbered, in
lexicographic (predicate, args) order; only those actions are kept, in
enumeration order.  Static facts are initial facts, so they stay atoms true
in every state.  Deleting an atom that is never true does nothing, so
delete masks keep the atoms that can be true.
"""

from __future__ import annotations

from operator import itemgetter

from .pddl import DomainAst, ProblemAst
from .strips import GroundAction, GroundAtom, GroundProblem, state_from_atoms


class GroundingError(ValueError):
    pass


def ground(domain: DomainAst, problem: ProblemAst) -> GroundProblem:
    if problem.domain_name != domain.name:
        raise GroundingError(
            f"problem '{problem.name}' references domain '{problem.domain_name}', "
            f"not '{domain.name}'"
        )

    objects = tuple(sorted(problem.objects))
    arity = dict(domain.predicates)
    atoms = _Interned(arity)

    fluent = {a.predicate for s in domain.schemas for a in s.add + s.delete}
    static_facts: dict[str, set[tuple[str, ...]]] = {
        p: set() for p in arity if p not in fluent
    }
    known = set(objects)
    init_ids = []
    for ga in problem.init:
        init_ids.append(_ground_atom(atoms, known, ga, "init"))
        if ga.predicate in static_facts:
            static_facts[ga.predicate].add(ga.args)
    goal_pos, goal_neg = (
        [_ground_atom(atoms, known, ga, "goal") for ga in part]
        for part in (problem.goal_pos, problem.goal_neg)
    )
    if set(goal_pos) & set(goal_neg):
        raise GroundingError("goal contains an atom both positively and negatively")

    domains = _argument_domains(domain.schemas, arity, problem.init, objects)
    # (schema name, args, pre, add, delete) per binding, atoms as interned ids
    bound: list[tuple[str, tuple[str, ...], list[int], list[int], list[int]]] = []
    yielded = 0
    for schema in sorted(domain.schemas, key=lambda s: s.name):
        if domains[schema.name] is None:
            continue  # no binding of it can be relaxed-applicable
        position = {v: i for i, v in enumerate(schema.params)}
        mentions = [
            (a.predicate, tuple(position[v] for v in a.args))
            for a in schema.pre + schema.add + schema.delete
        ]
        lookups = [(atoms.table[p], _key_getter(positions)) for p, positions in mentions]
        n_pre, n_add = len(schema.pre), len(schema.add)
        # only atoms of one predicate can coincide
        may_clash = not {a.predicate for a in schema.add}.isdisjoint(
            a.predicate for a in schema.delete
        )
        for args in _bindings(schema, position, domains[schema.name], static_facts):
            yielded += 1
            ids = [table.get(key(args)) for table, key in lookups]
            if None in ids:
                ids = [
                    atoms.add(p, tuple(args[i] for i in positions)) if aid is None else aid
                    for aid, (p, positions) in zip(ids, mentions)
                ]
                if None in ids:
                    continue  # mentions a repeated-argument atom: statically impossible
            pre, add, delete = ids[:n_pre], ids[n_pre:n_pre + n_add], ids[n_pre + n_add:]
            if may_clash and not set(add).isdisjoint(delete):
                continue  # degenerate binding adding and deleting one atom
            bound.append((schema.name, args, pre, add, delete))

    true, applicable = _relaxed_fixpoint(len(atoms.keys), init_ids, bound)
    keys = atoms.keys
    numbered = sorted(
        {aid for aid, t in enumerate(true) if t}.union(goal_pos, goal_neg),
        key=keys.__getitem__,
    )
    number = dict(zip(numbered, range(len(numbered))))
    # the mask bit of each interned atom that can be true, 0 for the others
    bit = [1 << number[aid] if t else 0 for aid, t in enumerate(true)]

    actions = []
    for i in applicable:
        name, args, pre, add, delete = bound[i]
        actions.append(GroundAction(
            len(actions), name, args, _mask(pre, bit), _mask(add, bit), _mask(delete, bit)
        ))

    return GroundProblem(
        name=problem.name,
        atoms=tuple(GroundAtom(i, *keys[aid]) for i, aid in enumerate(numbered)),
        actions=tuple(actions),
        init=state_from_atoms(number[aid] for aid in init_ids),
        goal_pos=state_from_atoms(number[aid] for aid in goal_pos),
        goal_neg=state_from_atoms(number[aid] for aid in goal_neg),
        objects=objects,
        predicates=arity,
        bindings=yielded,
    )


class _Interned:
    """Atoms met so far, by interned id.  `table[predicate]` maps the key of
    an atom's args (see `_key_getter`) to its id; `keys[id]` is (predicate,
    args)."""

    def __init__(self, arity: dict[str, int]):
        self.arity = arity
        self.table: dict[str, dict] = {p: {} for p in arity}
        self.keys: list[tuple[str, tuple[str, ...]]] = []

    def add(self, predicate: str, args: tuple[str, ...]) -> int | None:
        """Id of predicate(args), interned on first sight; None when an
        argument repeats, which no atom does."""
        key = args[0] if self.arity[predicate] == 1 else args
        aid = self.table[predicate].get(key)
        if aid is None:
            if len(set(args)) < len(args):
                return None
            aid = self.table[predicate][key] = len(self.keys)
            self.keys.append((predicate, args))
        return aid


def _key_getter(positions: tuple[int, ...]):
    """args -> the key of the atom over these parameter positions: the one
    object for a unary atom, else the tuple of objects."""
    if not positions:
        return lambda args: ()
    return itemgetter(*positions)


def _ground_atom(atoms: _Interned, objects: set[str], ga, where: str) -> int:
    arity = atoms.arity.get(ga.predicate)
    if arity is None:
        raise GroundingError(f"{where} atom uses undeclared predicate '{ga.predicate}'")
    if arity != len(ga.args):
        raise GroundingError(
            f"{where} atom {ga.predicate}({','.join(ga.args)}) has arity {len(ga.args)}, "
            f"declared {arity}"
        )
    aid = atoms.add(ga.predicate, ga.args) if objects.issuperset(ga.args) else None
    if aid is None:
        raise GroundingError(
            f"{where} atom {ga.predicate}({','.join(ga.args)}) names an unknown object "
            "or repeats an argument"
        )
    return aid


def _mask(ids: list[int], bit: list[int]) -> int:
    mask = 0
    for aid in ids:
        mask |= bit[aid]
    return mask


def _relaxed_fixpoint(n_atoms, init_ids, bound) -> tuple[bytearray, list[int]]:
    """Atoms true in some state of the delete relaxation from `init_ids`, as
    flags by interned id, and the indices into `bound` of the bindings
    applicable there, ascending.  Each binding counts its preconditions not
    yet true; a precondition listed twice is counted, and met, twice."""
    true = bytearray(n_atoms)
    waiting: list[list[int]] = [[] for _ in range(n_atoms)]
    missing = []
    for i, entry in enumerate(bound):
        pre = entry[2]
        missing.append(len(pre))
        for aid in pre:
            waiting[aid].append(i)
    ready = [i for i, m in enumerate(missing) if not m]
    frontier = []
    for aid in init_ids:
        if not true[aid]:
            true[aid] = 1
            frontier.append(aid)
    applicable = []
    while True:
        for i in ready:
            applicable.append(i)
            for aid in bound[i][3]:
                if not true[aid]:
                    true[aid] = 1
                    frontier.append(aid)
        if not frontier:
            break
        ready = []
        for aid in frontier:
            for i in waiting[aid]:
                missing[i] -= 1
                if not missing[i]:
                    ready.append(i)
        frontier = []
    applicable.sort()
    return true, applicable


def _argument_domains(schemas, arity, init, objects):
    """The argument domain of every schema parameter: by schema name, one set
    of objects per parameter, or None for a schema none of whose bindings
    can be relaxed-applicable.

    A least fixpoint over predicate positions.  Position k of predicate p
    starts with the objects that initial facts put there.  A parameter's
    domain is the intersection of the domains of the precondition positions
    it fills, or all objects when it fills none.  A schema is live when every
    parameter's domain is nonempty and every predicate of its preconditions
    has an atom that can be true.  Each add-effect position of a live schema
    gains the domain of the parameter that fills it, and the predicate of
    each of its add effects gets an atom that can be true.

    The domains are sound: by induction on the rounds of the relaxed
    fixpoint, every atom that can be true has its predicate in `possible`
    and each argument inside its position's domain.  Initial facts do from
    the start.  A relaxed-applicable binding has every precondition true, so
    each parameter's value lies in every precondition position the
    parameter fills, hence in its domain, and the schema is live; an atom it
    adds holds at each position the value of the parameter filling it, which
    the position's domain has gained.  So every relaxed-applicable binding
    has each parameter inside its domain, and a join restricted to the
    domains loses no kept action and no numbered atom: the ground model is
    the same.
    """
    rows: dict[str, list[tuple[str, ...]]] = {}
    for ga in init:
        rows.setdefault(ga.predicate, []).append(ga.args)
    possible = set(rows)  # predicates with an atom that can be true
    at = {p: [set() for _ in range(n)] for p, n in arity.items()}
    for p, args in rows.items():
        for target, column in zip(at[p], zip(*args)):
            target.update(column)
    everything = set(objects)
    # per schema: the precondition position domains each parameter fills,
    # the precondition predicates, and (predicate, [(position domain,
    # parameter)]) per add effect
    plans = []
    for schema in schemas:
        position = {v: i for i, v in enumerate(schema.params)}
        fills: list[list[set[str]]] = [[] for _ in schema.params]
        for atom in schema.pre:
            for k, v in enumerate(atom.args):
                fills[position[v]].append(at[atom.predicate][k])
        adds = [
            (a.predicate, [(at[a.predicate][k], position[v]) for k, v in enumerate(a.args)])
            for a in schema.add
        ]
        plans.append((schema.name, fills, {a.predicate for a in schema.pre}, adds))

    domains: dict[str, list[set[str]] | None] = {}
    grown = True
    while grown:
        grown = False
        for name, fills, needs, adds in plans:
            doms = [set.intersection(*sets) if sets else everything for sets in fills]
            if not (all(doms) and possible.issuperset(needs)):
                domains[name] = None
                continue
            domains[name] = doms
            for predicate, targets in adds:
                if predicate not in possible:
                    possible.add(predicate)
                    grown = True
                for target, i in targets:
                    if not doms[i] <= target:
                        target |= doms[i]
                        grown = True
    return domains


def _bindings(schema, position, domains, static_facts):
    """Parameter tuples of `schema`, in lexicographic order, with every
    parameter inside its argument domain (`domains`, see
    `_argument_domains`), under which every static precondition is an
    initial fact.

    Backtracks over the parameters in declared order.  joins[i] holds one
    (earlier, options) pair per static precondition mentioning parameter i:
    `options` maps the values of that precondition's parameters before i
    (positions `earlier`) to the sorted values of i's domain that i may take
    in some matching initial fact.  At a precondition's last parameter this
    admits exactly the bindings inside the domains that make it an initial
    fact.  A parameter that no static precondition mentions ranges over its
    whole domain.  `schema` is live, so a 0-ary static precondition is an
    initial fact and needs no join.
    """
    n = len(schema.params)
    joins: list[list] = [[] for _ in range(n)]
    for atom in schema.pre:
        facts = static_facts.get(atom.predicate)
        if facts is None:
            continue  # fluent precondition
        positions = [position[v] for v in atom.args]
        if len(set(positions)) < len(positions):
            return  # a repeated variable: no initial fact repeats an object
        matches = [dict(zip(positions, fact)) for fact in facts]
        mentioned = sorted(positions)
        for rank, i in enumerate(mentioned):
            earlier = mentioned[:rank]
            options: dict[tuple[str, ...], set[str]] = {}
            for value in matches:
                options.setdefault(tuple(value[j] for j in earlier), set()).add(value[i])
            joins[i].append((earlier, {k: sorted(v & domains[i]) for k, v in options.items()}))

    args: list[str] = [""] * n
    free = [None if joins[i] else sorted(domains[i]) for i in range(n)]

    def extend(i):
        if i == n:
            yield tuple(args)
            return
        if joins[i]:
            found = [options.get(tuple(args[j] for j in earlier), ())
                     for earlier, options in joins[i]]
            candidates = found[0]
            if len(found) > 1:
                candidates = sorted(set(candidates).intersection(*found[1:]))
        else:
            candidates = free[i]
        for o in candidates:
            args[i] = o
            yield from extend(i + 1)

    yield from extend(0)
