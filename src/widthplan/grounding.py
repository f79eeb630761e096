"""Instantiate schema-level domain/problem ASTs into a GroundProblem.

Atoms are enumerated for every predicate over injective object tuples in
lexicographic (predicate, args) order.  Actions are enumerated in
lexicographic (schema, args) order over the bindings that a join of the
schema's static preconditions (those on a predicate never occurring in
any effect) against the initial facts admits: a parameter ranges over the
values some initial fact allows it, given the earlier parameters, and over
all objects when no static precondition mentions it.  A binding is then
dropped when it mentions an atom outside the universe (a repeated-argument
instantiation) or when it adds and deletes the same atom.
"""

from __future__ import annotations

from itertools import permutations

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

    atoms: list[GroundAtom] = []
    index: dict[tuple[str, tuple[str, ...]], int] = {}
    for pred, arity in sorted(domain.predicates):
        if arity == 0:
            index[(pred, ())] = len(atoms)
            atoms.append(GroundAtom(len(atoms), pred, ()))
            continue
        for args in permutations(objects, arity):
            index[(pred, args)] = len(atoms)
            atoms.append(GroundAtom(len(atoms), pred, args))

    fluent = {a.predicate for s in domain.schemas for a in s.add + s.delete}
    static_facts: dict[str, set[tuple[str, ...]]] = {
        p: set() for p, _ in domain.predicates if p not in fluent
    }

    init_ids = []
    for ga in problem.init:
        aid = _lookup(index, ga.predicate, ga.args, domain, "init")
        init_ids.append(aid)
        if ga.predicate in static_facts:
            static_facts[ga.predicate].add(ga.args)
    init = state_from_atoms(init_ids)

    actions: list[GroundAction] = []
    for schema in sorted(domain.schemas, key=lambda s: s.name):
        position = {v: i for i, v in enumerate(schema.params)}
        pre, add, delete = (
            [(a.predicate, tuple(position[v] for v in a.args)) for a in part]
            for part in (schema.pre, schema.add, schema.delete)
        )
        for args in _bindings(schema, position, objects, static_facts):
            pre_mask = _mask(pre, args, index)
            add_mask = _mask(add, args, index)
            del_mask = _mask(delete, args, index)
            if pre_mask is None or add_mask is None or del_mask is None:
                continue  # mentions a repeated-argument atom: statically impossible
            if add_mask & del_mask:
                continue  # degenerate binding adding and deleting one atom
            actions.append(
                GroundAction(len(actions), schema.name, args, pre_mask, add_mask, del_mask)
            )

    goal_pos = state_from_atoms(
        _lookup(index, ga.predicate, ga.args, domain, "goal") for ga in problem.goal_pos
    )
    goal_neg = state_from_atoms(
        _lookup(index, ga.predicate, ga.args, domain, "goal") for ga in problem.goal_neg
    )
    if goal_pos & goal_neg:
        raise GroundingError("goal contains an atom both positively and negatively")

    return GroundProblem(
        name=problem.name,
        atoms=tuple(atoms),
        actions=tuple(actions),
        init=init,
        goal_pos=goal_pos,
        goal_neg=goal_neg,
        objects=objects,
    )


def _lookup(index, predicate, args, domain: DomainAst, where: str) -> int:
    aid = index.get((predicate, args))
    if aid is None:
        arity = domain.arity(predicate)
        if arity is None:
            raise GroundingError(f"{where} atom uses undeclared predicate '{predicate}'")
        if arity != len(args):
            raise GroundingError(
                f"{where} atom {predicate}({','.join(args)}) has arity {len(args)}, "
                f"declared {arity}"
            )
        raise GroundingError(
            f"{where} atom {predicate}({','.join(args)}) is not in the ground universe"
        )
    return aid


def _bindings(schema, position, objects, static_facts):
    """Parameter tuples of `schema`, in lexicographic order, under which
    every static precondition is an initial fact.

    Backtracks over the parameters in declared order.  joins[i] holds one
    (earlier, options) pair per static precondition mentioning parameter i:
    `options` maps the values of that precondition's parameters before i
    (positions `earlier`) to the sorted values i may take in some matching
    initial fact.  At a precondition's last parameter this admits exactly
    the bindings that make it an initial fact.
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
        if not positions:
            if () not in facts:
                return  # 0-ary static precondition false in init
            continue
        matches = [dict(zip(positions, fact)) for fact in facts]
        mentioned = sorted(positions)
        for rank, i in enumerate(mentioned):
            earlier = mentioned[:rank]
            options: dict[tuple[str, ...], set[str]] = {}
            for value in matches:
                options.setdefault(tuple(value[j] for j in earlier), set()).add(value[i])
            joins[i].append((earlier, {k: sorted(v) for k, v in options.items()}))

    args: list[str] = [""] * n

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
            candidates = objects
        for o in candidates:
            args[i] = o
            yield from extend(i + 1)

    yield from extend(0)


def _mask(compiled, args, index) -> int | None:
    """OR of the atoms (predicate, parameter positions) under `args`, or None
    when one of them is outside the universe."""
    mask = 0
    for predicate, positions in compiled:
        aid = index.get((predicate, tuple(args[p] for p in positions)))
        if aid is None:
            return None
        mask |= 1 << aid
    return mask
