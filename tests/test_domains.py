"""Generated bundles: parse, ground, solve, and family-specific shape."""

import re
import zlib

import pytest

from widthplan import bfs_optimal, domains, is_goal, replay
from widthplan.cli import main
from widthplan.domains import DomainError, generate
from widthplan.features import compile_feature, parse_features
from widthplan.novelty import parse_tuple_set
from widthplan.oracle import OracleError, enumerate_space, lower_bound_witness
from widthplan.siw import run_policy
from widthplan.sketches import parse_sketch
from widthplan.strips import atoms_of
from tests.conftest import ground_bundle

DEFAULTS = [
    domains.blocks_clear(3),
    domains.blocks_clear(2, holding="y"),
    domains.blocks_on(2, 1),
    domains.blocks([["a", "b"], ["c"]], ("on", "c", "a")),
    domains.grid(4, 3, 1, 12),
    domains.grid2(4, 3, (1, 1), (4, 3)),
    domains.delivery(3, 3, [3, 8], target=1, start=5),
    domains.marbles([2, 1]),
    domains.hanoi(3),
]


@pytest.mark.parametrize("bundle", DEFAULTS, ids=lambda b: b.family)
def test_bundle_parses_grounds_and_solves(bundle):
    g = ground_bundle(bundle)
    result = bfs_optimal(g, max_nodes=200_000)
    assert result.solved
    assert is_goal(g, replay(g, result.plan)[-1])
    if bundle.features_text:
        phi = parse_features(bundle.features_text)
        phi.valuation(g, g.init)
    for text in bundle.sketches.values():
        parse_sketch(text)
    for text in bundle.tuple_sets.values():
        parse_tuple_set(text, g)


@pytest.mark.parametrize("bundle", DEFAULTS, ids=lambda b: b.family)
def test_flip_bound(bundle):
    g = ground_bundle(bundle)
    cap = 6 if bundle.family == "hanoi" else 5  # parity pair costs one extra flip
    for act in g.actions:
        flips = len(atoms_of(act.add)) + len(atoms_of(act.delete))
        assert flips <= cap, str(act)


def test_delivery_goal_is_target_conjunction():
    bundle = domains.delivery(3, 3, [3, 8], target=1, start=5)
    g = ground_bundle(bundle)
    goal_atoms = {str(g.atoms[i]) for i in atoms_of(g.goal_pos)}
    assert goal_atoms == {"ppos(p1,c1)", "ppos(p2,c1)"}


def test_marbles_goal_all_negative():
    g = ground_bundle(domains.marbles([1, 2]))
    assert g.goal_pos == 0 and g.goal_neg != 0
    space = enumerate_space(g)
    with pytest.raises(OracleError):
        lower_bound_witness(space, 1)


def test_hanoi_policy_solves_in_minimum_moves(hanoi3):
    g, bundle = hanoi3
    run = run_policy(g, parse_sketch(bundle.sketches["policy"]), parse_features(bundle.features_text))
    assert run.reached_goal and len(run.actions) == 7


def test_hanoi_odd_rejects_even():
    with pytest.raises(DomainError):
        domains.hanoi_odd(2)


def test_blocks_clear_held_variant_tuple_set():
    bundle = domains.blocks_clear(2, holding="y")
    g = ground_bundle(bundle)
    tuples = parse_tuple_set(bundle.tuple_sets["walk"], g)
    assert any(str(g.atoms[t[0]]) == "ontable(y)" for t in tuples.tuples if len(t) == 1)


def test_generate_dispatch(tmp_path):
    bundle = generate("grid", {"width": "3", "height": "1", "start": "1", "goal": "3"})
    assert bundle.family == "grid"
    bundle = generate("marbles", {"counts": "2,1"})
    assert bundle.family == "marbles"
    with pytest.raises(DomainError):
        generate("nope", {})
    with pytest.raises(DomainError):
        generate("grid", {"width": "3"})


def test_invalid_specs_rejected():
    with pytest.raises(DomainError):
        domains.grid(2, 2, 0, 4)
    with pytest.raises(DomainError):
        domains.blocks([["a", "a"]], ("clear", "a"))
    with pytest.raises(DomainError, match="empty tower"):
        domains.blocks([[]], ("clear", "a"))
    with pytest.raises(DomainError):
        domains.marbles([])
    with pytest.raises(DomainError):
        domains.hanoi(3, 1, 1)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("grid2", {"width": "3", "height": "3", "start": "0,0", "goal": "3,3"}, "out of range"),
        ("grid2", {"width": "3", "height": "3", "start": "1,1", "goal": "4,4"}, "out of range"),
        ("grid", {"width": "-2", "height": "-3", "start": "1", "goal": "6"}, "width and height"),
        ("delivery", {"width": "0", "height": "2", "packages": "1", "target": "1", "start": "1"},
         "width and height"),
        ("blocks-on", {"l": "-1", "m": "2"}, "non-negative"),
        ("blocks-on", {"l": "1", "m": "-3"}, "non-negative"),
        ("blocks", {"towers": "a.b;c", "goal": "on:a:z"}, "no tower"),
        ("blocks", {"towers": "a.b", "goal": "clear:c"}, "no tower"),
        ("blocks", {"towers": "a.b", "goal": "on:a:a"}, "unsupported"),
        ("blocks", {"towers": "a.;b", "goal": "clear:a"}, "bad block name"),
        ("blocks", {"towers": "a b", "goal": "clear:a"}, "bad block name"),
        ("blocks", {"towers": "a.B", "goal": "clear:a"}, "bad block name"),
        ("blocks-clear", {"l": "2", "held": "(x"}, "bad block name"),
        ("hanoi", {"n": "3", "form": "2"}, "unknown parameter 'form' for family 'hanoi'"),
        ("grid", {"width": "3", "height": "1", "start": "1", "goal": "3", "l": "1"},
         "unknown parameter 'l'"),
        # an integer parameter names itself and the text it got
        ("grid2", {"width": "3", "height": "3", "start": "1", "goal": "2,2"},
         "^parameter 'start' needs two comma-separated integers, got '1'$"),
        ("grid2", {"width": "3", "height": "3", "start": "1,1,1", "goal": "2,2"},
         "^parameter 'start' needs two comma-separated integers, got '1,1,1'$"),
        ("grid2", {"width": "x", "height": "3", "start": "1,1", "goal": "2,2"},
         "^parameter 'width' needs an integer, got 'x'$"),
        ("blocks-on", {"l": "1,2", "m": "2"}, "^parameter 'l' needs an integer, got '1,2'$"),
        ("delivery", {"width": "3", "height": "3", "packages": "1,x", "target": "1", "start": "1"},
         "^parameter 'packages' needs comma-separated integers, got '1,x'$"),
        # an empty item is a typo, not a skipped value
        ("marbles", {"counts": "2,,1,"}, "^parameter 'counts' needs comma-separated integers, got '2,,1,'$"),
        ("marbles", {"counts": "2,1,"}, "^parameter 'counts' needs comma-separated integers, got '2,1,'$"),
        ("marbles", {"counts": ",2"}, "^parameter 'counts' needs comma-separated integers, got ',2'$"),
        ("delivery", {"width": "3", "height": "3", "packages": "3,,8", "target": "1", "start": "1"},
         "^parameter 'packages' needs comma-separated integers, got '3,,8'$"),
        ("grid", {"width": "", "height": "3", "start": "1", "goal": "2"},
         "^parameter 'width' needs an integer, got ''$"),
        ("blocks-clear", {"l": "0"}, "^height must be >= 1$"),
    ],
)
def test_generate_rejects_bad_input(family, params, message, tmp_path, capsys):
    with pytest.raises(DomainError, match=message):
        generate(family, params)
    # the command line names the same fault on one line and writes nothing
    argv = ["gen", "--family", family, "--params", *(f"{k}={v}" for k, v in params.items())]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err[len("error: "):-1])
    assert not any(tmp_path.iterdir())


def test_generate_reads_an_empty_list_as_no_items():
    # no package would leave the feature `u` naming no object
    with pytest.raises(DomainError, match="at least one package"):
        generate("delivery", {"width": "2", "height": "2", "packages": "", "target": "1", "start": "1"})
    with pytest.raises(DomainError, match="at least one box"):
        generate("marbles", {"counts": ""})


def test_blocks_goal_on_held_block_accepted():
    g = ground_bundle(generate("blocks", {"towers": "a.b", "goal": "on:c:a", "held": "c"}))
    assert bfs_optimal(g).solved


def test_bundled_features_compile_on_every_default_instance():
    assert {bundle.family for bundle in DEFAULTS} == set(domains.FAMILY_PARAMS)
    for bundle in DEFAULTS:
        if bundle.features_text is None:
            continue
        g = ground_bundle(bundle)
        for feature in parse_features(bundle.features_text):
            compile_feature(feature, g)


def _sweep():
    """(family, params) draws through `generate` covering every family and
    every optional parameter."""
    for l in range(1, 5):
        yield "blocks-clear", {"l": str(l)}
        yield "blocks-clear", {"l": str(l), "held": "y"}
    for l in range(3):
        for m in range(3):
            yield "blocks-on", {"l": str(l), "m": str(m)}
    yield "blocks", {"towers": "a.b;c", "goal": "on:c:a"}
    yield "blocks", {"towers": "a.b.c", "goal": "clear:a"}
    yield "blocks", {"towers": "a.b", "goal": "on:c:a", "held": "c"}
    yield "blocks", {"towers": "a;b;c-1", "goal": "on:a:c-1", "held": "d_2"}
    for w in range(1, 5):
        for h in range(1, 4):
            n = w * h
            yield "grid", {"width": str(w), "height": str(h), "start": "1", "goal": str(n)}
            yield "grid2", {"width": str(w), "height": str(h), "start": "1,1",
                            "goal": f"{w},{h}"}
            yield "delivery", {"width": str(w), "height": str(h), "packages": str(n),
                               "target": "1", "start": str((n + 1) // 2)}
            if n > 2:
                yield "delivery", {"width": str(w), "height": str(h), "packages": f"2,{n},3",
                                   "target": str(n - 1), "start": "1"}
    for counts in ("0", "1", "2,1", "0,2", "3,0,1", "0,0", "2,2,2"):
        yield "marbles", {"counts": counts}
    for n in range(1, 5):
        yield "hanoi", {"n": str(n)}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    yield "hanoi", {"n": str(n), "from": str(a), "to": str(b)}


def test_generated_texts_are_pinned():
    """One CRC32 over every text the sweep writes: domain, problem,
    features, sketches and tuple sets, in the order the bundle holds them."""
    crc, count = 0, 0
    for family, params in _sweep():
        bundle = generate(family, params)
        texts = [bundle.family, bundle.domain_text, bundle.problem_text,
                 bundle.features_text or ""]
        for kind in (bundle.sketches, bundle.tuple_sets):
            for key, text in kind.items():
                texts += [key, text]
        for text in texts:
            crc = zlib.crc32(text.encode(), crc)
            count += 1
    assert (count, crc) == (974, 920596551)
