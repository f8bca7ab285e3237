"""Models: truth clauses, belief change, postulate checks, bridges."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from artifact import model
from artifact.formula import And, Atom, Believes, Box, Cond, Iff, Implies, Not, Or, parse
from artifact.frame import Frame, FrameFormatError, check_property, enumerate_frames, sample_frame
from artifact.schema import KM_IDS
from artifact.model import (
    KM_AXIOM_IDS,
    NonSeparatingValuationError,
    Model,
    UnvaluedAtomError,
    check_km_axiom,
    check_km_axiom_via_formulas,
    compile_conjunctions,
    denotation,
    holds_at,
    km_formula_instances,
    make_model,
    model_from_json,
    model_to_json,
    truth_set,
)

# Both states believe {0,1}; conditioning on {0,1} picks out the actual
# state, conditioning on a singleton returns it unchanged.
POINTED = Frame(2, (3, 3), ((1, 2, 1), (1, 2, 2)))
M = make_model(POINTED, {"p": 0b11, "q": 0b01})

# B(0)={0} and f(0,{0}) is empty.
GAPPY = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))


def _random_formula(rng: random.Random, depth: int, atoms=("p", "q")):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(7)
    a = _random_formula(rng, depth - 1, atoms)
    if pick == 0:
        return Not(a)
    if pick == 1:
        return Believes(a)
    if pick == 2:
        return Box(a)
    b = _random_formula(rng, depth - 1, atoms)
    if pick == 3:
        return Or(a, b)
    if pick == 4:
        return And(a, b)
    if pick == 5:
        return Implies(a, b)
    return Cond(a, b)


# -- truth clauses -----------------------------------------------------------

def test_truth_set_examples():
    assert truth_set(M, parse("q | ~q")) == 0b11
    assert truth_set(M, parse("(p > q)")) == 0b01
    assert truth_set(M, parse("[]p")) == 0b11
    assert truth_set(M, parse("[]q")) == 0
    assert truth_set(M, parse("B p")) == 0b11
    assert truth_set(M, parse("B q")) == 0
    assert holds_at(M, 0, parse("B p"))
    assert not holds_at(M, 1, parse("(p > q)"))


def test_vacuous_conditional():
    rng = random.Random(3)
    contradiction = parse("q & ~q")
    assert truth_set(M, contradiction) == 0
    for _ in range(100):
        beta = _random_formula(rng, 3)
        assert truth_set(M, Cond(contradiction, beta)) == 0b11


def test_conditional_uses_per_state_selection():
    # f(0,{0,1})={0} but f(1,{0,1})={1}: the conditional's truth varies by state
    assert truth_set(M, parse("(p > q)")) == 0b01
    assert truth_set(M, parse("(p > ~q)")) == 0b10


def test_boolean_homomorphism():
    rng = random.Random(4)
    full = M.frame.full
    for _ in range(1000):
        f = _random_formula(rng, 3)
        g = _random_formula(rng, 2)
        assert truth_set(M, Not(f)) == full & ~truth_set(M, f)
        assert truth_set(M, Or(f, g)) == truth_set(M, f) | truth_set(M, g)
        assert truth_set(M, And(f, g)) == truth_set(M, f) & truth_set(M, g)


def test_unvalued_atom():
    with pytest.raises(UnvaluedAtomError):
        truth_set(M, parse("r | p"))


def test_metavariable_rejected():
    from artifact.formula import mv
    with pytest.raises(ValueError, match="metavariable"):
        truth_set(M, Believes(mv("PHI")))
    # a schema binding that leaves a metavariable unbound
    with pytest.raises(ValueError, match="metavariable PSI"):
        denotation(POINTED, Cond(mv("PHI"), mv("PSI")), {"PHI": 0b01})


# -- belief change -----------------------------------------------------------

def test_update_examples():
    assert POINTED.update(0, 0b11) == 0b11      # union of {0} and {1}
    assert POINTED.update(0, 0b01) == 0b01
    empty_sel = Frame(2, (3, 3), ((0, 0, 0), (0, 0, 0)))
    assert empty_sel.update(0, 0b11) == 0
    with pytest.raises(ValueError, match="empty event"):
        POINTED.update(0, 0)


# Each state believes only itself. A tuple lookup would wrap a negative
# state or event round to another one's answer.
IDENTITY_BELIEF = Frame(2, (1, 2), ((0, 2, 1), (1, 2, 3)))


def test_states_and_events_outside_the_frame_are_refused():
    fr = IDENTITY_BELIEF
    for s, event in ((-1, 1), (-1, 3), (0, -1), (2, 1), (0, 4)):
        with pytest.raises(ValueError, match="out of range"):
            fr.update(s, event)
    for belief, event in ((-1, 1), (0b100, 1), (0b11, -1), (0b11, 0b100)):
        with pytest.raises(ValueError, match="out of range"):
            fr.lift(belief, event)
    # an empty belief event is no belief set at all
    for event in (1, 3):
        with pytest.raises(ValueError, match="empty belief-set event"):
            fr.lift(0, event)


def test_update_stays_in_universe():
    rng = random.Random(6)
    for _ in range(50):
        fr = sample_frame(3, rng)
        for s in range(3):
            for e in range(1, 8):
                assert fr.update(s, e) & ~fr.full == 0


def test_membership_is_subset_test():
    # psi in the changed set at s iff U(s, den(phi)) is inside den(psi)
    e_phi = truth_set(M, parse("p"))
    e_psi = truth_set(M, parse("q"))
    changed = POINTED.update(0, e_phi)
    assert (changed & ~e_psi == 0) == holds_at(M, 0, parse("B(p > q)"))


@dataclass(frozen=True, slots=True)
class BeliefState:
    model: Model
    s: int
    belief_event: int


def belief_state(m: Model, s: int) -> BeliefState:
    return BeliefState(m, s, m.frame.belief[s])


def test_belief_state_consistent():
    st = belief_state(M, 1)
    assert st.belief_event == 0b11
    assert st.belief_event != 0


# -- event-level postulate checks --------------------------------------------

def test_check_km_axiom_examples():
    assert check_km_axiom(POINTED, 0, "K_diamond_1") == (True, None)
    assert check_km_axiom(GAPPY, 0, "K_diamond_2") == (False, (0b01,))
    assert check_km_axiom(GAPPY, 0, "K_diamond_3b") == (False, (0b01,))
    for a in ("K_diamond_0", "K_diamond_3a", "K_diamond_4"):
        assert check_km_axiom(GAPPY, 0, a) == (True, None)
    with pytest.raises(ValueError, match="unknown update postulate"):
        check_km_axiom(POINTED, 0, "K_diamond_9")
    with pytest.raises(ValueError, match="out of range"):
        check_km_axiom(POINTED, 2, "K_diamond_1")


_PAIRED = {
    "K_diamond_1": "P_star_2_diamond_1",
    "K_diamond_2": "P_diamond_2",
    "K_diamond_3b": "P_star_5b_diamond_3b",
    "K_diamond_5": "P_star_7_diamond_5",
    "K_diamond_6w": "P_diamond_6w",
    "K_diamond_7s": "P_diamond_7s",
}


def test_km_checks_match_frame_properties():
    frames = list(itertools.islice(enumerate_frames(2), 0, 36864, 431))
    rng = random.Random(8)
    frames += [sample_frame(3, rng) for _ in range(60)]
    for fr in frames:
        for axiom, prop in _PAIRED.items():
            reports = [(s, check_km_axiom(fr, s, axiom)) for s in range(fr.n)]
            first = next(((s, *cex) for s, (holds, cex) in reports if not holds), None)
            assert check_property(fr, prop) == (first is None, first), (fr, axiom)


# -- characteristic formulas -------------------------------------------------

def _characteristic(m: Model, event: int):
    return model._characteristic(m.frame.n, m.valuation, event)


def test_characteristic_formula_shapes():
    m = make_model(POINTED, {"p": 0b01})
    assert _characteristic(m, 0b10) == Not(Atom("p"))
    assert _characteristic(m, 0b01) == Atom("p")
    assert truth_set(m, _characteristic(m, 0b11)) == 0b11
    assert truth_set(m, _characteristic(m, 0)) == 0


def test_characteristic_formula_covers_all_events():
    rng = random.Random(12)
    for _ in range(20):
        fr = sample_frame(3, rng)
        m = make_model(fr, {"p": 0b011, "q": 0b101})
        for e in range(8):
            assert truth_set(m, _characteristic(m, e)) == e


def test_characteristic_formula_needs_separation():
    m = make_model(POINTED, {"p": 0b11})
    with pytest.raises(NonSeparatingValuationError):
        _characteristic(m, 0b01)
    bare = make_model(POINTED, {})
    with pytest.raises(NonSeparatingValuationError):
        _characteristic(bare, 0b01)


# -- the two layers agree ----------------------------------------------------

def test_formula_twin_agrees_on_sampled_frames():
    for val in ({"p": 0b01}, {"p": 0b10}):
        instances = km_formula_instances(2, val)
        for fr in itertools.islice(enumerate_frames(2), 0, 36864, 601):
            m = make_model(fr, val)
            for a in KM_AXIOM_IDS:
                for s in range(2):
                    assert check_km_axiom(fr, s, a)[0] == \
                        check_km_axiom_via_formulas(m, s, a, instances), (fr, a, s)


def test_formula_twin_default_instances():
    m = make_model(GAPPY, {"p": 0b01})
    instances = km_formula_instances(2, {"p": 0b01})
    assert not check_km_axiom_via_formulas(m, 0, "K_diamond_2", instances)
    assert check_km_axiom_via_formulas(m, 0, "K_diamond_3a", instances)


# -- compiled evaluator ------------------------------------------------------

def test_compile_conjunctions_of_one_formula_match_truth_set():
    rng = random.Random(21)
    val = {"p": 0b011, "q": 0b101}
    frames = [sample_frame(3, rng) for _ in range(40)]
    for _ in range(60):
        f = _random_formula(rng, 4)
        run = compile_conjunctions([[f]], val, 3)
        for fr in frames:
            assert run(fr) == (truth_set(make_model(fr, val), f),)


# valuations per state count, with atoms denoting the empty event and the
# universe among them, so that every constant fold is exercised
BATCH_VALUATIONS = {
    1: ({"p": 0b1, "q": 0b0}, {"p": 0b0, "q": 0b1}),
    2: ({"p": 0b01, "q": 0b11}, {"p": 0b10, "q": 0b00}, {"p": 0b01, "q": 0b10}),
    3: ({"p": 0b011, "q": 0b101}, {"p": 0b111, "q": 0b000}, {"p": 0b001, "q": 0b110}),
}


def _batch_groups(rng: random.Random) -> list[list]:
    p, q = Atom("p"), Atom("q")
    nested = [Believes(Cond(p, Box(Or(q, Believes(Not(p)))))),
              Cond(Believes(Cond(q, p)), Box(Believes(p)))]
    # a formula twice, a formula with its negation, x <-> x, x -> x,
    # x & ~x, biconditionals of atoms (folded to one event), and the same
    # conditional behind a different but equal antecedent
    fixed = [[nested[0], nested[0]], [nested[1], Not(nested[1])],
             [Iff(nested[0], nested[0]), Implies(nested[1], nested[1])],
             [Or(nested[1], And(nested[0], Not(nested[0])))],
             [Iff(p, q), Believes(Iff(q, Not(p)))],
             [Cond(And(p, Or(p, q)), q), Cond(p, q)]]
    return fixed + [[_random_formula(rng, 4) for _ in range(k)] for k in (0, 1, 2, 3, 5)]


def test_compile_conjunctions_matches_truth_set():
    rng = random.Random(5)
    for n, valuations in BATCH_VALUATIONS.items():
        frames = [sample_frame(n, rng) for _ in range(25)]
        full = (1 << n) - 1
        for val in valuations:
            groups = _batch_groups(rng)
            run = compile_conjunctions(groups, val, n)
            for fr in frames:
                m = make_model(fr, val)
                want = []
                for group in groups:
                    mask = full
                    for f in group:
                        mask &= truth_set(m, f)
                    want.append(mask)
                assert run(fr) == tuple(want), (n, val, fr)
    assert compile_conjunctions([], {"p": 1}, 2)(POINTED) == ()
    assert compile_conjunctions([[]], {"p": 1}, 2)(POINTED) == (0b11,)


def test_compile_conjunctions_errors():
    from artifact.formula import mv
    with pytest.raises(UnvaluedAtomError):
        compile_conjunctions([[parse("r")]], {"p": 1}, 2)
    with pytest.raises(UnvaluedAtomError):
        compile_conjunctions([[parse("p")], [parse("B r")]], {"p": 1}, 2)
    with pytest.raises(ValueError, match="metavariable"):
        compile_conjunctions([[Believes(mv("ALPHA"))]], {"p": 1}, 2)
    with pytest.raises(ValueError, match="universe"):
        compile_conjunctions([[parse("p")]], {"p": 0b100}, 2)


def _bridge_source(monkeypatch, n: int, valuation: dict):
    """The batched postulate function for ``valuation`` and its source."""
    sources = []
    monkeypatch.setattr(model, "exec", lambda src, ns: (sources.append(src), exec(src, ns)),
                        raising=False)
    instances = km_formula_instances(n, valuation)
    run = compile_conjunctions([instances[a] for a in KM_AXIOM_IDS], valuation, n)
    monkeypatch.undo()
    assert len(sources) == 1
    return run, sources[0]


def test_bridge_functions_share_one_loop_per_modal_value(monkeypatch):
    # with the valuation fixed, every characteristic formula folds to its
    # event, so at n states there is one conditional-table lookup per
    # conditional E > F with E non-empty, (2^n - 1) * 2^n of them, and one
    # belief-table lookup per B F and per B (E > F)
    for val in ({"p": 0b01}, {"p": 0b10}):
        _, src = _bridge_source(monkeypatch, 2, val)
        assert src.count("cnd[") == 3 * 4
        assert src.count("bel[") == 4 + 3 * 4
        assert "for " not in src


def test_batched_postulates_agree_with_event_level_at_three_states(monkeypatch):
    val = {"p": 0b011, "q": 0b101}
    run, src = _bridge_source(monkeypatch, 3, val)
    assert src.count("cnd[") == 7 * 8
    assert src.count("bel[") == 8 + 7 * 8
    assert "for " not in src
    _assert_masks_agree(run, 3, val, random.Random(3), 40)


def test_batched_postulates_agree_with_event_level_at_four_states():
    # K_diamond_0 and K_diamond_7s have 3,600 instances each here
    val = {"p": 0b0111, "q": 0b1011, "r": 0b1101}
    instances = km_formula_instances(4, val)
    run = compile_conjunctions([instances[a] for a in KM_AXIOM_IDS], val, 4)
    _assert_masks_agree(run, 4, val, random.Random(4), 200)


def _assert_masks_agree(run, n: int, val: dict, rng: random.Random, count: int) -> None:
    """The batched postulate masks against check_km_axiom on ``count``
    sampled frames with n states."""
    for _ in range(count):
        fr = sample_frame(n, rng)
        masks = run(fr)
        for i, a in enumerate(KM_AXIOM_IDS):
            for s in range(n):
                assert bool(masks[i] >> s & 1) == check_km_axiom(fr, s, a)[0], (fr, a, s)


def test_postulate_table_restates_each_km_item_once():
    assert sorted(item for item, _ in model._KM_POSTULATES.values()) == sorted(KM_IDS)
    # the ranges the README and the check-km --bridge refusal quote
    for val in ({"p": 0b01}, {"p": 0b10}):
        assert sum(map(len, km_formula_instances(2, val).values())) == 162
    assert sum(map(len, km_formula_instances(3, {"p": 0b011, "q": 0b101}).values())) == 1510


# -- serialization -----------------------------------------------------------

def test_model_json_roundtrip():
    doc = model_to_json(M)
    assert doc["valuation"] == {"p": [0, 1], "q": [0]}
    assert model_from_json(doc) == M


def test_model_json_rejects_malformed():
    doc = model_to_json(M)
    del doc["valuation"]
    with pytest.raises(FrameFormatError, match="valuation"):
        model_from_json(doc)
    doc = model_to_json(M)
    doc["valuation"]["Q"] = [0]
    with pytest.raises(FrameFormatError, match="atom name"):
        model_from_json(doc)
    doc = model_to_json(M)
    doc["valuation"]["p"] = [5]
    with pytest.raises(FrameFormatError, match="out of range"):
        model_from_json(doc)


def test_make_model_validation():
    with pytest.raises(ValueError, match="universe"):
        make_model(POINTED, {"p": 0b111})
    with pytest.raises(ValueError, match="atom name"):
        make_model(POINTED, {"P": 1})
