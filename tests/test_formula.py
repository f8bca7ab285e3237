"""Formula AST, parser, printer and the modal-opaque tautology check."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import proofkit
from artifact.cli import criterion_proof_suite
from artifact.formula import (
    And,
    Atom,
    Believes,
    Box,
    Cond,
    Iff,
    Implies,
    InstantiationError,
    MetaAtom,
    Not,
    Or,
    ParseError,
    TautologyBudgetError,
    instantiate,
    is_boolean,
    is_tautology,
    metavariable_names,
    mv,
    opaque_atoms,
    parse,
    parse_schema_text,
    print_formula,
)

p, q, r, a0 = Atom("p"), Atom("q"), Atom("r"), Atom("a0")


def _random_formula(rng: random.Random, depth: int):
    """Deterministic generator covering every node kind and every
    derived constructor, so printing exercises the resugaring paths."""
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.choice(("p", "q", "r", "s1")))
    pick = rng.randrange(9)
    a = _random_formula(rng, depth - 1)
    if pick == 0:
        return Not(a)
    if pick == 1:
        return Believes(a)
    if pick == 2:
        return Box(a)
    b = _random_formula(rng, depth - 1)
    if pick == 3:
        return Or(a, b)
    if pick == 4:
        return And(a, b)
    if pick == 5:
        return Implies(a, b)
    if pick == 6:
        return Iff(a, b)
    if pick == 7:
        return Cond(a, b)
    return Or(a, Not(b))


def _is_tautology_rows(f) -> bool:
    """Independent oracle: evaluate the formula on each truth-table row
    in turn, one opaque atom assignment at a time, instead of the
    library's bit-parallel columns."""
    leaves = opaque_atoms(f)

    def value(g, env) -> bool:
        if g in env:
            return env[g]
        if isinstance(g, Not):
            return not value(g.child, env)
        return value(g.left, env) or value(g.right, env)

    for row in range(1 << len(leaves)):
        env = {leaf: bool(row >> i & 1) for i, leaf in enumerate(leaves)}
        if not value(f, env):
            return False
    return True


# -- construction ----------------------------------------------------------

def test_derived_constructors_expand():
    assert And(p, q) == Not(Or(Not(p), Not(q)))
    assert Implies(p, q) == Or(Not(p), q)
    assert Iff(p, q) == And(Implies(p, q), Implies(q, p))


def test_structural_equality_is_post_expansion():
    assert And(p, q) == Not(Or(Not(p), Not(q)))
    assert And(p, q) != And(q, p)
    assert hash(And(p, q)) == hash(Not(Or(Not(p), Not(q))))


def test_is_boolean():
    assert is_boolean(And(p, Or(q, Not(r))))
    assert not is_boolean(Believes(p))
    assert not is_boolean(Or(p, Box(q)))
    assert not is_boolean(Cond(p, q))
    assert is_boolean(mv("PHI"))
    assert not is_boolean(mv("ALPHA"))
    assert is_boolean(Or(mv("PHI"), Not(mv("PSI"))))


# -- parsing ---------------------------------------------------------------

def test_parse_expands_sugar():
    assert parse("~[]~(p & q)") == Not(Box(Not(And(p, q))))
    assert parse("p -> q") == Or(Not(p), q)
    assert parse("p <-> q") == Iff(p, q)


def test_parse_conditional_needs_parens():
    assert parse("(p > q)") == Cond(p, q)
    assert parse("B(p > q)") == Believes(Cond(p, q))
    with pytest.raises(ParseError):
        parse("p > q")


def test_parse_right_associative():
    assert parse("p | q | r") == Or(p, Or(q, r))
    assert parse("p & q & r") == And(p, And(q, r))
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))


def test_parse_precedence():
    assert parse("~p & q | r -> p") == Implies(Or(And(Not(p), q), r), p)
    assert parse("B p & q") == And(Believes(p), q)
    assert parse("[]p | ~q") == Or(Box(p), Not(q))


def test_parse_nested_modalities():
    assert parse("B B p") == Believes(Believes(p))
    assert parse("~[]~p") == Not(Box(Not(p)))
    assert parse("B(p > (q > r))") == Believes(Cond(p, Cond(q, r)))


def test_parse_identifiers():
    assert parse("foo_1 | a0") == Or(Atom("foo_1"), Atom("a0"))
    with pytest.raises(ParseError):
        parse("Foo")


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("p $ q")
    assert e.value.position == 2
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p | q)")
    with pytest.raises(ParseError):
        parse("p -> ")
    with pytest.raises(ParseError):
        parse("")


def _at_depth(k: int) -> list[str]:
    """Formulas nested exactly k levels deep, one shape per way of nesting."""
    return ["(" * k + "p" + ")" * k,
            "~" * k + "p",
            " & ".join(["p"] * (k + 1)),
            " -> ".join(["p"] * (k + 1)),
            "(" * k + "p" + " > q)" * k,
            "[]" * (k % 3) + "B(p -> " * (k // 3 - 1) + "B(p | q)" + ")" * (k // 3 - 1)]


def test_formula_at_the_depth_bound_parses_prints_and_evaluates():
    from artifact.formula import _MAX_DEPTH
    from artifact.frame import Frame
    from artifact.model import denotation
    from artifact.proofkit import match_template
    fr = Frame(2, (1, 3), ((1, 2, 3), (1, 2, 2)))
    binding = {"PHI": p, "PSI": q}
    for text in _at_depth(_MAX_DEPTH):
        f = parse(text)
        assert parse(print_formula(f)) == f
        assert denotation(fr, f, {"p": 0b01, "q": 0b10}) in range(4)
        assert is_tautology(f) in (True, False)
        template = parse_schema_text(text.replace("p", "PHI").replace("q", "PSI"))
        assert instantiate(template, binding) == f
        assert match_template(template, f) == {
            name: binding[name] for name in metavariable_names(template)}
    for text in _at_depth(_MAX_DEPTH + 1):
        with pytest.raises(ParseError, match=f"nested deeper than {_MAX_DEPTH} levels"):
            parse(text)


def _tree_size(f) -> int:
    """Nodes of the formula as a tree, a shared subformula once per occurrence."""
    if isinstance(f, (Atom, MetaAtom)):
        return 1
    return 1 + sum(_tree_size(getattr(f, name)) for name in f.__slots__)


def test_parser_counts_the_expanded_tree_size():
    from artifact.formula import _Parser
    rng = random.Random(3)
    for _ in range(300):
        f = _random_formula(rng, 5)
        text = print_formula(f)
        assert _Parser(text, False).formula()[2] == _tree_size(f), text
    for text in ("(p)", "((p > q))", "B(PHI > ~PSI) <-> [](ALPHA & PHI)"):
        assert _Parser(text, True).formula()[2] == _tree_size(parse_schema_text(text))


def test_iff_chains_past_the_node_bound_are_refused():
    from artifact.formula import _MAX_NODES
    chain = {k: " <-> ".join(["p"] * k) for k in (12, 13, 14)}
    assert _tree_size(parse(chain[13])) == 45_046 <= _MAX_NODES
    # 90,102 and 4 + 45,046 + 22,518 = 67,568 nodes
    for text in (chain[14], f"B(({chain[13]}) & ({chain[12]}))"):
        with pytest.raises(ParseError, match="expands to more than 65,536 nodes"):
            parse(text)


def test_parse_schema_text_metavariables():
    assert parse_schema_text("B(PHI > PSI)") == Believes(Cond(mv("PHI"), mv("PSI")))
    assert parse_schema_text("ALPHA -> B ALPHA") == Implies(mv("ALPHA"), Believes(mv("ALPHA")))
    with pytest.raises(ParseError):
        parse("B(PHI > PSI)")
    with pytest.raises(ParseError):
        parse_schema_text("B(THETA > PSI)")


# -- printing --------------------------------------------------------------

def test_print_examples():
    assert print_formula(parse("B(p > p)")) == "B(p > p)"
    assert print_formula(Or(p, Or(q, r))) == "p | q | r"
    assert print_formula(Or(Or(p, q), r)) == "(p | q) | r"
    assert print_formula(parse("~[]~(p & q)")) == "~[]~(p & q)"
    assert print_formula(And(p, q)) == "p & q"
    assert print_formula(Iff(p, q)) == "p <-> q"
    assert print_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
    assert print_formula(Or(a0, Not(a0))) == "a0 | ~a0"
    assert print_formula(Believes(Believes(p))) == "B B p"
    assert print_formula(Box(Believes(Not(p)))) == "[]B ~p"


def test_print_parenthesizes_only_when_needed():
    assert print_formula(Or(p, Implies(q, r))) == "p | (q -> r)"
    assert print_formula(And(Implies(p, q), Implies(q, p))) == "p <-> q"
    assert print_formula(Iff(Iff(p, q), r)) == "(p <-> q) <-> r"
    assert print_formula(Not(And(p, q))) == "~(p & q)"


def test_roundtrip_seeded():
    rng = random.Random(0)
    for _ in range(1000):
        f = _random_formula(rng, 5)
        assert parse(print_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(2, 7))
def test_roundtrip_hypothesis(seed, depth):
    f = _random_formula(random.Random(seed), depth)
    assert parse(print_formula(f)) == f


def test_schema_template_roundtrip():
    text = "~[]~PHI & B(PHI > PSI) -> ~B(PHI > ~PSI)"
    assert print_formula(parse_schema_text(text)) == text


# -- tautology check -------------------------------------------------------

def test_is_tautology_basics():
    assert is_tautology(parse("p | ~p"))
    assert not is_tautology(parse("p | ~q"))
    assert is_tautology(parse("(p > q) | ~(p > q)"))
    assert is_tautology(parse("B p -> B p"))
    assert not is_tautology(parse("B p -> p"))
    assert not is_tautology(parse("B(p & q) -> B p"))
    assert is_tautology(parse("(p & (p -> q)) -> q"))
    assert is_tautology(Or(a0, Not(a0)))
    assert not is_tautology(And(a0, Not(a0)))


def test_modal_subformulas_are_opaque():
    f = parse("[]p -> []p")
    assert is_tautology(f)
    assert opaque_atoms(f) == [Box(p)]
    g = parse("B(p > q) & ~[]~p | ~B(p > q) | []~p")
    assert opaque_atoms(g) == [Believes(Cond(p, q)), Box(Not(p))]
    assert is_tautology(g)


def test_opaque_atom_budget():
    wide = parse(" | ".join(f"x{i}" for i in range(21)))
    with pytest.raises(TautologyBudgetError):
        is_tautology(wide)
    assert is_tautology(parse(" | ".join(f"x{i}" for i in range(20)))) is False
    # a tautology at the budget: all 2**20 rows hold
    widest = parse(" | ".join(f"x{i}" for i in range(20)) + " | ~x19")
    assert len(opaque_atoms(widest)) == 20
    assert is_tautology(widest) is True


def test_tautology_agrees_with_row_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        f = _random_formula(rng, 4)
        if len(opaque_atoms(f)) > 4:
            continue
        assert is_tautology(f) == _is_tautology_rows(f)
        checked += 1


def test_tautology_agrees_with_row_oracle_on_implication_shapes():
    rng = random.Random(11)
    for _ in range(300):
        a = _random_formula(rng, 3)
        b = _random_formula(rng, 3)
        f = Implies(And(a, b), a)
        if len(opaque_atoms(f)) <= 6:
            assert is_tautology(f)
            assert _is_tautology_rows(f)


def test_tautology_agrees_with_row_oracle_on_proof_suite(monkeypatch):
    # Every tautology step the proof suite checks, its 139 deletion
    # mutants included, decided by both: 100 calls on 77 distinct
    # formulas (each mutant is checked from its deleted line), of which
    # the mutants supply the 2 non-tautologies.
    seen = []

    def spy(f, *args, **kwargs):
        verdict = is_tautology(f, *args, **kwargs)
        seen.append((f, verdict))
        return verdict

    monkeypatch.setattr(proofkit, "is_tautology", spy)
    proofkit.builtin_registry.cache_clear()
    assert criterion_proof_suite()["ok"]
    verdicts = dict(seen)
    assert True in verdicts.values() and False in verdicts.values()
    for f, verdict in verdicts.items():
        assert verdict == _is_tautology_rows(f), print_formula(f)


# -- schemas and instantiation ---------------------------------------------

def test_instantiate_uniform():
    s = parse_schema_text("B(PHI > PSI) -> B(PHI > PSI)")
    f = instantiate(s, {"PHI": p, "PSI": Or(q, r)})
    assert f == Implies(Believes(Cond(p, Or(q, r))), Believes(Cond(p, Or(q, r))))


def test_instantiate_missing_binding():
    s = parse_schema_text("PHI -> PSI")
    with pytest.raises(InstantiationError, match="PSI"):
        instantiate(s, {"PHI": p})


def test_instantiate_sort_enforcement():
    s = parse_schema_text("B PHI -> ~B ~PHI")
    with pytest.raises(InstantiationError, match="Boolean-only"):
        instantiate(s, {"PHI": Believes(p)})
    with pytest.raises(InstantiationError, match="Boolean-only"):
        instantiate(s, {"PHI": Cond(p, q)})
    general = parse_schema_text("B ALPHA -> ~B ~ALPHA")
    f = instantiate(general, {"ALPHA": Believes(p)})
    assert f == Implies(Believes(Believes(p)), Not(Believes(Not(Believes(p)))))


def test_instantiate_boolean_metavariables_nest():
    s = parse_schema_text("B(PHI > PHI)")
    f = instantiate(s, {"PHI": Or(mv("PHI"), mv("PSI"))})
    assert f == Believes(Cond(Or(mv("PHI"), mv("PSI")), Or(mv("PHI"), mv("PSI"))))


def test_schema_metavariables_derived_from_template():
    s = parse_schema_text("~[]~(PHI & PSI) & B((PHI & PSI) > CHI)")
    assert metavariable_names(s) == ("PHI", "PSI", "CHI")
    # atoms and modal nodes are not metavariables
    assert metavariable_names(Implies(Believes(Cond(p, q)), Box(Or(r, mv("CHI"))))) == ("CHI",)


def test_metavariable_names_in_first_occurrence_order():
    assert metavariable_names(parse_schema_text("(PSI > PHI) | CHI & PHI")) == ("PSI", "PHI", "CHI")
    # across several formulas: the first, then the names new in the next
    premise, conclusion = parse_schema_text("ALPHA -> BETA"), parse_schema_text("(GAMMA > BETA)")
    assert metavariable_names(premise, conclusion) == ("ALPHA", "BETA", "GAMMA")
