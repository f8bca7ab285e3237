"""Proof checker tests: the builtin derivations, the justification
checkers, mutation rejection, and the containment report."""

import random
from itertools import combinations, product

import pytest

from artifact.formula import Atom, metavariable_names, parse_schema_text, print_formula
from artifact.frame import Frame, PROPERTY_IDS, check_property, sample_frame
from artifact.model import make_model, truth_set
from artifact.proofkit import (
    ProofRegistry,
    ProofScript,
    ProofSyntaxError,
    Verdict,
    builtin_registry,
    builtin_scripts,
    check_line,
    check_script,
    delete_line,
    match_template,
    parse_proof_script,
    script_dependencies,
    verify_containment,
)
from artifact.schema import LOGICS

REGISTRY = builtin_registry()

REMARK_THEOREMS = ("C_not_box_not", "C_B_inv", "K_cond", "A_star_1_diamond_0")
REMARK_RULES = ("N_B", "RM_not_box_not", "RM_B_cond")
HEADLINERS = {"A_diamond_2": 19, "A_diamond_6w": 25, "A_diamond_7s": 19,
              "A_star_3": 11}


def test_builtins_all_validate():
    scripts = builtin_scripts()
    assert len(scripts) >= 11
    ids = {s.id for s in scripts}
    assert set(REMARK_THEOREMS) <= ids
    assert set(REMARK_RULES) <= ids
    assert set(HEADLINERS) <= ids
    for s in scripts:
        verdict = REGISTRY.check(s.id)
        assert verdict.ok, f"{s.id}: line {verdict.line}: {verdict.reason}"


@pytest.mark.parametrize("script_id,count", sorted(HEADLINERS.items()))
def test_headline_line_counts(script_id, count):
    assert len(REGISTRY.script(script_id).lines) == count


def test_total_line_budget():
    assert sum(len(s.lines) for s in builtin_scripts()) == 139


def test_conjunction_splitting_dependencies():
    """The weak-and-strong-premise derivation leans on both the success
    axiom and the strong conjunction axiom, and on its two swap lemmas."""
    script = REGISTRY.script("A_diamond_6w")
    cited_axioms = {ln.justification.ref for ln in script.lines
                    if ln.justification.kind == "ax"}
    assert "A_star_5b_diamond_3b" in cited_axioms
    assert "A_star_8_diamond_9s" in cited_axioms
    assert script_dependencies(script) >= {"C_not_box_not", "A6w_swap13",
                                           "A6w_swap19", "RM_B_cond"}


def test_rule_scripts_match_registry_templates():
    """Every derived registry item is what its script proves: a rule's
    premises and conclusion are its script's, and a theorem's conclusion
    is an instance of its script's target (A_star_1_diamond_0's script
    proves the general-sorted form, of which the Boolean item is one)."""
    from artifact.schema import REGISTRY as AXIOMS
    derived = {a for a, info in AXIOMS.items() if info.theorem_of_l}
    assert derived == set(REMARK_RULES) | set(REMARK_THEOREMS)
    for a in sorted(derived):
        info, script = AXIOMS[a], REGISTRY.script(a)
        assert script.is_rule == bool(info.premises), a
        if info.premises:
            assert (script.premises, script.target) == (info.premises, info.conclusion), a
        else:
            assert match_template(script.target, info.conclusion) is not None, a


@pytest.mark.parametrize("text,complaint", [
    ("1. B ALPHA ; taut\n3. B ALPHA ; taut", "expected step 2"),
    ("1. B ALPHA taut", "malformed step"),
    ("1. B ALPHA ; wat 3", "unknown justification"),
    ("1. B ALPHA ; ax D_B [omega=ALPHA]", "unknown metavariable"),
    ("1. B ALPHA ; mp 1", "two line numbers"),
    ("", "empty proof"),
    # formula parse errors name their step: the step formula, an ax or
    # lemma binding, and a rule's formula argument
    ("1. B ALPHA ; taut\n2. B( ; taut",
     r"^line 2: expected a formula, found end of input \(at offset 2\)$"),
    ("1. B ALPHA ; ax D_B [alpha=ALPHA &]", r"^line 1: expected a formula"),
    ("1. B ALPHA ; lemma C_B_inv [beta=)]", r"^line 1: unbalanced '\)'"),
    ("1. B ALPHA ; premise\n2. (GAMMA > B ALPHA) ; nec_cond 1 B(",
     r"^line 2: expected a formula"),
    # a metavariable bound twice in one step, for ax and lemma alike
    ("1. B(PHI > PHI) ; ax A_star_2_diamond_1 [phi=PSI, phi=PHI]",
     r"^line 1: phi is bound twice$"),
    ("1. B ALPHA ; taut\n2. B ALPHA ; lemma C_B_inv [beta=ALPHA, alpha=BETA, beta=BETA]",
     r"^line 2: beta is bound twice$"),
    # a formula nested past the parser's depth bound
    ("1. " + "(" * 65 + "PHI | ~PHI" + ")" * 65 + " ; taut",
     r"^line 1: formula nested deeper than 64 levels"),
])
def test_parse_rejects(text, complaint):
    with pytest.raises(ProofSyntaxError, match=complaint):
        parse_proof_script(text, "bad", "L")


def test_parse_rejects_unknown_logic():
    with pytest.raises(ValueError, match="unknown logic"):
        parse_proof_script("1. B ALPHA ; taut", "bad", "S5")


def _script(text, logic="L", script_id="scratch"):
    return parse_proof_script(text, script_id, logic)


@pytest.mark.parametrize("text,logic,line,complaint", [
    # a non-tautology flagged as one
    ("1. ALPHA -> BETA ; taut", "L", 1, "not a propositional tautology"),
    # modus ponens with the implication and premise swapped
    ("1. ALPHA ; premise\n2. ALPHA -> BETA ; premise\n3. BETA ; mp 2 1",
     "L", 3, "line 1 does not match premise ALPHA -> BETA of rule MP"),
    # axiom id that names a rule
    ("1. B ALPHA ; ax R_star_6_diamond_4", "L", 1, "unknown axiom schema"),
    # revision-only axiom cited from the base logic
    ("1. ~B ~PHI & B(PHI -> PSI) -> B(PHI > PSI) ; ax A_star_4", "L", 1,
     "not available in logic L"),
    # wrong instance for the cited axiom
    ("1. B PHI -> ~B ~PSI ; ax D_B [alpha=PHI]", "L", 1, "instance mismatch"),
    # axiom binding that names a metavariable the schema lacks
    ("1. B PHI -> ~B ~PHI ; ax D_B [phi=PHI]", "L", 1, "D_B has no metavariable PHI"),
    # Boolean-only axiom metavariable bound to a modal formula
    ("1. B(B ALPHA > B ALPHA) ; ax A_star_2_diamond_1 [phi=B ALPHA]", "KM", 1,
     "A_star_2_diamond_1: PHI is Boolean-only"),
    # necessitation of the wrong formula
    ("1. PHI | ~PHI ; taut\n2. [](PHI & PHI) ; nec_box 1", "L", 2,
     "conclusion does not match rule N_box"),
    # monotonicity applied to a non-implication
    ("1. PHI & PSI ; premise\n2. B(PHI & PSI) -> B PHI ; rm_b 1", "L", 2,
     "line 1 does not match premise ALPHA -> BETA of rule RM_B"),
    # conditional monotonicity with a mismatched antecedent
    ("1. PHI -> (PSI -> PHI) ; taut\n"
     "2. (CHI > PHI) -> (PSI > (PSI -> PHI)) ; rm_cond 1 CHI", "L", 2,
     "conclusion does not match rule RM_cond"),
    # pl citing lines that do not entail the conclusion
    ("1. PHI -> (PSI -> PHI) ; taut\n2. B PHI ; pl 1", "L", 2,
     "not a propositional consequence"),
    # forward citation
    ("1. B ALPHA -> B ALPHA ; pl 1", "L", 1, "does not precede"),
    # rule citation whose conclusion does not fit
    ("1. PHI | ~PHI ; taut\n2. B(PHI & PHI) ; rule N_B 1", "L", 2,
     "conclusion does not match"),
    # a two-premise base rule cited with one premise line
    ("1. ALPHA ; premise\n2. BETA ; rule MP 1", "L", 2, "takes 2 premise line(s)"),
    # rule unavailable in the base logic
    ("1. PHI <-> PHI ; taut\n"
     "2. B(PHI > PSI) <-> B(PHI > PSI) ; rule R_star_6_diamond_4 1", "L", 2,
     "not available in logic L"),
    # lemma citation of a rule script
    ("1. B ALPHA ; lemma N_B", "L", 1, "cite it with 'rule'"),
    # lemma instance that does not match the cited target
    ("1. ~[]~PHI -> ~[]~PSI ; lemma C_not_box_not [alpha=PHI, beta=PSI]",
     "L", 1, "lemma instance mismatch"),
    # lemma binding that names a metavariable the target lacks
    ("1. ~[]~(PHI & PSI) -> ~[]~PHI ; lemma C_not_box_not [alpha=PHI, chi=PSI]",
     "L", 1, "C_not_box_not has no metavariable CHI"),
    # Boolean-only lemma metavariable bound to a modal formula
    ("1. ~[]~B ALPHA & B(B ALPHA > PSI) -> B(B ALPHA -> PSI) ; lemma A_star_3 [phi=B ALPHA]",
     "KM", 1, "A_star_3: PHI is Boolean-only"),
])
def test_check_line_rejects(text, logic, line, complaint):
    script = _script(text, logic)
    ok, reason = check_line(script, line, REGISTRY)
    assert not ok
    assert complaint in reason


def test_tautology_budget_is_a_failed_line():
    wide = " | ".join(f"p{i}" for i in range(21))
    verdict = check_script(_script(f"1. {wide} | ~p0 ; taut"), REGISTRY)
    assert verdict == Verdict(False, 1, "21 opaque atoms exceed the bound of 20")
    verdict = check_script(_script(f"1. PHI | ~PHI ; taut\n2. {wide} ; pl 1"), REGISTRY)
    assert verdict == Verdict(False, 2, "22 opaque atoms exceed the bound of 20")


def test_check_line_index_bounds():
    script = _script("1. PHI | ~PHI ; taut")
    with pytest.raises(IndexError):
        check_line(script, 2, REGISTRY)


# one builtin theorem script per logic, cited as a lemma below
LEMMA_OF = {"L": "C_not_box_not", "KM": "A_star_3", "AGM": "A_diamond_2"}


@pytest.mark.parametrize("lemma_logic,script_logic", list(product(LOGICS, repeat=2)))
def test_kripke_lemma_logic_fence(lemma_logic, script_logic):
    """A lemma from one logic may be cited in another exactly when the
    first logic's items are among the second's: base-logic lemmas
    everywhere, update- and revision-logic lemmas only in their own."""
    dep = REGISTRY.script(LEMMA_OF[lemma_logic])
    assert dep.logic == lemma_logic and not dep.is_rule
    text = f"1. {print_formula(dep.target)} ; lemma {dep.id}"
    ok, reason = check_line(_script(text, script_logic), 1, REGISTRY)
    allowed = LOGICS[lemma_logic] <= LOGICS[script_logic]
    assert allowed == (lemma_logic in ("L", script_logic))
    assert ok == allowed, reason
    if not ok:
        assert f"belongs to logic {lemma_logic}" in reason


def test_unregistered_dependency():
    script = _script("1. B ALPHA -> B ALPHA ; lemma no_such_thing")
    verdict = check_script(script, REGISTRY)
    assert not verdict.ok
    assert "unregistered dependency" in verdict.reason


def test_cyclic_dependency():
    reg = ProofRegistry()
    reg.register(_script("1. B ALPHA -> B ALPHA ; lemma b_side", script_id="a_side"))
    reg.register(_script("1. B ALPHA -> B ALPHA ; lemma a_side", script_id="b_side"))
    verdict = reg.check("a_side")
    assert not verdict.ok
    assert "cyclic dependency" in verdict.reason


def test_derived_rule_needs_its_script():
    reg = ProofRegistry()
    script = _script("1. PHI | ~PHI ; taut\n2. B(PHI | ~PHI) ; rule N_B 1")
    verdict = check_script(script, reg)
    assert not verdict.ok
    assert "unregistered dependency" in verdict.reason


def test_registry_is_append_only():
    reg = ProofRegistry()
    script = _script("1. PHI | ~PHI ; taut")
    reg.register(script)
    with pytest.raises(ValueError, match="already registered"):
        reg.register(script)


def test_target_must_be_last_line():
    script = REGISTRY.script("C_B_inv")
    mutant = delete_line(script, len(script.lines))
    verdict = check_script(mutant, REGISTRY)
    assert not verdict.ok


def test_deleting_a_cited_line_is_caught():
    script = REGISTRY.script("A_diamond_2")
    for k in (1, 5, 11, 14):
        verdict = check_script(delete_line(script, k), REGISTRY)
        assert not verdict.ok, f"deletion of line {k} slipped through"


def swap_lines(script: ProofScript, i: int, j: int) -> ProofScript:
    """Exchange 1-based lines i and j, keeping citations as written."""
    lines = list(script.lines)
    lines[i - 1], lines[j - 1] = lines[j - 1], lines[i - 1]
    return ProofScript(script.id, script.logic, tuple(lines), script.target)


def test_dependent_swaps_all_caught():
    """Swapping a line with one that cites it must always be rejected:
    after the swap the citing justification points at or past itself."""
    checked = 0
    for script in builtin_scripts():
        for i, j in combinations(range(1, len(script.lines) + 1), 2):
            if i not in script.lines[j - 1].justification.cites:
                continue
            checked += 1
            assert not check_script(swap_lines(script, i, j), REGISTRY).ok
    assert checked > 100


def test_independent_swap_can_survive():
    # Lines 2 and 3 of C_B_cond do not cite each other, and line 4 cites
    # them only as the set {2, 3}, so the swapped proof is still a proof.
    # Deletions are the mutation class the checker guarantees to catch.
    script = REGISTRY.script("C_B_cond")
    assert check_script(swap_lines(script, 2, 3), REGISTRY).ok


def test_verify_containment_report():
    report = verify_containment()
    assert report["ok"] and report["covered"] == 9
    items = report["items"]
    shared = [a for a, row in items.items() if row["route"] == "shared"]
    derived = {a: row for a, row in items.items() if row["route"] == "derived"}
    assert len(shared) == 6
    assert set(derived) == {"A_diamond_2", "A_diamond_6w", "A_diamond_7s"}
    assert derived["A_diamond_2"]["lines"] == 19
    assert derived["A_diamond_6w"]["lines"] == 25
    assert derived["A_diamond_7s"]["lines"] == 19


def test_containment_rejects_a_script_that_derives_another_formula():
    reg = ProofRegistry()
    for script in builtin_scripts():
        if script.id != "A_diamond_2":
            reg.register(script)
    bogus = parse_proof_script("1. PHI -> PHI ; taut", "A_diamond_2", "AGM")
    assert check_script(bogus, reg).ok
    reg.register(bogus)
    report = verify_containment(registry=reg)
    row = report["items"]["A_diamond_2"]
    assert not row["ok"]
    assert "does not derive" in row["reason"]
    assert not report["ok"]
    assert report["items"]["A_diamond_6w"]["ok"] and report["items"]["A_diamond_7s"]["ok"]


def test_containment_exclusions_cover_rules():
    """Excluding a shared rule fails its shared row and every derivation
    that cites it, through the swap lemmas."""
    report = verify_containment(excluded_axioms=frozenset({"R_star_6_diamond_4"}))
    items = report["items"]
    assert not report["ok"]
    assert not items["R_star_6_diamond_4"]["ok"]
    assert items["R_star_6_diamond_4"]["reason"] == "R_star_6_diamond_4 is excluded"
    for a in ("A_diamond_6w", "A_diamond_7s"):
        assert not items[a]["ok"]
        assert "rule R_star_6_diamond_4 is not available in logic AGM" in items[a]["reason"]
    assert items["A_diamond_2"]["ok"]


def test_containment_rejects_unknown_exclusions():
    with pytest.raises(ValueError, match="A_star_44"):
        verify_containment(excluded_axioms=frozenset({"A_star_44"}))


@pytest.mark.parametrize("item", ["RM_B_cond", "C_not_box_not"])
def test_containment_refuses_exclusions_that_cannot_bite(item):
    # derived items are cited freely, so excluding one would still report ok
    with pytest.raises(ValueError, match=item):
        verify_containment(excluded_axioms=frozenset({item}))


def test_containment_depends_on_the_success_axiom():
    report = verify_containment(excluded_axioms=frozenset({"A_star_4"}))
    row = report["items"]["A_diamond_2"]
    assert not row["ok"]
    assert "line 5" in row["reason"] and "A_star_4" in row["reason"]
    assert not report["ok"]


# ---------------------------------------------------------------------------
# semantic soundness of every accepted line

def _ranked_frame(n, rng):
    """A frame whose selection is a constant-belief global ranking. It
    satisfies every selection property at once."""
    g = rng.randrange(1, 1 << n)
    order = list(range(n))
    rng.shuffle(order)

    def pick(e):
        for s in order:
            if e >> s & 1:
                return 1 << s

    row = tuple((g & e) or pick(e) for e in range(1, 1 << n))
    return Frame(n, (g,) * n, (row,) * n)


def test_ranked_frames_satisfy_every_property():
    rng = random.Random(7)
    for _ in range(25):
        fr = _ranked_frame(rng.choice((2, 3)), rng)
        for prop in PROPERTY_IDS:
            holds, witness = check_property(fr, prop)
            assert holds, (prop, witness)


def test_every_accepted_line_is_valid_on_conforming_frames():
    """Lines of theorem scripts, with metavariables replaced by fresh
    atoms, must be valid on frames satisfying the script logic's
    properties. Rule scripts are skipped: their premise lines are
    hypotheses, not theorems."""
    rng = random.Random(41)
    frames = [_ranked_frame(2, rng) for _ in range(50)]
    frames += [_ranked_frame(3, rng) for _ in range(50)]
    arbitrary = [sample_frame(2, rng) for _ in range(50)]
    arbitrary += [sample_frame(3, rng) for _ in range(50)]

    for script in builtin_scripts():
        if script.is_rule:
            continue
        pool = arbitrary if script.logic == "L" else frames
        for ln in script.lines:
            names = metavariable_names(ln.formula)
            concrete = ln.formula
            if names:
                from artifact.formula import instantiate
                concrete = instantiate(ln.formula,
                                       {name: Atom(name.lower()) for name in names})
            for fr in pool:
                valuation = {name.lower(): rng.randrange(fr.full + 1)
                             for name in ("PHI", "PSI", "CHI",
                                          "ALPHA", "BETA", "GAMMA")}
                m = make_model(fr, valuation)
                assert truth_set(m, concrete) == fr.full, (
                    script.id, concrete, fr)


def test_parsed_formula_text_matches_schema_parser():
    text = "~[]~(PHI & PSI) & B(PHI > PSI) -> ~B(PHI > ~PSI)"
    script = _script(f"1. {text} ; premise")
    assert script.lines[0].formula == parse_schema_text(text)
