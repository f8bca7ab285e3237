"""Axiom-schema registry, the logic table, schema validity on frames, and
correspondence.

Every axiom and every rule of inference is one registry item of one
shape, ``AxiomInfo(id, premises, conclusion)``: as in a Hilbert system,
an axiom schema is a rule with no premises, and an item's kind is
whether it has any. The six rules of the base logic L (``MP``,
``N_box``, ``N_cond``, ``RM_box``, ``RM_B``, ``RM_cond``) are items like
the update- and revision-logic rules.
``LOGICS`` maps each logic name to the items it may cite as primitive;
the update logic (KM) and the revision logic (AGM) are L plus their
extensions.

A schema is valid on a frame when every instance is true at every state
of every model based on that frame. Because the schemas restrict their
metavariables to Boolean formulas and every event is the truth set of
some Boolean formula under a suitable valuation, quantifying
metavariables directly over the frame's events is sound and complete.
The checker therefore plugs metavariable events straight into the truth
clauses and never enumerates formulas. A rule is valid on a frame when
every binding that makes all its premises valid makes its conclusion
valid. Validity of any registry item, axiom or rule, is one call:
``schema_valid_on_frame``.

The truth clauses themselves live in ``model``: the reference evaluator
``denotation`` and the code generator ``_Codegen``. This module only
drives them. ``compile_schema_checker`` has ``_Codegen`` emit the
template's clauses inside one loop per metavariable, ordered by first
occurrence in the template (``formula.metavariable_names``), hoists
antecedent conjuncts to the outermost loop that binds their
metavariables, and prunes the inner loops with a zero guard. Every modal
node is a lookup into the frame's ``modal_tables``, which the frame
builds on the first checker's call and keeps, so all the checkers run
on one frame share one build and no binding rescans the belief map or
the selection. Frame properties read the frame's own update rows, so a
correspondence sweep only picks the checks. ``rule_preserves_validity``
scans the same bindings through ``denotation``, its metavariables in
first-occurrence order over the premises, then the conclusion; with no
premises it is the reference validity scan for a schema. Both paths
report the same first counterexample (binding in lexicographic scan
order, then lowest state).

Which property goes with which axiom is not written here.
``frame.CONDITIONS`` maps each item to its row predicate, and an item's
property id is its id with the leading ``A`` replaced by ``P``
(``frame.property_id``). ``CORRESPONDENCE_PAIRS`` only lists the eight
axioms the correspondence criteria pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .formula import (Formula, _match_and, _match_iff, _match_implies, metavariable_names,
                      parse_schema_text)
from .frame import (Frame, check_property, enumerate_frames, frame_to_json, property_id,
                    sample_frame)
from .model import _Codegen, denotation

__all__ = [
    "AxiomInfo", "REGISTRY", "AXIOM_IDS", "L_CORE_IDS",
    "LOGICS", "KM_IDS", "AGM_IDS", "CorrespondencePair", "CORRESPONDENCE_PAIRS",
    "schema_valid_on_frame", "rule_preserves_validity", "compile_schema_checker",
    "run_correspondence_suite",
]


@dataclass(frozen=True)
class AxiomInfo:
    """One registry item: a rule of inference from ``premises`` to
    ``conclusion``. An axiom schema is the rule with no premises."""

    id: str
    premises: tuple[Formula, ...]
    conclusion: Formula
    theorem_of_l: bool = False


def _item(id_, premises, conclusion, **flags):
    return AxiomInfo(id_, tuple(map(parse_schema_text, premises)),
                     parse_schema_text(conclusion), **flags)


_ENTRIES = [
    # base-logic axioms (general metavariables)
    _item("D_B", [], "B ALPHA -> ~B ~ALPHA"),
    _item("C_box", [], "[]ALPHA & []BETA -> [](ALPHA & BETA)"),
    _item("C_B", [], "B ALPHA & B BETA -> B(ALPHA & BETA)"),
    _item("C_cond", [], "(GAMMA > ALPHA) & (GAMMA > BETA) -> (GAMMA > (ALPHA & BETA))"),
    _item("NB", [], "[]ALPHA -> B ALPHA"),
    # base-logic rules of inference
    _item("MP", ["ALPHA", "ALPHA -> BETA"], "BETA"),
    _item("N_box", ["ALPHA"], "[]ALPHA"),
    _item("N_cond", ["ALPHA"], "(GAMMA > ALPHA)"),
    _item("RM_box", ["ALPHA -> BETA"], "[]ALPHA -> []BETA"),
    _item("RM_B", ["ALPHA -> BETA"], "B ALPHA -> B BETA"),
    _item("RM_cond", ["ALPHA -> BETA"], "(GAMMA > ALPHA) -> (GAMMA > BETA)"),
    # update-logic axioms (Boolean metavariables)
    _item("A_star_1_diamond_0", [],
          "B(PHI > PSI) & B(PHI > (PSI -> CHI)) -> B(PHI > CHI)", theorem_of_l=True),
    _item("A_star_2_diamond_1", [], "B(PHI > PHI)"),
    _item("A_diamond_2", [], "B PHI -> (B PSI <-> B(PHI > PSI))"),
    _item("A_star_5b_diamond_3b", [], "~[]~PHI & B(PHI > PSI) -> ~B(PHI > ~PSI)"),
    _item("A_star_7_diamond_5", [],
          "~[]~(PHI & PSI) & B((PHI & PSI) > CHI) -> B(PHI > (PSI -> CHI))"),
    _item("A_diamond_6w", [],
          "~[]~(PHI & PSI) & B(PHI > PSI) & B(PSI > PHI)"
          " -> (B(PHI > CHI) <-> B(PSI > CHI))"),
    _item("A_diamond_7s", [],
          "~[]~PHI & ~[]~PSI & B(PHI > CHI) & B(PSI > CHI)"
          " -> B((PHI | PSI) > CHI)"),
    # revision-logic extras
    _item("A_star_3", [], "~[]~PHI & B(PHI > PSI) -> B(PHI -> PSI)"),
    _item("A_star_4", [], "~B ~PHI & B(PHI -> PSI) -> B(PHI > PSI)"),
    _item("A_star_8_diamond_9s", [],
          "~B(PHI > ~PSI) & B(PHI > (PSI -> CHI)) -> B((PHI & PSI) > (PSI & CHI))"),
    # rules of inference shared by both extensions
    _item("R_star_5a_diamond_3a", ["~PHI"], "B(PHI > PSI)"),
    _item("R_star_6_diamond_4", ["PHI <-> PSI"], "B(PHI > CHI) <-> B(PSI > CHI)"),
    # derived theorems and rules of the base logic
    _item("C_not_box_not", [], "~[]~(ALPHA & BETA) -> ~[]~ALPHA", theorem_of_l=True),
    _item("C_B_inv", [], "B(ALPHA & BETA) -> B ALPHA & B BETA", theorem_of_l=True),
    _item("K_cond", [], "(ALPHA > BETA) & (ALPHA > (BETA -> GAMMA)) -> (ALPHA > GAMMA)",
          theorem_of_l=True),
    _item("RM_not_box_not", ["ALPHA -> BETA"], "~[]~ALPHA -> ~[]~BETA",
          theorem_of_l=True),
    _item("N_B", ["ALPHA"], "B ALPHA", theorem_of_l=True),
    _item("RM_B_cond", ["ALPHA -> BETA"], "B(GAMMA > ALPHA) -> B(GAMMA > BETA)",
          theorem_of_l=True),
]

REGISTRY: dict[str, AxiomInfo] = {e.id: e for e in _ENTRIES}
AXIOM_IDS = tuple(REGISTRY)
L_CORE_IDS = ("D_B", "C_box", "C_B", "C_cond", "NB")

# The items each logic may cite as primitive. A lemma proved in logic Y
# may be cited in logic X when LOGICS[Y] <= LOGICS[X].
_L_ITEMS = frozenset(L_CORE_IDS + ("MP", "N_box", "N_cond", "RM_box", "RM_B", "RM_cond"))
_SHARED_ITEMS = frozenset({
    "A_star_1_diamond_0", "A_star_2_diamond_1", "A_star_5b_diamond_3b",
    "A_star_7_diamond_5", "R_star_5a_diamond_3a", "R_star_6_diamond_4"})
LOGICS: dict[str, frozenset[str]] = {
    "L": _L_ITEMS,
    "KM": _L_ITEMS | _SHARED_ITEMS | {"A_diamond_2", "A_diamond_6w", "A_diamond_7s"},
    "AGM": _L_ITEMS | _SHARED_ITEMS | {"A_star_3", "A_star_4", "A_star_8_diamond_9s"},
}
# each extension's own items, in registry order; AGM_IDS is KM_IDS's
# counterpart for the revision logic
KM_IDS = tuple(a for a in AXIOM_IDS if a in LOGICS["KM"] and a not in _L_ITEMS)
AGM_IDS = tuple(a for a in AXIOM_IDS if a in LOGICS["AGM"] and a not in _L_ITEMS)


def _info(a: str) -> AxiomInfo:
    try:
        return REGISTRY[a]
    except KeyError:
        raise ValueError(f"unknown axiom id {a!r}") from None


def _first_false_state(mask: int, n: int) -> int:
    for s in range(n):
        if not mask >> s & 1:
            return s
    raise AssertionError("mask is full")


# ---------------------------------------------------------------------------
# compiled whole-frame checker

def _flatten_and(f: Formula) -> list[Formula]:
    m = _match_and(f)
    if m is None or _match_iff(f) is not None:
        return [f]
    return _flatten_and(m[0]) + _flatten_and(m[1])


def compile_schema_checker(template: Formula) -> Callable[..., tuple[dict, int] | None]:
    """Build a specialized validity scanner for one schema template.

    The result maps a frame to None (valid) or the first counterexample
    (metavariable binding, state), scanning bindings lexicographically
    in first-occurrence metavariable order with events ascending.
    """
    names = metavariable_names(template)
    if not names:
        raise ValueError("schema template has no metavariables")
    cg = _Codegen(names)
    top = _match_implies(template) if _match_iff(template) is None else None
    if top is not None:
        conjuncts, consequent = _flatten_and(top[0]), top[1]
    else:
        conjuncts, consequent = [], template

    ranked = sorted(
        ((max((names.index(nm) + 1 for nm in metavariable_names(c)), default=1), i, c)
         for i, c in enumerate(conjuncts)),
        key=lambda t: (t[0], t[1]))
    guard, guard_level = "full", 0
    for level, _, conjunct in ranked:
        expr, elevel = cg.emit(conjunct)
        level = max(level, elevel, 1)
        if level > guard_level:
            nxt = cg.fresh()
            cg.add(level, f"{nxt} = {guard} & {expr}")
            guard, guard_level = nxt, level
        else:
            cg.add(guard_level, f"{guard} &= {expr}")
        cg.add(guard_level, f"if not {guard}: continue")

    cons_expr, cons_level = cg.emit(consequent)
    bottom = len(names)
    binding_src = ", ".join(f"'{nm}': e_{i}" for i, nm in enumerate(names))
    cg.add(bottom, (
        f"_bad = {guard} & (full ^ {cons_expr})\n"
        f"if _bad:\n"
        f"    _s = 0\n"
        f"    while not _bad >> _s & 1:\n"
        f"        _s += 1\n"
        f"    return {{{binding_src}}}, _s"))

    return cg.function("_check", "None")


_COMPILED: dict[str, Callable] = {}


def _compiled_checker(a: str) -> Callable[..., tuple[dict, int] | None]:
    fn = _COMPILED.get(a)
    if fn is None:
        fn = _COMPILED[a] = compile_schema_checker(_info(a).conclusion)
    return fn


def schema_valid_on_frame(fr: Frame, a: str):
    """Validity of registry item ``a`` on a frame, metavariables
    quantified over all events: an axiom schema through its compiled
    checker, a rule through ``rule_preserves_validity``. Returns (valid,
    counterexample) where the counterexample is (binding, state)."""
    info = _info(a)
    if info.premises:
        return rule_preserves_validity(fr, info.premises, info.conclusion)
    cex = _compiled_checker(a)(fr)
    return (cex is None), cex


def rule_preserves_validity(fr: Frame, premises, conclusion):
    """Check one rule template on one frame: every event binding that
    makes all premises valid must make the conclusion valid. With no
    premises this is the reference validity scan of a schema template."""
    names = metavariable_names(*premises, conclusion)
    full = fr.full
    for events in product(range(full + 1), repeat=len(names)):
        binding = dict(zip(names, events))
        if all(denotation(fr, p, binding) == full for p in premises):
            mask = denotation(fr, conclusion, binding)
            if mask != full:
                return False, (binding, _first_false_state(mask, fr.n))
    return True, None


# ---------------------------------------------------------------------------
# correspondence

@dataclass(frozen=True)
class CorrespondencePair:
    axiom: str
    property: str | None  # None: the axiom is valid on every frame


# the pinned pairs of the correspondence criteria, each axiom with the
# property of its ``frame.CONDITIONS`` entry
CORRESPONDENCE_PAIRS = tuple(CorrespondencePair(a, property_id(a)) for a in (
    "A_star_1_diamond_0", "A_star_2_diamond_1", "A_diamond_2", "A_star_5b_diamond_3b",
    "A_star_7_diamond_5", "A_diamond_6w", "A_diamond_7s", "A_star_4"))


_WITNESS_CAP = 25


def run_correspondence_suite(n: int, mode: str = "exhaustive", count: int = 10_000,
                             seed: int = 0, pairs=CORRESPONDENCE_PAIRS) -> dict:
    """Sweep frames and compare both sides of every correspondence pair.

    Exhaustive mode enumerates all frames (n <= 2); sampled mode draws
    ``count`` seeded frames. The report carries per-pair satisfaction
    counts, the exact number of disagreeing frames with the first
    ``_WITNESS_CAP`` of them as witnesses, and a strictness witness: the
    first frame validating A_diamond_2 but not A_star_4, separating
    update from revision.
    """
    if mode == "exhaustive":
        frames = enumerate_frames(n)
    elif mode == "sampled":
        rng = random.Random(seed)
        frames = (sample_frame(n, rng) for _ in range(count))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    checkers = {p.axiom: _compiled_checker(p.axiom) for p in pairs}
    stats = {p.axiom: {"property": p.property, "property_count": 0,
                       "axiom_count": 0, "disagreement_count": 0,
                       "disagreements": []} for p in pairs}
    witness = None
    total = 0
    for fr in frames:
        total += 1
        valid_here = {}
        for p in pairs:
            prop = True if p.property is None else check_property(fr, p.property)[0]
            valid = checkers[p.axiom](fr) is None
            valid_here[p.axiom] = valid
            row = stats[p.axiom]
            row["property_count"] += prop
            row["axiom_count"] += valid
            if prop != valid:
                row["disagreement_count"] += 1
                if len(row["disagreements"]) < _WITNESS_CAP:
                    row["disagreements"].append(frame_to_json(fr))
        if (witness is None and valid_here.get("A_diamond_2")
                and valid_here.get("A_star_4") is False):
            witness = frame_to_json(fr)

    disagreements = sum(r["disagreement_count"] for r in stats.values())
    return {
        "states": n,
        "mode": mode if mode == "exhaustive" else {"sampled": {"count": count, "seed": seed}},
        "frames": total,
        "pairs": stats,
        "disagreement_count": disagreements,
        "strictness_witness": witness,
    }
