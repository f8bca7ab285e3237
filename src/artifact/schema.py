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
extensions. The registry holds primitives only: every item is in some
``LOGICS`` entry. A derived theorem or rule, such as ``N_B`` or
``RM_B_cond`` of L, is stated once, by the ``proofkit`` script that
derives it.

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
drives them. ``compile_schema_checker`` is the one scan driver: it has
``_Codegen`` emit the template's clauses inside one loop per
metavariable, ordered by first occurrence in the template
(``formula.metavariable_names``), hoists antecedent conjuncts to the
outermost loop that binds their metavariables, and prunes the inner
loops with a zero guard. The generator's hooks ``bind``, ``some`` and
``refute`` say how a guard is kept, tested and turned into a verdict, so
the same driver emits the lane checkers through the lane mode. Every modal
node is a lookup into the frame's ``modal_tables``, which the frame
builds on the first checker's call and keeps, so all the checkers run
on one frame share one build and no binding rescans the belief map or
the selection. ``rule_preserves_validity`` scans the same bindings
through ``denotation``, its metavariables in first-occurrence order over
the premises, then the conclusion; with no premises it is the reference
validity scan for a schema. Both paths report the same first
counterexample (binding in lexicographic scan order, then lowest state).

A correspondence sweep, ``run_correspondence_suite``, checks its frames
together. It draws them from ``enumerate_frames`` or ``sample_frame`` in
order and streams them into chunks (``lanes.lane_chunks``), frame i of a
chunk being bit i, its "lane", of Python ints. A schema's lane checker,
``compile_schema_checker`` with ``states`` (driving ``lanes._LaneCodegen``,
the lane mode of ``_Codegen``), maps a chunk's lane tables to the int of
lanes whose frames validate it, in one call per chunk with the same
loops, guards and zero tests; a property's row predicate runs once per distinct
(belief, update row) pair while the sweep's memo has room. Counts are
bit counts. A pair's disagreements are the first 25 set lanes of
property XOR valid, and the strictness witness is the lowest lane valid
for ``A_diamond_2`` and not for ``A_star_4``, each frame read back from
its lane. Checkers are compiled on first use and kept by (item, state
count), the count None for a per-frame checker, so the lane checkers are
compiled by a sweep's first call for its state count. The checks of one
frame stay per frame:
``schema_valid_on_frame`` with its first counterexample, and
``frame.check_property``.

Which property goes with which axiom is not written here.
``frame.CONDITIONS`` maps each item to its row predicate, and an item's
property id is its id with the leading ``A`` replaced by ``P``
(``frame.property_id``). ``CORRESPONDENCE_PAIRS`` only lists the eight
axioms the correspondence criteria pin; the revision items ``A_star_3``
and ``A_star_8_diamond_9s`` have properties too, and a sweep takes them
through ``pairs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .formula import (Formula, _match_and, _match_iff, _match_implies, metavariable_names,
                      parse_schema_text)
from .frame import Frame, enumerate_frames, frame_to_json, property_id, sample_frame
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


def _item(id_, premises, conclusion):
    return AxiomInfo(id_, tuple(map(parse_schema_text, premises)),
                     parse_schema_text(conclusion))


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
    _item("A_star_1_diamond_0", [], "B(PHI > PSI) & B(PHI > (PSI -> CHI)) -> B(PHI > CHI)"),
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
]

REGISTRY: dict[str, AxiomInfo] = {e.id: e for e in _ENTRIES}
AXIOM_IDS = tuple(REGISTRY)
L_CORE_IDS = ("D_B", "C_box", "C_B", "C_cond", "NB")

# The items each logic may cite as primitive. A lemma or rule script
# proved in logic Y may be cited in logic X when LOGICS[Y] <= LOGICS[X].
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


# ---------------------------------------------------------------------------
# compiled whole-frame checker

def _flatten_and(f: Formula) -> list[Formula]:
    m = _match_and(f)
    if m is None or _match_iff(f) is not None:
        return [f]
    return _flatten_and(m[0]) + _flatten_and(m[1])


def compile_schema_checker(template: Formula, states: int | None = None) -> Callable:
    """Build a specialized validity scanner for one schema template.

    The result maps a frame to None (valid) or the first counterexample
    (metavariable binding, state), scanning bindings lexicographically
    in first-occurrence metavariable order with events ascending.

    With ``states`` given it is a lane checker instead (``lanes``): it
    maps the lane tables of a chunk of frames on that many states
    (``bel, cnd, lanes`` of a ``lanes.LaneChunk``) to the lanes whose
    frames validate the template.
    """
    names = metavariable_names(template)
    if not names:
        raise ValueError("schema template has no metavariables")
    top = _match_implies(template) if _match_iff(template) is None else None
    if top is not None:
        conjuncts, consequent = _flatten_and(top[0]), top[1]
    else:
        conjuncts, consequent = [], template

    ranked = sorted((max((names.index(nm) + 1 for nm in metavariable_names(c)), default=1), i, c)
                    for i, c in enumerate(conjuncts))
    if states is None:
        cg = _Codegen(names)
    else:
        from .lanes import _LaneCodegen  # imported on the first sweep (see lanes)

        cg = _LaneCodegen(names, states)
    guard = (cg.top, 0)
    for level, _, conjunct in ranked:
        x = cg.emit(conjunct)
        level = max(level, x[1], 1)
        guard = cg.bind(level, cg.join("&", guard, x))
        cg.add(level, f"if not {cg.some(guard)}: continue")
    cg.refute(cg.join("&", guard, cg.neg(cg.emit(consequent))))
    return cg.function(*cg.scan)


# compiled checkers by (item, states), states None for a per-frame checker
_COMPILED: dict[tuple[str, int | None], Callable] = {}


def _checker(a: str, states: int | None = None) -> Callable:
    fn = _COMPILED.get((a, states))
    if fn is None:
        fn = _COMPILED[a, states] = compile_schema_checker(_info(a).conclusion, states)
    return fn


def schema_valid_on_frame(fr: Frame, a: str):
    """Validity of registry item ``a`` on a frame, metavariables
    quantified over all events: an axiom schema through its compiled
    checker, a rule through ``rule_preserves_validity``. Returns (valid,
    counterexample) where the counterexample is (binding, state)."""
    info = _info(a)
    if info.premises:
        return rule_preserves_validity(fr, info.premises, info.conclusion)
    cex = _checker(a)(fr)
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
                return False, (binding, _lowest(full & ~mask))
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
    update from revision. The frames are checked together, one lane
    each, a chunk of them per lane-checker call (``lanes``).
    """
    if mode == "exhaustive":
        frames = enumerate_frames(n)
    elif mode == "sampled":
        rng = random.Random(seed)
        frames = (sample_frame(n, rng) for _ in range(count))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    from .lanes import lane_chunks  # imported on the first sweep (see lanes)

    properties = list(dict.fromkeys(p.property for p in pairs if p.property is not None))
    checkers = {p.axiom: _checker(p.axiom, n) for p in pairs}
    stats = {p.axiom: {"property": p.property, "property_count": 0,
                       "axiom_count": 0, "disagreement_count": 0,
                       "disagreements": []} for p in pairs}
    witness = None
    total = 0
    for chunk in lane_chunks(frames, n, properties):
        lanes = chunk.lanes
        valid = {a: check(chunk.bel, chunk.cnd, lanes) for a, check in checkers.items()}
        holds = {prop: chunk.holds(i) for i, prop in enumerate(properties)}
        for p in pairs:
            prop = lanes if p.property is None else holds[p.property]
            row = stats[p.axiom]
            row["property_count"] += prop.bit_count()
            row["axiom_count"] += valid[p.axiom].bit_count()
            odd = prop ^ valid[p.axiom]
            row["disagreement_count"] += odd.bit_count()
            while odd and len(row["disagreements"]) < _WITNESS_CAP:
                row["disagreements"].append(frame_to_json(chunk.frame(_lowest(odd))))
                odd &= odd - 1
        if witness is None and "A_diamond_2" in valid and "A_star_4" in valid:
            split = valid["A_diamond_2"] & ~valid["A_star_4"]
            if split:
                witness = frame_to_json(chunk.frame(_lowest(split)))
        total += chunk.count

    disagreements = sum(r["disagreement_count"] for r in stats.values())
    return {
        "states": n,
        "mode": mode if mode == "exhaustive" else {"sampled": {"count": count, "seed": seed}},
        "frames": total,
        "pairs": stats,
        "disagreement_count": disagreements,
        "strictness_witness": witness,
    }


def _lowest(lanes: int) -> int:
    return (lanes & -lanes).bit_length() - 1
