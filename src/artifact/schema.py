"""Axiom-schema registry, schema validity on frames, and correspondence.

A schema is valid on a frame when every instance is true at every state
of every model based on that frame. Because the schemas restrict their
metavariables to Boolean formulas and every event is the truth set of
some Boolean formula under a suitable valuation, quantifying
metavariables directly over the frame's events is sound and complete.
The checker therefore plugs metavariable events straight into the truth
clauses and never enumerates formulas.

Two evaluation paths exist. ``eval_schema_instance`` is the direct
recursive reference. ``compile_schema_checker`` generates specialized
Python source for a whole-frame validity scan: metavariable loops are
ordered by first occurrence in the template, antecedent conjuncts are
hoisted to the outermost loop that binds their metavariables, and a
zero guard prunes the inner loops. Both paths report the same first
counterexample (binding in lexicographic scan order, then lowest state).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping

from .formula import (
    Atom,
    Believes,
    Box,
    Cond,
    Formula,
    MetaAtom,
    Not,
    Or,
    Schema,
    _match_and,
    _match_iff,
    _match_implies,
    metavariable_names,
    parse_schema_text,
)
from .frame import Frame, check_property, enumerate_frames, frame_to_json, sample_frame

__all__ = [
    "AxiomInfo", "RuleTemplate", "REGISTRY", "AXIOM_IDS", "L_CORE_IDS",
    "KM_IDS", "AGM_IDS", "CorrespondencePair", "CORRESPONDENCE_PAIRS",
    "eval_schema_instance", "schema_valid_on_frame", "rule_valid_on_frame",
    "rule_preserves_validity", "compile_schema_checker",
    "correspondence_check", "run_correspondence_suite",
]


@dataclass(frozen=True)
class RuleTemplate:
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class AxiomInfo:
    id: str
    schema: Schema | None
    rule: RuleTemplate | None
    in_km: bool = False       # listed in the update logic's extension
    in_agm: bool = False      # listed in the revision logic's extension
    theorem_of_l: bool = False


def _schema(id_, text, **flags):
    return AxiomInfo(id_, Schema(id_, parse_schema_text(text)), None, **flags)


def _rule(id_, premises, conclusion, **flags):
    tpl = RuleTemplate(tuple(parse_schema_text(p) for p in premises),
                       parse_schema_text(conclusion))
    return AxiomInfo(id_, None, tpl, **flags)


_ENTRIES = [
    # base-logic axioms (general metavariables)
    _schema("D_B", "B ALPHA -> ~B ~ALPHA"),
    _schema("C_box", "[]ALPHA & []BETA -> [](ALPHA & BETA)"),
    _schema("C_B", "B ALPHA & B BETA -> B(ALPHA & BETA)"),
    _schema("C_cond", "(GAMMA > ALPHA) & (GAMMA > BETA) -> (GAMMA > (ALPHA & BETA))"),
    _schema("NB", "[]ALPHA -> B ALPHA"),
    # update-logic axioms (Boolean metavariables)
    _schema("A_star_1_diamond_0",
            "B(PHI > PSI) & B(PHI > (PSI -> CHI)) -> B(PHI > CHI)",
            in_km=True, in_agm=True, theorem_of_l=True),
    _schema("A_star_2_diamond_1", "B(PHI > PHI)", in_km=True, in_agm=True),
    _schema("A_diamond_2", "B PHI -> (B PSI <-> B(PHI > PSI))", in_km=True),
    _schema("A_star_5b_diamond_3b",
            "~[]~PHI & B(PHI > PSI) -> ~B(PHI > ~PSI)", in_km=True, in_agm=True),
    _schema("A_star_7_diamond_5",
            "~[]~(PHI & PSI) & B((PHI & PSI) > CHI) -> B(PHI > (PSI -> CHI))",
            in_km=True, in_agm=True),
    _schema("A_diamond_6w",
            "~[]~(PHI & PSI) & B(PHI > PSI) & B(PSI > PHI)"
            " -> (B(PHI > CHI) <-> B(PSI > CHI))", in_km=True),
    _schema("A_diamond_7s",
            "~[]~PHI & ~[]~PSI & B(PHI > CHI) & B(PSI > CHI)"
            " -> B((PHI | PSI) > CHI)", in_km=True),
    # revision-logic extras
    _schema("A_star_3", "~[]~PHI & B(PHI > PSI) -> B(PHI -> PSI)", in_agm=True),
    _schema("A_star_4", "~B ~PHI & B(PHI -> PSI) -> B(PHI > PSI)", in_agm=True),
    _schema("A_star_8_diamond_9s",
            "~B(PHI > ~PSI) & B(PHI > (PSI -> CHI)) -> B((PHI & PSI) > (PSI & CHI))",
            in_agm=True),
    # rules of inference shared by both extensions
    _rule("R_star_5a_diamond_3a", ["~PHI"], "B(PHI > PSI)", in_km=True, in_agm=True),
    _rule("R_star_6_diamond_4", ["PHI <-> PSI"],
          "B(PHI > CHI) <-> B(PSI > CHI)", in_km=True, in_agm=True),
    # derived theorems and rules of the base logic
    _schema("C_not_box_not", "~[]~(ALPHA & BETA) -> ~[]~ALPHA", theorem_of_l=True),
    _schema("C_B_inv", "B(ALPHA & BETA) -> B ALPHA & B BETA", theorem_of_l=True),
    _schema("K_cond", "(ALPHA > BETA) & (ALPHA > (BETA -> GAMMA)) -> (ALPHA > GAMMA)",
            theorem_of_l=True),
    _rule("RM_not_box_not", ["ALPHA -> BETA"], "~[]~ALPHA -> ~[]~BETA",
          theorem_of_l=True),
    _rule("N_B", ["ALPHA"], "B ALPHA", theorem_of_l=True),
    _rule("RM_B_cond", ["ALPHA -> BETA"], "B(GAMMA > ALPHA) -> B(GAMMA > BETA)",
          theorem_of_l=True),
]

REGISTRY: dict[str, AxiomInfo] = {e.id: e for e in _ENTRIES}
AXIOM_IDS = tuple(REGISTRY)
L_CORE_IDS = ("D_B", "C_box", "C_B", "C_cond", "NB")
KM_IDS = tuple(e.id for e in _ENTRIES if e.in_km)
AGM_IDS = tuple(e.id for e in _ENTRIES if e.in_agm)


def _info(a: str) -> AxiomInfo:
    try:
        return REGISTRY[a]
    except KeyError:
        raise ValueError(f"unknown axiom id {a!r}") from None


# ---------------------------------------------------------------------------
# reference evaluator

def eval_schema_instance(fr: Frame, template: Formula, binding: Mapping[str, int]) -> int:
    """Truth-set mask of the template with metavariables denoting events."""
    full = fr.full
    match template:
        case MetaAtom(name, _):
            e = binding[name]
            if e & ~full:
                raise ValueError(f"event for {name} out of the frame's universe")
            return e
        case Not(child):
            return full & ~eval_schema_instance(fr, child, binding)
        case Or(left, right):
            return (eval_schema_instance(fr, left, binding)
                    | eval_schema_instance(fr, right, binding))
        case Box(child):
            return full if eval_schema_instance(fr, child, binding) == full else 0
        case Believes(child):
            e = eval_schema_instance(fr, child, binding)
            out = 0
            for s in range(fr.n):
                if fr.belief[s] & ~e == 0:
                    out |= 1 << s
            return out
        case Cond(antecedent, consequent):
            ea = eval_schema_instance(fr, antecedent, binding)
            if ea == 0:
                return full
            eb = eval_schema_instance(fr, consequent, binding)
            out = 0
            for s in range(fr.n):
                if fr.selection[s][ea - 1] & ~eb == 0:
                    out |= 1 << s
            return out
        case Atom(name):
            raise ValueError(f"concrete atom {name!r} in a schema template")
    raise TypeError(f"not a formula node: {template!r}")


def _scan_names(templates) -> list[str]:
    """Metavariables in order of first occurrence (preorder, left to right)."""
    seen: list[str] = []

    def walk(f: Formula) -> None:
        match f:
            case MetaAtom(name, _):
                if name not in seen:
                    seen.append(name)
            case Not(c) | Believes(c) | Box(c):
                walk(c)
            case Or(a, b) | Cond(a, b):
                walk(a)
                walk(b)

    for t in templates:
        walk(t)
    return seen


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


class _Codegen:
    def __init__(self, names: list[str]):
        self.names = names
        self.blocks: dict[int, list[str]] = {i: [] for i in range(len(names) + 1)}
        self.memo: dict[Formula, tuple[str, int]] = {}
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def add(self, level: int, text: str) -> None:
        self.blocks[level].extend(text.split("\n"))

    def emit(self, f: Formula) -> tuple[str, int]:
        got = self.memo.get(f)
        if got is not None:
            return got
        if (m := _match_iff(f)) is not None:
            (ex, lx), (ey, ly) = self.emit(m[0]), self.emit(m[1])
            out = (f"(full ^ ({ex} ^ {ey}))", max(lx, ly))
        elif (m := _match_and(f)) is not None:
            (ex, lx), (ey, ly) = self.emit(m[0]), self.emit(m[1])
            out = (f"({ex} & {ey})", max(lx, ly))
        elif (m := _match_implies(f)) is not None:
            (ex, lx), (ey, ly) = self.emit(m[0]), self.emit(m[1])
            out = (f"((full ^ {ex}) | {ey})", max(lx, ly))
        else:
            match f:
                case MetaAtom(name, _):
                    out = (f"e_{self.names.index(name)}", self.names.index(name) + 1)
                case Not(child):
                    ex, lx = self.emit(child)
                    out = (f"(full ^ {ex})", lx)
                case Or(left, right):
                    (ex, lx), (ey, ly) = self.emit(left), self.emit(right)
                    out = (f"({ex} | {ey})", max(lx, ly))
                case Box(child):
                    ex, lx = self.emit(child)
                    v = self.fresh()
                    self.add(lx, f"{v} = full if {ex} == full else 0")
                    out = (v, lx)
                case Believes(child):
                    ex, lx = self.emit(child)
                    v = self.fresh()
                    self.add(lx, (
                        f"_r{v} = full ^ {ex}\n"
                        f"{v} = 0\n"
                        f"_m{v} = 1\n"
                        f"for _b in belief:\n"
                        f"    if _b & _r{v} == 0:\n"
                        f"        {v} |= _m{v}\n"
                        f"    _m{v} <<= 1"))
                    out = (v, lx)
                case Cond(antecedent, consequent):
                    (ex, lx), (ey, ly) = self.emit(antecedent), self.emit(consequent)
                    v = self.fresh()
                    self.add(max(lx, ly), (
                        f"if {ex}:\n"
                        f"    _r{v} = full ^ {ey}\n"
                        f"    _i{v} = {ex} - 1\n"
                        f"    {v} = 0\n"
                        f"    _m{v} = 1\n"
                        f"    for _row in sel:\n"
                        f"        if _row[_i{v}] & _r{v} == 0:\n"
                        f"            {v} |= _m{v}\n"
                        f"        _m{v} <<= 1\n"
                        f"else:\n"
                        f"    {v} = full"))
                    out = (v, max(lx, ly))
                case Atom(name):
                    raise ValueError(f"concrete atom {name!r} in a schema template")
                case _:
                    raise TypeError(f"not a formula node: {f!r}")
        self.memo[f] = out
        return out


def compile_schema_checker(template: Formula) -> Callable[[Frame], tuple[dict, int] | None]:
    """Build a specialized validity scanner for one schema template.

    The result maps a frame to None (valid) or the first counterexample
    (metavariable binding, state), scanning bindings lexicographically in
    first-occurrence metavariable order with events ascending.
    """
    names = _scan_names([template])
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

    lines = [
        "def _check(fr):",
        "    full = fr.full",
        "    belief = fr.belief",
        "    sel = fr.selection",
        "    ev = range(full + 1)",
    ]
    pad = "    "
    for line in cg.blocks[0]:
        lines.append(pad + line)
    for i in range(len(names)):
        lines.append(pad * (i + 1) + f"for e_{i} in ev:")
        for line in cg.blocks[i + 1]:
            lines.append(pad * (i + 2) + line)
    lines.append("    return None")
    ns: dict = {}
    exec("\n".join(lines), ns)
    return ns["_check"]


_COMPILED: dict[str, Callable] = {}


def _compiled_checker(a: str) -> Callable[[Frame], tuple[dict, int] | None]:
    fn = _COMPILED.get(a)
    if fn is None:
        fn = _COMPILED[a] = compile_schema_checker(_info(a).schema.template)
    return fn


def schema_valid_on_frame(fr: Frame, a: str):
    """Validity of an axiom schema on a frame, metavariables quantified
    over all events. Returns (valid, counterexample) where the
    counterexample is (binding, state)."""
    info = _info(a)
    if info.schema is None:
        raise ValueError(f"{a} is a rule of inference, not a formula schema")
    cex = _compiled_checker(a)(fr)
    return (cex is None), cex


def schema_valid_on_frame_generic(fr: Frame, template: Formula):
    """Reference implementation of the validity scan (same order)."""
    names = _scan_names([template])
    full = fr.full
    for events in product(range(full + 1), repeat=len(names)):
        binding = dict(zip(names, events))
        mask = eval_schema_instance(fr, template, binding)
        if mask != full:
            return False, (binding, _first_false_state(mask, fr.n))
    return True, None


def rule_preserves_validity(fr: Frame, premises, conclusion):
    """Check one rule template on one frame: every event binding that
    makes all premises valid must make the conclusion valid."""
    names = _scan_names(list(premises) + [conclusion])
    full = fr.full
    for events in product(range(full + 1), repeat=len(names)):
        binding = dict(zip(names, events))
        if all(eval_schema_instance(fr, p, binding) == full for p in premises):
            mask = eval_schema_instance(fr, conclusion, binding)
            if mask != full:
                return False, (binding, _first_false_state(mask, fr.n))
    return True, None


def rule_valid_on_frame(fr: Frame, r: str):
    info = _info(r)
    if info.rule is None:
        raise ValueError(f"{r} is a formula schema, not a rule of inference")
    return rule_preserves_validity(fr, info.rule.premises, info.rule.conclusion)


# ---------------------------------------------------------------------------
# correspondence

@dataclass(frozen=True)
class CorrespondencePair:
    axiom: str
    property: str | None  # None: the axiom is valid on every frame


CORRESPONDENCE_PAIRS = (
    CorrespondencePair("A_star_1_diamond_0", None),
    CorrespondencePair("A_star_2_diamond_1", "P_star_2_diamond_1"),
    CorrespondencePair("A_diamond_2", "P_diamond_2"),
    CorrespondencePair("A_star_5b_diamond_3b", "P_star_5b_diamond_3b"),
    CorrespondencePair("A_star_7_diamond_5", "P_star_7_diamond_5"),
    CorrespondencePair("A_diamond_6w", "P_diamond_6w"),
    CorrespondencePair("A_diamond_7s", "P_diamond_7s"),
    CorrespondencePair("A_star_4", "P_star_4"),
)


@dataclass(frozen=True)
class CorrespondenceResult:
    property_holds: bool
    axiom_valid: bool

    @property
    def agree(self) -> bool:
        return self.property_holds == self.axiom_valid


def correspondence_check(fr: Frame, pair: CorrespondencePair) -> CorrespondenceResult:
    prop = True if pair.property is None else check_property(fr, pair.property)[0]
    valid, _ = schema_valid_on_frame(fr, pair.axiom)
    return CorrespondenceResult(prop, valid)


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
