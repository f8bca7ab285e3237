"""Models, the truth definition, and event-level belief-change checks.

A model is a frame plus a valuation of atoms as events. Truth of a
formula at a state follows six clauses: atoms by valuation, negation and
disjunction pointwise, []a holds anywhere iff a holds everywhere, (a > b)
holds at s iff a denotes the empty event (vacuous case) or the selection
f(s, den(a)) lies inside den(b), and B a holds at s iff the believed
event lies inside den(a).

The belief-change reading: psi belongs to the changed belief set at s
after input phi iff update_event(m, s, den(phi)) is a subset of den(psi).
``check_km_axiom`` decides the update postulates with formulas replaced
by their denotations, running the row predicates of ``frame`` on the one
state's row U(s, ·), the same predicates the frame properties run on
every state's row; ``km_formula_instances`` produces the matching
formula-level statements over characteristic formulas, so the two layers
can be played against each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .formula import (
    And,
    Atom,
    Believes,
    Box,
    Cond,
    Formula,
    Iff,
    Implies,
    MetaAtom,
    Not,
    Or,
    is_boolean,
)
from .frame import (Frame, FrameFormatError, bits, conjunction, consistency, disjunction,
                    frame_from_json, frame_to_json, indices_from_mask, mask_from_indices,
                    reciprocity, success, unsurprising)

__all__ = [
    "Model", "BeliefState", "UnvaluedAtomError", "NonSeparatingValuationError",
    "make_model", "belief_state", "truth_set", "holds_at", "update_event",
    "KM_AXIOM_IDS", "check_km_axiom", "characteristic_formula",
    "km_formula_instances", "check_km_axiom_via_formulas", "compile_truth",
    "model_to_json", "model_from_json",
]

_ATOM_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")


class UnvaluedAtomError(ValueError):
    pass


class NonSeparatingValuationError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Model:
    frame: Frame
    valuation: tuple[tuple[str, int], ...]  # sorted (atom, event) pairs

    def value(self, name: str) -> int:
        for atom, event in self.valuation:
            if atom == name:
                return event
        raise UnvaluedAtomError(f"atom {name!r} has no value in this model")

    def valuation_map(self) -> dict[str, int]:
        return dict(self.valuation)


def make_model(frame: Frame, valuation: Mapping[str, int]) -> Model:
    full = frame.full
    items = []
    for name in sorted(valuation):
        if not _ATOM_NAME.match(name):
            raise ValueError(f"bad atom name {name!r}")
        event = valuation[name]
        if event & ~full:
            raise ValueError(f"valuation of {name!r} out of the frame's universe")
        items.append((name, event))
    return Model(frame, tuple(items))


@dataclass(frozen=True, slots=True)
class BeliefState:
    model: Model
    s: int
    belief_event: int


def belief_state(m: Model, s: int) -> BeliefState:
    return BeliefState(m, s, m.frame.belief[s])


# ---------------------------------------------------------------------------
# truth

def truth_set(m: Model, f: Formula) -> int:
    """The event {s : s satisfies f}, computed bottom-up."""
    fr = m.frame
    full = fr.full
    match f:
        case Atom(name):
            return m.value(name)
        case Not(child):
            return full & ~truth_set(m, child)
        case Or(left, right):
            return truth_set(m, left) | truth_set(m, right)
        case Box(child):
            return full if truth_set(m, child) == full else 0
        case Believes(child):
            e = truth_set(m, child)
            out = 0
            for s in range(fr.n):
                if fr.belief[s] & ~e == 0:
                    out |= 1 << s
            return out
        case Cond(antecedent, consequent):
            ea = truth_set(m, antecedent)
            if ea == 0:
                return full  # vacuous case: contradictory antecedent
            eb = truth_set(m, consequent)
            out = 0
            for s in range(fr.n):
                if fr.selection[s][ea - 1] & ~eb == 0:
                    out |= 1 << s
            return out
        case MetaAtom(name, _):
            raise ValueError(f"metavariable {name} in a concrete formula")
    raise TypeError(f"not a formula node: {f!r}")


def holds_at(m: Model, s: int, f: Formula) -> bool:
    if not 0 <= s < m.frame.n:
        raise ValueError(f"state {s} out of range")
    return bool(truth_set(m, f) >> s & 1)


def update_event(m: Model, s: int, event: int) -> int:
    """The union of f(s', E) over believed s': the semantic kernel of the
    changed belief set. psi is in the changed set iff this is inside
    den(psi)."""
    if event == 0:
        raise ValueError("empty event: inconsistent informational input")
    return m.frame.update(s, event)


# ---------------------------------------------------------------------------
# fast evaluator

def compile_truth(f: Formula, valuation: Mapping[str, int], n: int) -> Callable[[Frame], int]:
    """Compile a formula to a closure Frame -> truth-set mask.

    The valuation and state count are fixed at compile time, so Boolean
    subformulas fold into constants and only the modal structure is
    evaluated per frame. Agrees with truth_set on every frame with n
    states (a tested property)."""
    full = (1 << n) - 1

    def fold(g: Formula) -> int:
        match g:
            case Atom(name):
                try:
                    event = valuation[name]
                except KeyError:
                    raise UnvaluedAtomError(f"atom {name!r} has no value") from None
                if event & ~full:
                    raise ValueError(f"valuation of {name!r} out of the universe")
                return event
            case Not(child):
                return full & ~fold(child)
            case Or(left, right):
                return fold(left) | fold(right)
        raise TypeError(f"not a Boolean node: {g!r}")

    def build(g: Formula) -> Callable[[Frame], int]:
        if is_boolean(g):
            if isinstance(g, MetaAtom):
                raise ValueError(f"metavariable {g.name} in a concrete formula")
            mask = fold(g)
            return lambda fr: mask
        match g:
            case Not(child):
                cc = build(child)
                return lambda fr: full & ~cc(fr)
            case Or(left, right):
                cl, cr = build(left), build(right)
                return lambda fr: cl(fr) | cr(fr)
            case Box(child):
                cc = build(child)
                return lambda fr: full if cc(fr) == full else 0
            case Believes(child):
                cc = build(child)

                def run_believes(fr: Frame, _cc=cc) -> int:
                    rest = full & ~_cc(fr)
                    out, bit = 0, 1
                    for b in fr.belief:
                        if b & rest == 0:
                            out |= bit
                        bit <<= 1
                    return out

                return run_believes
            case Cond(antecedent, consequent):
                ca, cb = build(antecedent), build(consequent)

                def run_cond(fr: Frame, _ca=ca, _cb=cb) -> int:
                    ea = _ca(fr)
                    if ea == 0:
                        return full
                    rest = full & ~_cb(fr)
                    out, bit = 0, 1
                    idx = ea - 1
                    for row in fr.selection:
                        if row[idx] & rest == 0:
                            out |= bit
                        bit <<= 1
                    return out

                return run_cond
            case MetaAtom(name, _):
                raise ValueError(f"metavariable {name} in a concrete formula")
        raise TypeError(f"not a formula node: {g!r}")

    return build(f)


# ---------------------------------------------------------------------------
# event-level update postulates

# None marks the postulates that hold on every model: the changed belief
# set is deductively closed, contradiction-updated and
# denotation-determined by construction.
_KM_CONDITIONS = {
    "K_diamond_0": None,
    "K_diamond_1": success,
    "K_diamond_2": unsurprising,
    "K_diamond_3a": None,
    "K_diamond_3b": consistency,
    "K_diamond_4": None,
    "K_diamond_5": conjunction,
    "K_diamond_6w": reciprocity,
    "K_diamond_7s": disjunction,
}

KM_AXIOM_IDS = tuple(_KM_CONDITIONS)


def check_km_axiom(m: Model, s: int, a: str):
    """Decide an update postulate at state s with formulas replaced by
    their denotations, quantifying over non-empty events (pairs where the
    postulate mentions two inputs): the postulate's row predicate on
    U(s, ·). Returns (holds, counterexample) where the counterexample is
    (E,) or (E, F).

    K_diamond_0, K_diamond_3a and K_diamond_4 hold on every model.
    """
    try:
        condition = _KM_CONDITIONS[a]
    except KeyError:
        raise ValueError(f"unknown update postulate {a!r}") from None
    fr = m.frame
    if not 0 <= s < fr.n:
        raise ValueError(f"state {s} out of range")
    if condition is None:
        return True, None
    cex = condition(fr.update_row(s), fr.belief[s], fr.full)
    return cex is None, cex


# ---------------------------------------------------------------------------
# characteristic formulas and the formula-level twin

def _state_description(atoms: tuple[tuple[str, int], ...], s: int) -> Formula:
    literals: list[Formula] = []
    for name, event in atoms:
        literals.append(Atom(name) if event >> s & 1 else Not(Atom(name)))
    f = literals[-1]
    for lit in reversed(literals[:-1]):
        f = And(lit, f)
    return f


def _characteristic(n: int, atoms: tuple[tuple[str, int], ...], event: int) -> Formula:
    if not atoms:
        raise NonSeparatingValuationError("valuation has no atoms")
    profiles = [tuple(e >> s & 1 for _, e in atoms) for s in range(n)]
    if len(set(profiles)) != n:
        raise NonSeparatingValuationError(
            "valuation does not separate the states")
    if event == 0:
        name = atoms[0][0]
        return And(Atom(name), Not(Atom(name)))
    parts = [_state_description(atoms, s) for s in bits(event)]
    f = parts[-1]
    for g in reversed(parts[:-1]):
        f = Or(g, f)
    return f


def characteristic_formula(m: Model, event: int) -> Formula:
    """A Boolean formula whose truth set is exactly the given event.

    Needs a valuation under which distinct states have distinct atom
    profiles; the result is a disjunction of state descriptions.
    """
    if event & ~m.frame.full:
        raise ValueError("event out of the frame's universe")
    return _characteristic(m.frame.n, m.valuation, event)


def km_formula_instances(n: int, valuation: Mapping[str, int]) -> dict[str, list[Formula]]:
    """Formula-level restatements of the update postulates.

    For each postulate, a list of closed formulas over characteristic
    formulas of the valuation; the postulate holds at state s in the
    formula sense iff every listed formula is true at s. Quantifier
    ranges mirror the event-level checks, so on any frame with n states
    the two layers must agree.
    """
    atoms = tuple(sorted(valuation.items()))
    full = (1 << n) - 1
    k = {e: _characteristic(n, atoms, e) for e in range(full + 1)}
    events = range(1, full + 1)
    every = range(full + 1)

    def b(e: int, f: int) -> Formula:
        return Believes(Cond(k[e], k[f]))

    out: dict[str, list[Formula]] = {a: [] for a in KM_AXIOM_IDS}
    out["K_diamond_0"] = [
        Implies(And(b(e, f), Believes(Cond(k[e], Implies(k[f], k[g])))), b(e, g))
        for e in every for f in events for g in events
    ]
    out["K_diamond_1"] = [b(e, e) for e in events]
    out["K_diamond_2"] = [
        Implies(Believes(k[e]), Iff(b(e, f), Believes(k[f])))
        for e in events for f in every
    ]
    out["K_diamond_3a"] = [b(0, f) for f in every]
    out["K_diamond_3b"] = [Not(b(e, 0)) for e in events]
    out["K_diamond_4"] = [
        Iff(b(e, f), Believes(Cond(Not(Not(k[e])), k[f])))
        for e in events for f in every
    ]
    out["K_diamond_5"] = [
        Implies(And(Not(Box(Not(And(k[e], k[f])))),
                    Believes(Cond(And(k[e], k[f]), k[g]))),
                Believes(Cond(k[e], Implies(k[f], k[g]))))
        for e in events for f in events if e & f for g in every
    ]
    out["K_diamond_6w"] = [
        Implies(And(Not(Box(Not(And(k[e], k[f])))), And(b(e, f), b(f, e))),
                Iff(b(e, g), b(f, g)))
        for e in events for f in events if e & f for g in every
    ]
    out["K_diamond_7s"] = [
        Implies(And(Not(Box(Not(k[e]))),
                    And(Not(Box(Not(k[f]))), And(b(e, g), b(f, g)))),
                Believes(Cond(Or(k[e], k[f]), k[g])))
        for e in events for f in events for g in every
    ]
    return out


def check_km_axiom_via_formulas(m: Model, s: int, a: str,
                                instances: dict[str, list[Formula]] | None = None) -> bool:
    """The formula-level twin of check_km_axiom: evaluate the postulate's
    characteristic-formula instances at s through the truth definition.

    Pass a precomputed ``km_formula_instances`` result to amortize the
    formula construction over many models with the same valuation."""
    if instances is None:
        instances = km_formula_instances(m.frame.n, m.valuation_map())
    return all(holds_at(m, s, f) for f in instances[a])


# ---------------------------------------------------------------------------
# serialization

def model_to_json(m: Model) -> dict:
    doc = frame_to_json(m.frame)
    doc["valuation"] = {name: indices_from_mask(e) for name, e in m.valuation}
    return doc


def model_from_json(data) -> Model:
    fr = frame_from_json(data)
    val = data.get("valuation")
    if not isinstance(val, dict):
        raise FrameFormatError("model document needs a valuation object")
    valuation = {}
    for name, indices in val.items():
        if not isinstance(name, str) or not _ATOM_NAME.match(name):
            raise FrameFormatError(f"bad atom name {name!r}")
        valuation[name] = mask_from_indices(indices, fr.n)
    return make_model(fr, valuation)
