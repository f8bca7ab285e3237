"""Models, the truth definition, and event-level belief-change checks.

A model is a frame plus a valuation of atoms as events. Truth of a
formula at a state follows six clauses: atoms by valuation, negation and
disjunction pointwise, []a holds anywhere iff a holds everywhere, (a > b)
holds at s iff a denotes the empty event (vacuous case) or the selection
f(s, den(a)) lies inside den(b), and B a holds at s iff the believed
event lies inside den(a).

The clauses are written twice, once per way of running them.
``denotation`` is the recursive reference: it evaluates a formula on a
frame with atoms and schema metavariables alike looked up in one
mapping to events, and ``truth_set`` is it under a model's valuation.
``_Codegen`` emits the same clauses as Python source, and both
compilers build on it: ``compile_truth`` for concrete formulas under a
fixed valuation, and ``schema.compile_schema_checker`` for whole-frame
schema validity scans.

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
from typing import Callable, Mapping

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
    _match_and,
    _match_iff,
    _match_implies,
)
from .frame import (Frame, FrameFormatError, bits, conjunction, consistency, disjunction,
                    frame_from_json, frame_to_json, indices_from_mask, mask_from_indices,
                    reciprocity, success, unsurprising)

__all__ = [
    "Model", "BeliefState", "UnvaluedAtomError", "NonSeparatingValuationError",
    "make_model", "belief_state", "denotation", "truth_set", "holds_at", "update_event",
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

def denotation(fr: Frame, f: Formula, env: Mapping[str, int]) -> int:
    """The event {s : s satisfies f}, computed bottom-up, with atoms and
    metavariables denoting the events ``env`` gives them. Atom names are
    lowercase and metavariable names uppercase, so one mapping serves a
    model's valuation and a schema's binding alike."""
    full = fr.full
    match f:
        case Atom(name) | MetaAtom(name, _):
            e = env.get(name)
            if e is None:
                if isinstance(f, MetaAtom):
                    raise ValueError(f"metavariable {name} in a concrete formula")
                raise UnvaluedAtomError(f"atom {name!r} has no value in this model")
            if e & ~full:
                raise ValueError(f"event for {name} out of the frame's universe")
            return e
        case Not(child):
            return full & ~denotation(fr, child, env)
        case Or(left, right):
            return denotation(fr, left, env) | denotation(fr, right, env)
        case Box(child):
            return full if denotation(fr, child, env) == full else 0
        case Believes(child):
            e = denotation(fr, child, env)
            out = 0
            for s in range(fr.n):
                if fr.belief[s] & ~e == 0:
                    out |= 1 << s
            return out
        case Cond(antecedent, consequent):
            ea = denotation(fr, antecedent, env)
            if ea == 0:
                return full  # vacuous case: contradictory antecedent
            eb = denotation(fr, consequent, env)
            out = 0
            for s in range(fr.n):
                if fr.selection[s][ea - 1] & ~eb == 0:
                    out |= 1 << s
            return out
    raise TypeError(f"not a formula node: {f!r}")


def truth_set(m: Model, f: Formula) -> int:
    return denotation(m.frame, f, m.valuation_map())


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
# code generation

class _Codegen:
    """Emits the truth clauses as Python source over the locals ``full``,
    ``belief`` and ``sel`` of the generated function. Metavariable
    ``names[i]`` is the loop variable ``e_i``, and every expression
    carries its level: how many of those loops it sits inside. Modal
    nodes become statements in their level's block; Boolean nodes stay
    expressions. A concrete atom is its event in ``valuation``."""

    def __init__(self, names: list[str], valuation: Mapping[str, int] | None = None):
        self.names = names
        self.valuation = {} if valuation is None else valuation
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
                    if name not in self.names:
                        raise ValueError(f"metavariable {name} in a concrete formula")
                    out = (f"e_{self.names.index(name)}", self.names.index(name) + 1)
                case Atom(name):
                    if name not in self.valuation:
                        raise UnvaluedAtomError(f"concrete atom {name!r} has no value")
                    out = (str(self.valuation[name]), 0)
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
                case _:
                    raise TypeError(f"not a formula node: {f!r}")
        self.memo[f] = out
        return out

    def function(self, name: str, result: str) -> Callable[[Frame], object]:
        """``def name(fr)``: block 0, then one loop over the frame's events
        per metavariable with block i inside loop i, then ``return
        result``. The function is returned without the namespace it was
        executed in, so the two do not form a reference cycle."""
        lines = [
            f"def {name}(fr):",
            "    full = fr.full",
            "    belief = fr.belief",
            "    sel = fr.selection",
        ]
        if self.names:
            lines.append("    ev = range(full + 1)")
        pad = "    "
        for line in self.blocks[0]:
            lines.append(pad + line)
        for i in range(len(self.names)):
            lines.append(pad * (i + 1) + f"for e_{i} in ev:")
            for line in self.blocks[i + 1]:
                lines.append(pad * (i + 2) + line)
        lines.append(f"    return {result}")
        ns: dict = {}
        exec("\n".join(lines), ns)
        return ns.pop(name)


def compile_truth(f: Formula, valuation: Mapping[str, int], n: int) -> Callable[[Frame], int]:
    """Compile a formula to a function Frame -> truth-set mask.

    The valuation and state count are fixed at compile time, so atoms
    become constants and the whole formula one straight-line function.
    Agrees with truth_set on every frame with n states (a tested
    property)."""
    full = (1 << n) - 1
    for name, event in valuation.items():
        if event & ~full:
            raise ValueError(f"valuation of {name!r} out of the universe")
    cg = _Codegen([], valuation)
    expr, _ = cg.emit(f)
    return cg.function("_run", expr)


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
