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
``_Codegen`` emits the same clauses as Python source, with the two modal
clauses as lookups into the frame's ``modal_tables`` (B a is
``bel[den(a)]``, a > b is ``cnd[den(a)][den(b)]``), so no generated
function scans the belief map or the selection; the frame builds the
tables on the first function's call and keeps them for the rest. Every
compiler builds on it: ``schema.compile_schema_checker`` for whole-frame
schema validity scans, and ``compile_conjunctions`` for concrete
formulas under a fixed valuation and state count. The latter knows the
universe at compile time, so ``_Codegen`` writes it as a literal and
folds every node whose value no longer depends on the frame; a
characteristic formula becomes its event. Modal statements are emitted
once per distinct operand text, so ``compile_conjunctions``, which
compiles groups of formulas into one function returning each group's
intersection of truth sets, looks up each distinct conditional and
belief only once per frame: the event/formula bridge compiles one such
function per valuation for all of a postulate table's instances.

The belief-change reading: psi belongs to the changed belief set at s
after input phi iff the frame's update U(s, den(phi)),
``fr.update(s, den(phi))``, is a subset of den(psi). The update
postulates are conditions on the frame alone, and only their modal
restatements read a valuation. ``check_km_axiom`` takes a frame and
decides the postulates with formulas replaced by their denotations,
running a row predicate on the one state's row ``fr.rows[s]``, U(s, ·).
A postulate gets its predicate through its item: it is the item's entry
in ``frame.CONDITIONS``, the same predicate the item's frame property
runs on every state's row, and this module names no predicate itself.
The formula level is the registry's own L_KM items (``schema.KM_IDS``)
under characteristic formulas: ``km_formula_instances`` substitutes
characteristic formulas of the valuation into each item's conclusion, so
it is the one layer that needs a model. One table, ``_KM_POSTULATES``,
gives each postulate its item and that item's bindings, so the two
layers can be played against each other, and a wrong registry schema
shows up as a disagreement between them.
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
    MetaAtom,
    Not,
    Or,
    _match_and,
    _match_iff,
    _match_implies,
    _substitute,
)
from .frame import (CONDITIONS, Frame, FrameFormatError, bits, frame_from_json, frame_to_json,
                    indices_from_mask, mask_from_indices, modal_tables)

__all__ = [
    "Model", "UnvaluedAtomError", "NonSeparatingValuationError",
    "make_model", "denotation", "truth_set", "holds_at",
    "KM_AXIOM_IDS", "check_km_axiom",
    "km_formula_instances", "check_km_axiom_via_formulas", "compile_conjunctions",
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


# ---------------------------------------------------------------------------
# code generation

# Every local name of a generated function, kept alive. A name whose last
# holder dies leaves the interpreter's table of interned strings, and
# putting the same names back on every recompile churns that table until
# it doubles: half a megabyte of peak memory in a process that reruns
# the bridge a hundred times.
_LOCAL_NAMES: set[str] = set()


class _Codegen:
    """Emits the truth clauses as Python source over the locals ``bel``
    and ``cnd`` of the generated function, the frame's modal tables, and
    ``full`` unless the universe is given. B x is ``bel[x]`` and x > y
    is ``cnd[x][y]``. Metavariable ``names[i]`` is the loop variable
    ``e_i``, and every expression carries its level: how many of those
    loops it sits inside. Modal nodes become statements in their level's
    block, one per distinct text of their operands, so formulas with the
    same value share one lookup; Boolean nodes stay expressions. A concrete
    atom is its event in ``valuation``.

    With the universe ``full`` given, it is written as a literal, and
    every node whose value no longer depends on the frame (a Boolean or
    [] node over literals, a conditional with an empty antecedent) is
    folded into one literal; the compiler folds what arithmetic on
    literals is left in the statements. Boolean nodes also drop
    operands that cannot change their value (see ``join``)."""

    def __init__(self, names: tuple[str, ...], valuation: Mapping[str, int] | None = None,
                 full: int | None = None):
        self.names = names
        self.valuation = {} if valuation is None else valuation
        self.full = full
        self.top = "full" if full is None else str(full)
        self.blocks: dict[int, list[str]] = {i: [] for i in range(len(names) + 1)}
        # by node identity, so a lookup never hashes a formula; ``held``
        # keeps every memoized node alive, so no id is reused meanwhile
        self.memo: dict[int, tuple[str, int]] = {}
        self.held: list[Formula] = []
        self.statements: dict[tuple[str, ...], tuple[str, int]] = {}
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def add(self, level: int, text: str) -> None:
        self.blocks[level].extend(text.split("\n"))

    def literal(self, ex: str) -> int | None:
        """The value of a folded expression; None for any other."""
        return int(ex) if self.full is not None and ex.isdigit() else None

    def neg(self, x: tuple[str, int]) -> tuple[str, int]:
        ex, lx = x
        c = self.literal(ex)
        return (str(self.full ^ c), 0) if c is not None else (f"({self.top} ^ {ex})", lx)

    def join(self, op: str, x: tuple[str, int], y: tuple[str, int]) -> tuple[str, int]:
        """``x & y`` or ``x | y``. With the universe given, the node folds
        over two literals, over a literal that is the operation's unit or
        its absorbing value, over two equal operands and over an operand
        and its complement. Every expression denotes a subset of the
        universe, so each of these folds keeps the value."""
        (ex, lx), (ey, ly) = x, y
        if self.full is not None:
            cx, cy = self.literal(ex), self.literal(ey)
            if cx is not None and cy is not None:
                return str(cx & cy if op == "&" else cx | cy), 0
            unit = self.full if op == "&" else 0
            if cx == unit or ex == ey:
                return y
            if cy == unit:
                return x
            zero = self.full ^ unit
            if (zero in (cx, cy) or ex == f"({self.top} ^ {ey})"
                    or ey == f"({self.top} ^ {ex})"):
                return str(zero), 0
        return f"({ex} {op} {ey})", max(lx, ly)

    def iff(self, x: tuple[str, int], y: tuple[str, int]) -> tuple[str, int]:
        """``x <-> y``; with the universe given it folds over two literals
        and over two equal operands."""
        (ex, lx), (ey, ly) = x, y
        if self.full is not None:
            cx, cy = self.literal(ex), self.literal(ey)
            if cx is not None and cy is not None:
                return str(self.full ^ cx ^ cy), 0
            if ex == ey:
                return str(self.full), 0
        return f"({self.top} ^ ({ex} ^ {ey}))", max(lx, ly)

    def statement(self, key: tuple[str, ...], level: int, text: str) -> tuple[str, int]:
        """A modal node: its variable, set by ``text`` with ``{v}``
        standing for the variable, which is emitted once per ``key``."""
        got = self.statements.get(key)
        if got is None:
            v = self.fresh()
            self.add(level, text.format(v=v, top=self.top))
            got = self.statements[key] = (v, level)
        return got

    def emit(self, f: Formula) -> tuple[str, int]:
        got = self.memo.get(id(f))
        if got is not None:
            return got
        # only negations and disjunctions can be sugar
        t = type(f)
        if t is Not and (m := _match_iff(f)) is not None:
            out = self.iff(self.emit(m[0]), self.emit(m[1]))
        elif t is Not and (m := _match_and(f)) is not None:
            out = self.join("&", self.emit(m[0]), self.emit(m[1]))
        elif t is Or and (m := _match_implies(f)) is not None:
            out = self.join("|", self.neg(self.emit(m[0])), self.emit(m[1]))
        else:
            match f:  # modal nodes first, the most frequent here
                case Believes(child):
                    ex, lx = self.emit(child)
                    out = self.statement(("B", ex), lx, f"{{v}} = bel[{ex}]")
                case Cond(antecedent, consequent):
                    (ex, lx), (ey, ly) = self.emit(antecedent), self.emit(consequent)
                    if self.literal(ex) == 0:
                        out = (str(self.full), 0)  # vacuous case
                    else:
                        out = self.statement(("C", ex, ey), max(lx, ly),
                                             f"{{v}} = cnd[{ex}][{ey}]")
                case Not(child):
                    out = self.neg(self.emit(child))
                case Or(left, right):
                    out = self.join("|", self.emit(left), self.emit(right))
                case Box(child):
                    ex, lx = self.emit(child)
                    if self.literal(ex) is not None:
                        out = (str(self.full if int(ex) == self.full else 0), 0)
                    else:
                        out = self.statement(("[]", ex), lx,
                                             f"{{v}} = {{top}} if {ex} == {{top}} else 0")
                case MetaAtom(name, _):
                    if name not in self.names:
                        raise ValueError(f"metavariable {name} in a concrete formula")
                    out = (f"e_{self.names.index(name)}", self.names.index(name) + 1)
                case Atom(name):
                    if name not in self.valuation:
                        raise UnvaluedAtomError(f"concrete atom {name!r} has no value")
                    out = (str(self.valuation[name]), 0)
                case _:
                    raise TypeError(f"not a formula node: {f!r}")
        self.memo[id(f)] = out
        self.held.append(f)
        return out

    def function(self, name: str, result: str) -> Callable[..., object]:
        """``def name(fr)``: the frame's ``modal_tables``, block 0, then one
        loop over the frame's events per metavariable with block i inside
        loop i, then ``return result``. The function is returned without
        the namespace it was executed in, so the two do not form a
        reference cycle."""
        lines = [f"def {name}(fr):"]
        if self.full is None:
            lines.append("    full = fr.full")
        lines.append("    bel, cnd = modal_tables(fr)")
        if self.names:
            lines.append(f"    ev = range({self.top} + 1)")
        pad = "    "
        for line in self.blocks[0]:
            lines.append(pad + line)
        for i in range(len(self.names)):
            lines.append(pad * (i + 1) + f"for e_{i} in ev:")
            for line in self.blocks[i + 1]:
                lines.append(pad * (i + 2) + line)
        lines.append(f"    return {result}")
        # the emission memo is done with; free it before the compile's peak
        self.memo.clear()
        self.held.clear()
        ns: dict = {"modal_tables": modal_tables}
        exec("\n".join(lines), ns)
        fn = ns.pop(name)
        _LOCAL_NAMES.update(fn.__code__.co_varnames)
        return fn


def compile_conjunctions(groups: Iterable[Iterable[Formula]], valuation: Mapping[str, int],
                         n: int) -> Callable[..., tuple[int, ...]]:
    """Compile groups of formulas to one function Frame -> tuple of masks,
    the i-th being the intersection of the truth sets of group i's
    formulas (the universe for an empty group).

    The valuation and state count are fixed at compile time, so atoms
    and the universe become constants and all the groups one
    straight-line function, in which a modal subformula shared by
    several formulas, or with the same value under this valuation, is
    looked up once. Agrees with truth_set on every frame with n states
    (a tested property)."""
    full = (1 << n) - 1
    for name, event in valuation.items():
        if event & ~full:
            raise ValueError(f"valuation of {name!r} out of the universe")
    cg = _Codegen((), valuation, full)
    masks = [_conjoin(list(dict.fromkeys(cg.emit(f)[0] for f in group))) or str(full)
             for group in groups]
    return cg.function("_run", "(" + "".join(f"{mask}, " for mask in masks) + ")")


def _conjoin(terms: list[str]) -> str:
    """The terms joined by ``&`` as a balanced tree, "" for none: a flat
    chain of the thousands of terms a postulate has at four states nests
    too deep for the interpreter's compiler."""
    if len(terms) < 2:
        return "".join(terms)
    mid = len(terms) // 2
    return f"({_conjoin(terms[:mid])} & {_conjoin(terms[mid:])})"


# ---------------------------------------------------------------------------
# the update postulates, event level and formula level

# One row per update postulate: the L_KM item it restates, whose
# ``frame.CONDITIONS`` entry is its row predicate on one state's update
# row, and that item's (PHI, PSI, CHI) bindings, given the characteristic
# formulas k of all events and the non-empty events ne. The entry is None
# for the postulates that hold on every frame: the changed belief set is
# deductively closed, contradiction-updated and denotation-determined by
# construction. K_diamond_3a and K_diamond_4 are the conclusions of
# rules at bindings that make the premise a theorem, PHI = ⊥ (premise
# ~PHI) and PSI = ~~PHI (premise PHI <-> PSI); K_diamond_3b is its axiom
# at PSI = ⊤.
_KM_POSTULATES = {
    "K_diamond_0": ("A_star_1_diamond_0",
                    lambda k, ne: ((k[e], k[f], k[g]) for e in k for f in ne for g in ne)),
    "K_diamond_1": ("A_star_2_diamond_1", lambda k, ne: ((k[e],) for e in ne)),
    "K_diamond_2": ("A_diamond_2", lambda k, ne: ((k[e], k[f]) for e in ne for f in k)),
    "K_diamond_3a": ("R_star_5a_diamond_3a", lambda k, ne: ((k[0], k[f]) for f in k)),
    "K_diamond_3b": ("A_star_5b_diamond_3b", lambda k, ne: ((k[e], k[ne[-1]]) for e in ne)),
    "K_diamond_4": ("R_star_6_diamond_4",
                    lambda k, ne: ((k[e], Not(Not(k[e])), k[f]) for e in ne for f in k)),
    "K_diamond_5": ("A_star_7_diamond_5",
                    lambda k, ne: ((k[e], k[f], k[g]) for e in ne for f in ne if e & f
                                   for g in k)),
    "K_diamond_6w": ("A_diamond_6w",
                     lambda k, ne: ((k[e], k[f], k[g]) for e in ne for f in ne if e & f
                                    for g in k)),
    "K_diamond_7s": ("A_diamond_7s",
                     lambda k, ne: ((k[e], k[f], k[g]) for e in ne for f in ne for g in k)),
}

KM_AXIOM_IDS = tuple(_KM_POSTULATES)


def check_km_axiom(fr: Frame, s: int, a: str):
    """Decide an update postulate at state s of a frame with formulas
    replaced by their denotations, quantifying over non-empty events
    (pairs where the postulate mentions two inputs): the postulate's row
    predicate on U(s, ·), the ``frame.CONDITIONS`` entry of the item it
    restates, reading only ``fr.rows``, ``fr.belief`` and ``fr.full``.
    Returns (holds, counterexample) where the counterexample is (E,) or
    (E, F).

    K_diamond_0, K_diamond_3a and K_diamond_4 hold on every frame.
    """
    try:
        condition = CONDITIONS[_KM_POSTULATES[a][0]]
    except KeyError:
        raise ValueError(f"unknown update postulate {a!r}") from None
    if not 0 <= s < fr.n:
        raise ValueError(f"state {s} out of range")
    if condition is None:
        return True, None
    cex = condition(fr.rows[s], fr.belief[s], fr.full)
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
    """A Boolean formula whose truth set on n states is exactly ``event``.

    Needs a valuation under which distinct states have distinct atom
    profiles; the result is a disjunction of state descriptions.
    """
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


def km_formula_instances(n: int, valuation: Mapping[str, int]) -> dict[str, list[Formula]]:
    """Formula-level restatements of the update postulates.

    For each postulate, the instances of the L_KM item it restates at
    its bindings over characteristic formulas of the valuation; the
    postulate holds at state s in the formula sense iff every listed
    formula is true at s. Quantifier ranges mirror the event-level
    checks, so on any frame with n states the two layers must agree.
    """
    from .schema import REGISTRY  # schema imports this module

    atoms = tuple(sorted(valuation.items()))
    k = {e: _characteristic(n, atoms, e) for e in range(1 << n)}
    ne = range(1, 1 << n)
    return {a: [_substitute(REGISTRY[item].conclusion, dict(zip(("PHI", "PSI", "CHI"), b)))
                for b in bindings(k, ne)]
            for a, (item, bindings) in _KM_POSTULATES.items()}


def check_km_axiom_via_formulas(m: Model, s: int, a: str,
                                instances: dict[str, list[Formula]]) -> bool:
    """The formula-level twin of check_km_axiom: evaluate the postulate's
    characteristic-formula ``instances`` at s through the truth definition.

    ``instances`` is the ``km_formula_instances`` table for the model's
    size and valuation: build it once for all the models that share
    both."""
    return all(holds_at(m, s, f) for f in instances[a])


# ---------------------------------------------------------------------------
# serialization

def model_to_json(m: Model) -> dict:
    """The model document ``model_from_json`` reads: the frame document
    plus the valuation."""
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
