"""Trimodal formula language and its Boolean fragment.

The primitive basis is negation and disjunction plus three modal node
kinds: a belief operator ``B``, a necessity operator ``[]`` and a
two-place conditional ``>``. Conjunction, material implication,
biconditional and the two constants are derived constructors that expand
into the basis, so structural equality is equality after expansion. The
constants expand over the reserved atom ``a0``.

Concrete syntax (recursive descent, all binary operators
right-associative, loosest to tightest):

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or  ("->" or)*
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "B" unary | "[]" unary | atom
             | "(" formula ")" | "(" formula ">" formula ")"

The conditional appears only inside parentheses. Each parenthesis, prefix
operator and binary operator nests a formula one level deeper, and a
formula nested deeper than 64 levels is a parse error. So is a formula
whose tree, with the derived constructors expanded, has more than 65,536
nodes: ``<->`` repeats both operands, so a chain of 14 of them is
refused. Atom identifiers match ``[a-z][a-z0-9_]*``. Schema templates
additionally use uppercase metavariables: PHI, PSI, CHI range over
Boolean formulas only; ALPHA, BETA, GAMMA range over arbitrary formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Atom", "Not", "Or", "Believes", "Box", "Cond", "MetaAtom", "Formula",
    "And", "Implies", "Iff", "Top", "Bottom", "RESERVED_ATOM",
    "METAVARIABLES", "mv", "ParseError", "InstantiationError",
    "TautologyBudgetError", "parse", "parse_schema_text", "print_formula",
    "is_boolean", "metavariable_names", "opaque_atoms", "is_tautology",
    "instantiate",
]


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Believes:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class Box:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class Cond:
    antecedent: "Formula"
    consequent: "Formula"


@dataclass(frozen=True, slots=True)
class MetaAtom:
    """Schema placeholder. ``boolean`` marks the Boolean-only sort."""

    name: str
    boolean: bool = True


Formula = Union[Atom, Not, Or, Believes, Box, Cond, MetaAtom]

RESERVED_ATOM = "a0"

# Metavariable sorts: True = may only be instantiated with Boolean
# formulas (the phi/psi/chi of the belief-change schemas), False = any
# formula (the alpha/beta/gamma of the base logic).
METAVARIABLES = {
    "PHI": True,
    "PSI": True,
    "CHI": True,
    "ALPHA": False,
    "BETA": False,
    "GAMMA": False,
}


def mv(name: str) -> MetaAtom:
    return MetaAtom(name, METAVARIABLES[name])


def And(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def Top() -> Formula:
    return Or(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))


def Bottom() -> Formula:
    return And(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))


def is_boolean(f: Formula) -> bool:
    """True iff ``f`` contains no B, [] or > node.

    Boolean-sorted metavariables count as Boolean leaves (they can only
    ever be replaced by Boolean formulas); general-sorted ones do not.
    """
    match f:
        case Atom():
            return True
        case MetaAtom(_, boolean):
            return boolean
        case Not(child):
            return is_boolean(child)
        case Or(left, right):
            return is_boolean(left) and is_boolean(right)
        case _:
            return False


def metavariable_names(*formulas: Formula) -> tuple[str, ...]:
    """The metavariables of ``formulas`` in order of first occurrence:
    preorder, left to right, one formula after the other. This order is
    the binding order of every validity scan."""
    # an explicit stack and one exact-class test per node kind, the most
    # frequent first: the proof checker walks every cited template
    names: dict[str, None] = {}
    stack = list(reversed(formulas))
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Not or t is Believes or t is Box:
            stack.append(g.child)
        elif t is Or:
            stack += (g.right, g.left)
        elif t is MetaAtom:
            names[g.name] = None
        elif t is Cond:
            stack += (g.consequent, g.antecedent)
        elif t is not Atom:
            raise TypeError(f"not a formula node: {g!r}")
    return tuple(names)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_IDENT_START = "abcdefghijklmnopqrstuvwxyz"
_IDENT_CONT = _IDENT_START + "0123456789_"
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_UPPER_CONT = _UPPER + "0123456789_"


def _tokenize(text: str, schema_mode: bool) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "(":
            tokens.append(("LPAREN", c, i)); i += 1
        elif c == ")":
            tokens.append(("RPAREN", c, i)); i += 1
        elif c == "~":
            tokens.append(("NOT", c, i)); i += 1
        elif c == "&":
            tokens.append(("AND", c, i)); i += 1
        elif c == "|":
            tokens.append(("OR", c, i)); i += 1
        elif c == ">":
            tokens.append(("GT", c, i)); i += 1
        elif c == "-":
            if text[i:i + 2] != "->":
                raise ParseError("unknown operator '-'", i)
            tokens.append(("IMP", "->", i)); i += 2
        elif c == "<":
            if text[i:i + 3] != "<->":
                raise ParseError("unknown operator '<'", i)
            tokens.append(("IFF", "<->", i)); i += 3
        elif c == "[":
            if text[i:i + 2] != "[]":
                raise ParseError("unknown operator '['", i)
            tokens.append(("BOX", "[]", i)); i += 2
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("IDENT", text[i:j], i)); i = j
        elif c in _UPPER:
            j = i + 1
            while j < n and text[j] in _UPPER_CONT:
                j += 1
            word = text[i:j]
            if word == "B":
                tokens.append(("B", word, i))
            elif schema_mode and word in METAVARIABLES:
                tokens.append(("METAVAR", word, i))
            else:
                raise ParseError(f"unknown identifier {word!r}", i)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", n))
    return tokens


# Parentheses, prefix operators and binary operators each nest a formula
# one level deeper, and a formula nested deeper than this is refused. The
# recursive walkers over formulas (evaluation, printing, substitution,
# matching, equality) then stay well inside the interpreter's recursion
# limit, and so does the parser, at about six frames per parenthesis.
_MAX_DEPTH = 64

# The walkers visit a formula as the tree its derived constructors expand
# to, and ``<->`` repeats both operands, so a chain of k ``<->`` operands
# expands to 11 * 2**(k-1) - 10 nodes. A parsed formula that expands to
# more nodes than this is refused. Below it, a whole ``truth-set`` run on
# the 13-operand chain (45,046 nodes) takes 0.05 s (2-vCPU Xeon, Python
# 3.11.7), and each further operand doubles the work.
_MAX_NODES = 1 << 16

_PREFIX = {"NOT": Not, "B": Believes, "BOX": Box}
# loosest first: token, constructor, nodes it adds, copies of each operand
_INFIX = (("IFF", Iff, 8, 2), ("IMP", Implies, 2, 1), ("OR", Or, 1, 1),
          ("AND", And, 4, 1))


class _Parser:
    def __init__(self, text: str, schema_mode: bool):
        self.tokens = _tokenize(text, schema_mode)
        self.pos = 0
        self.open = 0  # parentheses and prefix operators around the next token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}" if tok[1]
                             else f"expected {what}, found end of input", tok[2])
        return tok

    @staticmethod
    def check_bounds(depth: int, size: int, pos: int) -> None:
        if depth > _MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", pos)
        if size > _MAX_NODES:
            raise ParseError(
                f"formula expands to more than {_MAX_NODES:,} nodes", pos)

    def formula(self, level: int = 0) -> tuple[Formula, int, int]:
        """The formula at this precedence level, with its depth and its
        expanded tree size: operands of the next level joined by this
        level's operator, grouped to the right."""
        if level == len(_INFIX):
            return self.unary()
        kind, build, nodes, copies = _INFIX[level]
        start = self.peek()[2]
        parts = [self.formula(level + 1)]
        while self.peek()[0] == kind:
            self.take()
            parts.append(self.formula(level + 1))
        f, depth, size = parts.pop()
        if parts:
            for g, d, n in reversed(parts):
                f, depth = build(g, f), max(d, depth) + 1
                size = nodes + copies * (n + size)
            self.check_bounds(depth, size, start)
        return f, depth, size

    def unary(self) -> tuple[Formula, int, int]:
        kind, value, pos = self.take()
        if kind == "IDENT":
            return Atom(value), 0, 1
        if kind == "METAVAR":
            return mv(value), 0, 1
        if kind == "RPAREN":
            raise ParseError("unbalanced ')'", pos)
        if kind != "LPAREN" and kind not in _PREFIX:
            raise ParseError(f"expected a formula, found {value!r}" if value
                             else "expected a formula, found end of input", pos)
        # refused on the way down too, before the parser's own recursion
        # can grow past the bound
        self.open += 1
        self.check_bounds(self.open, 0, pos)
        if kind == "LPAREN":
            f, depth, size = self.formula()
            if self.peek()[0] == "GT":
                self.take()
                g, d, n = self.formula()
                self.expect("RPAREN", "')' closing conditional")
                f, depth, size = Cond(f, g), max(depth, d), size + n + 1
            else:
                self.expect("RPAREN", "')'")
        else:
            f, depth, size = self.unary()
            f, size = _PREFIX[kind](f), size + 1
        self.open -= 1
        self.check_bounds(depth + 1, size, pos)
        return f, depth + 1, size


def _parse(text: str, schema_mode: bool) -> Formula:
    p = _Parser(text, schema_mode)
    f = p.formula()[0]
    kind, value, pos = p.peek()
    if kind != "END":
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return f


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST. Inverse of print_formula."""
    return _parse(text, schema_mode=False)


def parse_schema_text(text: str) -> Formula:
    """Like parse, but uppercase metavariables are allowed as leaves."""
    return _parse(text, schema_mode=True)


# ---------------------------------------------------------------------------
# printing

_LVL_IFF, _LVL_IMP, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 4, 5, 6


def _match_implies(f: Formula):
    match f:
        case Or(Not(a), b):
            return a, b
    return None


def _match_and(f: Formula):
    match f:
        case Not(Or(Not(a), Not(b))):
            return a, b
    return None


def _match_iff(f: Formula):
    conj = _match_and(f)
    if conj is None:
        return None
    fwd = _match_implies(conj[0])
    bwd = _match_implies(conj[1])
    if fwd is not None and bwd is not None and fwd == (bwd[1], bwd[0]):
        return fwd
    return None


def _render(f: Formula, min_level: int) -> str:
    sugar = _match_iff(f)
    if sugar is not None:
        a, b = sugar
        s, level = f"{_render(a, _LVL_IFF + 1)} <-> {_render(b, _LVL_IFF)}", _LVL_IFF
    elif (sugar := _match_and(f)) is not None:
        a, b = sugar
        s, level = f"{_render(a, _LVL_AND + 1)} & {_render(b, _LVL_AND)}", _LVL_AND
    elif (sugar := _match_implies(f)) is not None:
        a, b = sugar
        s, level = f"{_render(a, _LVL_IMP + 1)} -> {_render(b, _LVL_IMP)}", _LVL_IMP
    else:
        match f:
            case Atom(name) | MetaAtom(name, _):
                s, level = name, _LVL_ATOM
            case Not(child):
                s, level = "~" + _render(child, _LVL_UNARY), _LVL_UNARY
            case Box(child):
                s, level = "[]" + _render(child, _LVL_UNARY), _LVL_UNARY
            case Believes(child):
                inner = _render(child, _LVL_UNARY)
                s = "B" + inner if inner.startswith("(") else "B " + inner
                level = _LVL_UNARY
            case Cond(antecedent, consequent):
                s = f"({_render(antecedent, _LVL_IFF)} > {_render(consequent, _LVL_IFF)})"
                level = _LVL_ATOM
            case Or(left, right):
                s = f"{_render(left, _LVL_OR + 1)} | {_render(right, _LVL_OR)}"
                level = _LVL_OR
            case _:
                raise TypeError(f"not a formula node: {f!r}")
    if level < min_level:
        return f"({s})"
    return s


def print_formula(f: Formula) -> str:
    """Minimal-parenthesization text that re-parses to ``f``.

    Expansions of &, -> and <-> are recognized and printed back in sugared
    form; conditionals always carry their mandatory parentheses.
    """
    return _render(f, 0)


# ---------------------------------------------------------------------------
# tautology oracle


class TautologyBudgetError(Exception):
    """Raised when a tautology check would need too many table rows."""


_MAX_OPAQUE_ATOMS = 20  # a 2**20-row table is the most one check may build


def opaque_atoms(f: Formula) -> list[Formula]:
    """Maximal modal subformulas plus atoms/metavariables, in
    first-occurrence order. These are the propositional unknowns of the
    modal-opaque truth table."""
    found: list[Formula] = []
    seen: set[Formula] = set()

    def walk(g: Formula) -> None:
        match g:
            case Not(child):
                walk(child)
            case Or(left, right):
                walk(left)
                walk(right)
            case _:
                if g not in seen:
                    seen.add(g)
                    found.append(g)

    walk(f)
    return found


def is_tautology(f: Formula) -> bool:
    """Truth-table check treating B/[]/> subformulas as opaque atoms.

    This decides "has the form of a classical tautology", which is the
    only sense of tautology the base logic's proof rule needs. The whole
    table is decided in one tree walk: opaque atom i is its truth-table
    column, an int whose bit r is bit i of the row number r, so ``Not``
    complements a column and ``Or`` unites two, and f is a tautology iff
    its column has every row set.
    """
    leaves = opaque_atoms(f)
    if len(leaves) > _MAX_OPAQUE_ATOMS:
        raise TautologyBudgetError(
            f"{len(leaves)} opaque atoms exceed the bound of {_MAX_OPAQUE_ATOMS}")
    rows = 1 << len(leaves)
    full = (1 << rows) - 1
    column = {}
    for i, leaf in enumerate(leaves):
        # rows w..2w-1 of each 2w-row block, w = 2**i, copied by doubling
        w = 1 << i
        col = ((1 << w) - 1) << w
        width = 2 * w
        while width < rows:
            col |= col << width
            width *= 2
        column[leaf] = col

    def ev(g: Formula) -> int:
        match g:
            case Not(child):
                return full ^ ev(child)
            case Or(left, right):
                return ev(left) | ev(right)
            case _:
                return column[g]

    return ev(f) == full


# ---------------------------------------------------------------------------
# instantiation


class InstantiationError(ValueError):
    pass


def _substitute(f: Formula, binding: dict[str, Formula]) -> Formula:
    # one exact-class test per node kind, the most frequent first: the
    # bridge substitutes into thousands of templates per instance table,
    # and a match statement over class patterns costs about twice as much
    t = type(f)
    if t is Not:
        return Not(_substitute(f.child, binding))
    if t is Or:
        return Or(_substitute(f.left, binding), _substitute(f.right, binding))
    if t is MetaAtom:
        return binding[f.name]
    if t is Believes:
        return Believes(_substitute(f.child, binding))
    if t is Cond:
        return Cond(_substitute(f.antecedent, binding), _substitute(f.consequent, binding))
    if t is Box:
        return Box(_substitute(f.child, binding))
    if t is Atom:
        return f
    raise TypeError(f"not a formula node: {f!r}")


def instantiate(template: Formula, binding: dict[str, Formula]) -> Formula:
    """Uniform substitution of ``binding`` into a schema template.

    Boolean-sorted metavariables only accept Boolean formulas; the
    general-sorted ones accept anything.
    """
    needed = set(metavariable_names(template))
    missing = needed - binding.keys()
    if missing:
        raise InstantiationError(f"missing binding for {', '.join(sorted(missing))}")
    for name in sorted(needed):
        if METAVARIABLES.get(name, True) and not is_boolean(binding[name]):
            raise InstantiationError(
                f"{name} is Boolean-only but bound to {print_formula(binding[name])!r}")
    return _substitute(template, binding)
