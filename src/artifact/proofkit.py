"""Hilbert-style proof checking for the base logic and its extensions.

A proof script is a numbered list of schema formulas, each carrying a
justification: a propositional tautology, an axiom instance, a rule of
inference applied to earlier lines, a previously validated lemma
instance, or a propositional-logic consequence of cited lines (``pl``),
checked as an implication tautology with modal subformulas treated as
opaque atoms. Scripts for derived rules open with ``premise`` lines
stating their hypotheses.

Logics are data. ``schema.LOGICS`` names the axioms and rules each logic
may cite as primitive, and a lemma proved in one logic may be cited in
another whose items include its own. Every axiom and rule is a registry
item (premises, conclusion); an axiom is the item with no premises. An
``ax`` step and a ``lemma`` step go through one instance check: the
cited template (an axiom's conclusion, a lemma script's target) is
instantiated with the step's binding, every metavariable it leaves out
standing for itself, and compared with the line. The keywords ``mp``,
``nec_box``, ``nec_cond``, ``rm_box``, ``rm_b`` and ``rm_cond`` name the
six rules of the base logic, and ``rule <ID>`` names any registered rule
with premises. All of them are checked the same way: the rule must
be available (primitive in the script's logic and not excluded, or a
derived rule of the base logic with a checked script), and its template
must match the cited lines and the conclusion. For ``nec_cond`` and
``rm_cond`` the formula after the line number binds GAMMA. Exclusions
remove axioms and primitive rules alike. A ``taut`` or ``pl`` line whose
truth table would exceed ``is_tautology``'s opaque-atom budget is a
failed line, not an error.

Scripts are checked at the metavariable level: one pass certifies all
uniform Boolean instances, since every justification kind used here is
closed under substitution. Lemma and derived-rule citations form a
dependency graph that the registry validates in order, rejecting cycles
and unregistered references.

The text format is one step per line, ``n. <formula> ; <justification>``
with justifications ``taut``, ``ax <ID> [phi=.., psi=..]``, ``mp i j``,
``nec_box i``, ``nec_cond i <formula>``, ``rm_box i``, ``rm_b i``,
``rm_cond i <formula>``, ``rule <ID> i``, ``pl i,j,...``, plus
``premise`` for a rule script's hypotheses and ``lemma <ID> [..]`` for
instances of previously proved scripts. The format is read, never
written: no command prints a script back. ``check_script`` and
``check_line`` take the registry that lemma and derived-rule citations
resolve in; every caller passes one, ``builtin_registry()`` for the
builtin corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .formula import (
    Formula,
    InstantiationError,
    And,
    Believes,
    Box,
    Cond,
    Implies,
    MetaAtom,
    METAVARIABLES,
    Not,
    Or,
    Atom,
    ParseError,
    TautologyBudgetError,
    _substitute,
    is_boolean,
    is_tautology,
    mv,
    instantiate,
    metavariable_names,
    parse_schema_text,
    print_formula,
)
from .schema import KM_IDS, LOGICS, REGISTRY

__all__ = [
    "ProofSyntaxError", "Justification", "ProofLine", "ProofScript",
    "Verdict", "parse_proof_script", "check_line",
    "check_script", "ProofRegistry", "builtin_scripts", "builtin_registry",
    "delete_line", "verify_containment",
]


class ProofSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Justification:
    kind: str
    cites: tuple[int, ...] = ()
    ref: str = ""  # axiom, lemma or rule id; a rule keyword's registry id
    # an ax/lemma instantiation, or the formula nec_cond/rm_cond give GAMMA
    binding: tuple[tuple[str, Formula], ...] = ()


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
    id: str
    logic: str  # a key of schema.LOGICS
    lines: tuple[ProofLine, ...]
    target: Formula

    @property
    def premises(self) -> tuple[Formula, ...]:
        return tuple(ln.formula for ln in self.lines
                     if ln.justification.kind == "premise")

    @property
    def is_rule(self) -> bool:
        return bool(self.premises)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    line: int | None = None
    reason: str | None = None


_DERIVED_RULE_IDS = tuple(a for a, info in REGISTRY.items()
                          if info.premises and info.theorem_of_l)


def _keyword_rule(rid: str) -> tuple[str, int, tuple[str, ...]]:
    """A base rule's id, premise count, and the conclusion metavariables
    no premise binds, in first-occurrence order (given as formulas after
    the line numbers)."""
    info = REGISTRY[rid]
    bound = metavariable_names(*info.premises)
    free = tuple(n for n in metavariable_names(info.conclusion) if n not in bound)
    return rid, len(info.premises), free


_KEYWORD_RULES = {kw: _keyword_rule(rid) for kw, rid in (
    ("mp", "MP"), ("nec_box", "N_box"), ("nec_cond", "N_cond"),
    ("rm_box", "RM_box"), ("rm_b", "RM_B"), ("rm_cond", "RM_cond"))}
_LINE_COUNTS = {1: "one line number", 2: "two line numbers"}
_LOWER_NAMES = {name.lower(): name for name in METAVARIABLES}


# ---------------------------------------------------------------------------
# parsing and formatting

_STEP_RE = re.compile(r"^(\d+)\.\s*(.+?)\s*;\s*(.+?)\s*$")
_INT = re.compile(r"^\d+$")


def _parse_binding(text: str, lineno: int) -> tuple[tuple[str, Formula], ...]:
    pairs = []
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ProofSyntaxError(f"bad binding entry {chunk.strip()!r}", lineno)
        key, value = chunk.split("=", 1)
        name = _LOWER_NAMES.get(key.strip())
        if name is None:
            raise ProofSyntaxError(f"unknown metavariable {key.strip()!r}", lineno)
        if any(name == bound for bound, _ in pairs):
            raise ProofSyntaxError(f"{key.strip()} is bound twice", lineno)
        pairs.append((name, parse_schema_text(value.strip())))
    return tuple(pairs)


def _parse_justification(text: str, lineno: int) -> Justification:
    parts = text.split(None, 1)
    kind, rest = parts[0], parts[1] if len(parts) > 1 else ""
    if kind in ("taut", "premise"):
        if rest:
            raise ProofSyntaxError(f"{kind} takes no arguments", lineno)
        return Justification(kind)
    if kind in ("ax", "lemma"):
        m = re.match(r"^(\w+)\s*(\[(.*)\])?$", rest)
        if not m:
            raise ProofSyntaxError(f"malformed {kind} reference", lineno)
        binding = _parse_binding(m.group(3), lineno) if m.group(3) else ()
        return Justification(kind, ref=m.group(1), binding=binding)
    if kind in _KEYWORD_RULES:
        rid, n, free = _KEYWORD_RULES[kind]
        args = rest.split(None, n)
        if len(args) != n + len(free) or not all(_INT.match(x) for x in args[:n]):
            usage = _LINE_COUNTS[n] + (" and a formula" if free else "")
            raise ProofSyntaxError(f"{kind} needs {usage}", lineno)
        binding = tuple((name, parse_schema_text(text)) for name, text in zip(free, args[n:]))
        return Justification(kind, cites=tuple(int(x) for x in args[:n]), ref=rid,
                             binding=binding)
    if kind == "rule":
        parts = rest.split()
        if len(parts) != 2 or not _INT.match(parts[1]):
            raise ProofSyntaxError("rule needs an id and a line number", lineno)
        return Justification(kind, ref=parts[0], cites=(int(parts[1]),))
    if kind == "pl":
        nums = [x for x in re.split(r"[,\s]+", rest) if x]
        if not nums or not all(_INT.match(x) for x in nums):
            raise ProofSyntaxError("pl needs cited line numbers", lineno)
        return Justification(kind, cites=tuple(int(x) for x in nums))
    raise ProofSyntaxError(f"unknown justification {kind!r}", lineno)


def parse_proof_script(text: str, script_id: str, logic: str) -> ProofScript:
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {', '.join(LOGICS)}")
    lines = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        m = _STEP_RE.match(raw)
        if not m:
            raise ProofSyntaxError(f"malformed step {raw!r}", len(lines) + 1)
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ProofSyntaxError(f"expected step {len(lines) + 1}, got {number}",
                                   len(lines) + 1)
        try:
            lines.append(ProofLine(parse_schema_text(m.group(2)),
                                   _parse_justification(m.group(3), number)))
        except ParseError as exc:  # in the step formula, a binding or a rule argument
            raise ProofSyntaxError(str(exc), number) from None
    if not lines:
        raise ProofSyntaxError("empty proof", 1)
    return ProofScript(script_id, logic, tuple(lines), lines[-1].formula)


def _is_rule_step(j: Justification) -> bool:
    return j.kind == "rule" or j.kind in _KEYWORD_RULES


# ---------------------------------------------------------------------------
# template matching

def match_template(template: Formula, target: Formula, binding: dict | None = None):
    """One-way match binding the template's metavariables to subformulas
    of the target, respecting Boolean sorts. Returns the extended
    binding, or None."""
    env = dict(binding) if binding else {}

    def walk(t: Formula, f: Formula) -> bool:
        match t:
            case MetaAtom(name, boolean):
                bound = env.get(name)
                if bound is not None:
                    return bound == f
                if boolean and not is_boolean(f):
                    return False
                env[name] = f
                return True
            case Atom(_):
                return t == f
            case Not(tc):
                return isinstance(f, Not) and walk(tc, f.child)
            case Or(tl, tr):
                return isinstance(f, Or) and walk(tl, f.left) and walk(tr, f.right)
            case Believes(tc):
                return isinstance(f, Believes) and walk(tc, f.child)
            case Box(tc):
                return isinstance(f, Box) and walk(tc, f.child)
            case Cond(ta, tb):
                return (isinstance(f, Cond) and walk(ta, f.antecedent)
                        and walk(tb, f.consequent))
        raise TypeError(f"not a formula node: {t!r}")

    return env if walk(template, target) else None


# ---------------------------------------------------------------------------
# line checking

def _fail(reason: str):
    return False, reason


def _check_instance(kind: str, j: Justification, template: Formula, f: Formula):
    """An ``ax`` or ``lemma`` step: instantiate the cited template, each
    metavariable the binding leaves out standing for itself, and compare
    the result with the line's formula."""
    given = dict(j.binding)
    names = metavariable_names(template)
    extra = given.keys() - names
    if extra:
        return _fail(f"{j.ref} has no metavariable {', '.join(sorted(extra))}")
    try:
        expected = instantiate(template, {name: given.get(name, mv(name)) for name in names})
    except InstantiationError as exc:
        return _fail(f"{j.ref}: {exc}")
    if expected == f:
        return True, None
    return _fail(f"{kind} instance mismatch: expected "
                 f"{print_formula(expected)}, got {print_formula(f)}")


def _check_tautology(f: Formula, reason: str):
    try:
        if is_tautology(f):
            return True, None
    except TautologyBudgetError as exc:
        return _fail(str(exc))
    return _fail(reason)


def _available(ref: str, logic: str, excluded_axioms: frozenset[str]) -> bool:
    """Whether a script in ``logic`` may cite ``ref`` as a primitive."""
    return ref in LOGICS[logic] and ref not in excluded_axioms


def _check_rule_step(j: Justification, f: Formula, cited: list[Formula], logic: str,
                     excluded_axioms: frozenset[str]):
    """Look the rule up, check that it is available, then match its
    template over every cited premise line and the conclusion ``f``."""
    info = REGISTRY.get(j.ref)
    if info is None or not info.premises:
        return _fail(f"unknown rule of inference {j.ref!r}")
    if not (_available(j.ref, logic, excluded_axioms) or j.ref in _DERIVED_RULE_IDS):
        return _fail(f"rule {j.ref} is not available in logic {logic}")
    premises = info.premises
    if len(cited) != len(premises):
        return _fail(f"rule {j.ref} takes {len(premises)} premise line(s)")
    env = dict(j.binding)
    for i, template, formula in zip(j.cites, premises, cited):
        env = match_template(template, formula, env)
        if env is None:
            return _fail(f"line {i} does not match premise {print_formula(template)}"
                         f" of rule {j.ref}")
    conclusion = info.conclusion
    if match_template(conclusion, f, env) is not None:
        return True, None
    if set(metavariable_names(conclusion)) <= env.keys():
        return _fail(f"conclusion does not match rule {j.ref}: expected "
                     f"{print_formula(_substitute(conclusion, env))}")
    return _fail(f"conclusion does not match rule {j.ref}")


def check_line(script: ProofScript, index: int, registry: ProofRegistry,
               excluded_axioms: frozenset[str] = frozenset()):
    """Validate one 1-based proof step. Returns (ok, reason)."""
    if not 1 <= index <= len(script.lines):
        raise IndexError(f"script has no line {index}")
    line = script.lines[index - 1]
    f, j = line.formula, line.justification

    for i in j.cites:
        if not 1 <= i < index:
            return _fail(f"cites line {i}, which does not precede line {index}")
    cited = [script.lines[i - 1].formula for i in j.cites]

    match j.kind:
        case "premise":
            return True, None
        case "taut":
            return _check_tautology(f, "not a propositional tautology")
        case "ax":
            info = REGISTRY.get(j.ref)
            if info is None or info.premises:
                return _fail(f"unknown axiom schema {j.ref!r}")
            if not _available(j.ref, script.logic, excluded_axioms):
                return _fail(f"axiom {j.ref} is not available in logic {script.logic}")
            return _check_instance("axiom", j, info.conclusion, f)
        case "lemma":
            dep = registry.script(j.ref)
            if dep is None:
                return _fail(f"unregistered dependency {j.ref!r}")
            if dep.is_rule:
                return _fail(f"{j.ref} is a rule script; cite it with 'rule'")
            if not LOGICS[dep.logic] <= LOGICS[script.logic]:
                return _fail(f"lemma {j.ref} belongs to logic {dep.logic}")
            return _check_instance("lemma", j, dep.target, f)
        case "pl":
            premise = cited[0]
            for extra in cited[1:]:
                premise = And(premise, extra)
            return _check_tautology(Implies(premise, f),
                                    "not a propositional consequence of the cited lines")
    if _is_rule_step(j):
        return _check_rule_step(j, f, cited, script.logic, excluded_axioms)
    return _fail(f"unknown justification kind {j.kind!r}")


# ---------------------------------------------------------------------------
# script checking and the registry

def script_dependencies(script: ProofScript) -> frozenset[str]:
    deps = set()
    for line in script.lines:
        j = line.justification
        if j.kind == "lemma":
            deps.add(j.ref)
        elif j.kind == "rule" and j.ref in _DERIVED_RULE_IDS:
            deps.add(j.ref)
    return frozenset(deps)


class ProofRegistry:
    """Append-only script store with memoized dependency-aware checking."""

    def __init__(self):
        self._scripts: dict[str, ProofScript] = {}
        self._verdicts: dict[tuple[str, frozenset[str]], Verdict] = {}
        self._active: set[str] = set()

    def register(self, script: ProofScript) -> None:
        if script.id in self._scripts:
            raise ValueError(f"script {script.id!r} is already registered")
        self._scripts[script.id] = script

    def script(self, script_id: str) -> ProofScript | None:
        return self._scripts.get(script_id)

    def scripts(self) -> tuple[ProofScript, ...]:
        return tuple(self._scripts.values())

    def check(self, script_id: str,
              excluded_axioms: frozenset[str] = frozenset()) -> Verdict:
        key = (script_id, excluded_axioms)
        got = self._verdicts.get(key)
        if got is not None:
            return got
        script = self._scripts.get(script_id)
        if script is None:
            return Verdict(False, None, f"unregistered dependency {script_id!r}")
        if script_id in self._active:
            return Verdict(False, None, f"cyclic dependency through {script_id!r}")
        self._active.add(script_id)
        try:
            verdict = check_script(script, self, excluded_axioms)
        finally:
            self._active.discard(script_id)
        self._verdicts[key] = verdict
        return verdict


def check_script(script: ProofScript, registry: ProofRegistry,
                 excluded_axioms: frozenset[str] = frozenset()) -> Verdict:
    """Check every dependency, every line, and the target. Returns the
    first failure with its line number (None for script-level faults)."""
    for dep in sorted(script_dependencies(script)):
        verdict = registry.check(dep, excluded_axioms)
        if not verdict.ok:
            reason = verdict.reason
            if verdict.line is not None:
                reason = f"line {verdict.line}: {reason}"
            return Verdict(False, None, f"dependency {dep} failed: {reason}")
        dep_script = registry.script(dep)
        if dep in _DERIVED_RULE_IDS:
            info = REGISTRY[dep]
            if (dep_script.premises, dep_script.target) != (info.premises, info.conclusion):
                return Verdict(False, None,
                               f"script {dep} does not establish the rule {dep}")
    for index in range(1, len(script.lines) + 1):
        ok, reason = check_line(script, index, registry, excluded_axioms)
        if not ok:
            return Verdict(False, index, reason)
    if script.lines[-1].formula != script.target:
        return Verdict(False, len(script.lines),
                       f"last line is not the target {print_formula(script.target)}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# mutations

def delete_line(script: ProofScript, k: int) -> ProofScript:
    """Remove 1-based line k without renumbering citations."""
    if not 1 <= k <= len(script.lines):
        raise IndexError(f"script has no line {k}")
    lines = script.lines[:k - 1] + script.lines[k:]
    return ProofScript(script.id, script.logic, lines, script.target)


# ---------------------------------------------------------------------------
# builtin derivations

_BUILTIN_TEXTS: tuple[tuple[str, str, str], ...] = (
    ("C_not_box_not", "L", """
        1. ~ALPHA -> ~(ALPHA & BETA) ; taut
        2. []~ALPHA -> []~(ALPHA & BETA) ; rm_box 1
        3. ~[]~(ALPHA & BETA) -> ~[]~ALPHA ; pl 2
    """),
    ("C_B_inv", "L", """
        1. (ALPHA & BETA) -> ALPHA ; taut
        2. B(ALPHA & BETA) -> B ALPHA ; rm_b 1
        3. (ALPHA & BETA) -> BETA ; taut
        4. B(ALPHA & BETA) -> B BETA ; rm_b 3
        5. B(ALPHA & BETA) -> B ALPHA & B BETA ; pl 2,4
    """),
    ("K_cond", "L", """
        1. (ALPHA > BETA) & (ALPHA > (BETA -> GAMMA)) -> (ALPHA > (BETA & (BETA -> GAMMA))) ; ax C_cond [gamma=ALPHA, alpha=BETA, beta=BETA -> GAMMA]
        2. (BETA & (BETA -> GAMMA)) -> GAMMA ; taut
        3. (ALPHA > (BETA & (BETA -> GAMMA))) -> (ALPHA > GAMMA) ; rm_cond 2 ALPHA
        4. (ALPHA > BETA) & (ALPHA > (BETA -> GAMMA)) -> (ALPHA > GAMMA) ; pl 1,3
    """),
    ("A_star_1_diamond_0", "L", """
        1. B(GAMMA > ALPHA) & B(GAMMA > (ALPHA -> BETA)) -> B((GAMMA > ALPHA) & (GAMMA > (ALPHA -> BETA))) ; ax C_B [alpha=(GAMMA > ALPHA), beta=(GAMMA > (ALPHA -> BETA))]
        2. (GAMMA > ALPHA) & (GAMMA > (ALPHA -> BETA)) -> (GAMMA > BETA) ; lemma K_cond [alpha=GAMMA, beta=ALPHA, gamma=BETA]
        3. B((GAMMA > ALPHA) & (GAMMA > (ALPHA -> BETA))) -> B(GAMMA > BETA) ; rm_b 2
        4. B(GAMMA > ALPHA) & B(GAMMA > (ALPHA -> BETA)) -> B(GAMMA > BETA) ; pl 1,3
    """),
    ("N_B", "L", """
        1. ALPHA ; premise
        2. []ALPHA ; nec_box 1
        3. []ALPHA -> B ALPHA ; ax NB
        4. B ALPHA ; mp 2 3
    """),
    ("RM_not_box_not", "L", """
        1. ALPHA -> BETA ; premise
        2. ~BETA -> ~ALPHA ; pl 1
        3. []~BETA -> []~ALPHA ; rm_box 2
        4. ~[]~ALPHA -> ~[]~BETA ; pl 3
    """),
    ("RM_B_cond", "L", """
        1. ALPHA -> BETA ; premise
        2. (GAMMA > ALPHA) -> (GAMMA > BETA) ; rm_cond 1 GAMMA
        3. B(GAMMA > ALPHA) -> B(GAMMA > BETA) ; rm_b 2
    """),
    ("C_B_cond", "L", """
        1. (GAMMA > ALPHA) & (GAMMA > BETA) -> (GAMMA > (ALPHA & BETA)) ; ax C_cond
        2. B((GAMMA > ALPHA) & (GAMMA > BETA)) -> B(GAMMA > (ALPHA & BETA)) ; rm_b 1
        3. B(GAMMA > ALPHA) & B(GAMMA > BETA) -> B((GAMMA > ALPHA) & (GAMMA > BETA)) ; ax C_B [alpha=(GAMMA > ALPHA), beta=(GAMMA > BETA)]
        4. B(GAMMA > ALPHA) & B(GAMMA > BETA) -> B(GAMMA > (ALPHA & BETA)) ; pl 2,3
    """),
    ("A_diamond_2", "AGM", """
        1. B PHI -> ~B ~PHI ; ax D_B [alpha=PHI]
        2. PSI -> (PHI -> PSI) ; taut
        3. B PSI -> B(PHI -> PSI) ; rm_b 2
        4. B PHI & B PSI -> ~B ~PHI & B(PHI -> PSI) ; pl 1,3
        5. ~B ~PHI & B(PHI -> PSI) -> B(PHI > PSI) ; ax A_star_4
        6. B PHI -> (B PSI -> B(PHI > PSI)) ; pl 4,5
        7. []~PHI -> B ~PHI ; ax NB [alpha=~PHI]
        8. ~B ~PHI -> ~[]~PHI ; pl 7
        9. B PHI -> ~[]~PHI ; pl 1,8
        10. B PHI & B(PHI > PSI) -> ~[]~PHI & B(PHI > PSI) ; pl 9
        11. ~[]~PHI & B(PHI > PSI) -> B(PHI -> PSI) ; ax A_star_3
        12. B PHI & B(PHI > PSI) -> B(PHI -> PSI) ; pl 10,11
        13. B PHI & B(PHI > PSI) -> B PHI & B(PHI -> PSI) ; pl 12
        14. B PHI & B(PHI -> PSI) -> B(PHI & (PHI -> PSI)) ; ax C_B [alpha=PHI, beta=PHI -> PSI]
        15. (PHI & (PHI -> PSI)) -> PSI ; taut
        16. B(PHI & (PHI -> PSI)) -> B PSI ; rm_b 15
        17. B PHI & B(PHI > PSI) -> B PSI ; pl 13,14,16
        18. B PHI -> (B(PHI > PSI) -> B PSI) ; pl 17
        19. B PHI -> (B PSI <-> B(PHI > PSI)) ; pl 6,18
    """),
    ("A_star_3", "KM", """
        1. B(PHI | ~PHI) -> (B(PHI -> PSI) <-> B((PHI | ~PHI) > (PHI -> PSI))) ; ax A_diamond_2 [phi=PHI | ~PHI, psi=PHI -> PSI]
        2. PHI | ~PHI ; taut
        3. B(PHI | ~PHI) ; rule N_B 2
        4. B(PHI -> PSI) <-> B((PHI | ~PHI) > (PHI -> PSI)) ; mp 3 1
        5. ~[]~((PHI | ~PHI) & PHI) & B(((PHI | ~PHI) & PHI) > PSI) -> B((PHI | ~PHI) > (PHI -> PSI)) ; ax A_star_7_diamond_5 [phi=PHI | ~PHI, psi=PHI, chi=PSI]
        6. PHI -> ((PHI | ~PHI) & PHI) ; taut
        7. ~[]~PHI -> ~[]~((PHI | ~PHI) & PHI) ; rule RM_not_box_not 6
        8. PHI <-> ((PHI | ~PHI) & PHI) ; taut
        9. B(PHI > PSI) <-> B(((PHI | ~PHI) & PHI) > PSI) ; rule R_star_6_diamond_4 8
        10. ~[]~PHI & B(PHI > PSI) -> B((PHI | ~PHI) > (PHI -> PSI)) ; pl 5,7,9
        11. ~[]~PHI & B(PHI > PSI) -> B(PHI -> PSI) ; pl 10,4
    """),
    ("A6w_swap13", "AGM", """
        1. (PHI & PSI) -> PSI ; taut
        2. ~[]~(PHI & PSI) -> ~[]~PSI ; rule RM_not_box_not 1
        3. ~[]~(PHI & PSI) & B(PSI > PHI) -> ~[]~PSI & B(PSI > PHI) ; pl 2
        4. ~[]~PSI & B(PSI > PHI) -> ~B(PSI > ~PHI) ; ax A_star_5b_diamond_3b [phi=PSI, psi=PHI]
        5. ~[]~(PHI & PSI) & B(PSI > PHI) -> ~B(PSI > ~PHI) ; pl 3,4
        6. CHI -> (PHI -> CHI) ; taut
        7. B(PSI > CHI) -> B(PSI > (PHI -> CHI)) ; rule RM_B_cond 6
        8. ~[]~(PHI & PSI) & B(PSI > PHI) & B(PSI > CHI) -> ~B(PSI > ~PHI) & B(PSI > (PHI -> CHI)) ; pl 5,7
        9. ~B(PSI > ~PHI) & B(PSI > (PHI -> CHI)) -> B((PSI & PHI) > (PHI & CHI)) ; ax A_star_8_diamond_9s [phi=PSI, psi=PHI, chi=CHI]
        10. ~[]~(PHI & PSI) & B(PSI > PHI) & B(PSI > CHI) -> B((PSI & PHI) > (PHI & CHI)) ; pl 8,9
        11. (PHI & CHI) -> CHI ; taut
        12. B((PSI & PHI) > (PHI & CHI)) -> B((PSI & PHI) > CHI) ; rule RM_B_cond 11
        13. (PSI & PHI) <-> (PHI & PSI) ; taut
        14. B((PSI & PHI) > CHI) <-> B((PHI & PSI) > CHI) ; rule R_star_6_diamond_4 13
        15. ~[]~(PHI & PSI) & B(PSI > PHI) & B(PSI > CHI) -> B((PHI & PSI) > CHI) ; pl 10,12,14
        16. ~[]~(PHI & PSI) & B(PSI > PHI) -> (B(PSI > CHI) -> B((PHI & PSI) > CHI)) ; pl 15
    """),
    ("A6w_swap19", "AGM", """
        1. (PHI & PSI) -> (PSI & PHI) ; taut
        2. ~[]~(PHI & PSI) -> ~[]~(PSI & PHI) ; rule RM_not_box_not 1
        3. (PSI & PHI) <-> (PHI & PSI) ; taut
        4. B((PSI & PHI) > CHI) <-> B((PHI & PSI) > CHI) ; rule R_star_6_diamond_4 3
        5. ~[]~(PSI & PHI) & B((PSI & PHI) > CHI) -> B(PSI > (PHI -> CHI)) ; ax A_star_7_diamond_5 [phi=PSI, psi=PHI, chi=CHI]
        6. ~[]~(PHI & PSI) & B((PHI & PSI) > CHI) -> B(PSI > (PHI -> CHI)) ; pl 2,4,5
        7. ~[]~(PHI & PSI) & B(PSI > PHI) & B((PHI & PSI) > CHI) -> B(PSI > PHI) & B(PSI > (PHI -> CHI)) ; pl 6
        8. B(PSI > PHI) & B(PSI > (PHI -> CHI)) -> B(PSI > CHI) ; ax A_star_1_diamond_0 [phi=PSI, psi=PHI, chi=CHI]
        9. ~[]~(PHI & PSI) & B(PSI > PHI) & B((PHI & PSI) > CHI) -> B(PSI > CHI) ; pl 7,8
        10. ~[]~(PHI & PSI) & B(PSI > PHI) -> (B((PHI & PSI) > CHI) -> B(PSI > CHI)) ; pl 9
    """),
    ("A_diamond_6w", "AGM", """
        1. ~[]~(PHI & PSI) -> ~[]~PHI ; lemma C_not_box_not [alpha=PHI, beta=PSI]
        2. ~[]~(PHI & PSI) & B(PHI > PSI) -> ~[]~PHI & B(PHI > PSI) ; pl 1
        3. ~[]~PHI & B(PHI > PSI) -> ~B(PHI > ~PSI) ; ax A_star_5b_diamond_3b
        4. ~[]~(PHI & PSI) & B(PHI > PSI) -> ~B(PHI > ~PSI) ; pl 2,3
        5. CHI -> (PSI -> CHI) ; taut
        6. B(PHI > CHI) -> B(PHI > (PSI -> CHI)) ; rule RM_B_cond 5
        7. ~[]~(PHI & PSI) & B(PHI > PSI) & B(PHI > CHI) -> ~B(PHI > ~PSI) & B(PHI > (PSI -> CHI)) ; pl 4,6
        8. ~B(PHI > ~PSI) & B(PHI > (PSI -> CHI)) -> B((PHI & PSI) > (PSI & CHI)) ; ax A_star_8_diamond_9s
        9. ~[]~(PHI & PSI) & B(PHI > PSI) & B(PHI > CHI) -> B((PHI & PSI) > (PSI & CHI)) ; pl 7,8
        10. (PSI & CHI) -> CHI ; taut
        11. B((PHI & PSI) > (PSI & CHI)) -> B((PHI & PSI) > CHI) ; rule RM_B_cond 10
        12. ~[]~(PHI & PSI) & B(PHI > PSI) & B(PHI > CHI) -> B((PHI & PSI) > CHI) ; pl 9,11
        13. ~[]~(PHI & PSI) & B(PHI > PSI) -> (B(PHI > CHI) -> B((PHI & PSI) > CHI)) ; pl 12
        14. ~[]~(PHI & PSI) & B(PSI > PHI) -> (B(PSI > CHI) -> B((PHI & PSI) > CHI)) ; lemma A6w_swap13
        15. ~[]~(PHI & PSI) & B((PHI & PSI) > CHI) -> B(PHI > (PSI -> CHI)) ; ax A_star_7_diamond_5
        16. ~[]~(PHI & PSI) & B(PHI > PSI) & B((PHI & PSI) > CHI) -> B(PHI > PSI) & B(PHI > (PSI -> CHI)) ; pl 15
        17. B(PHI > PSI) & B(PHI > (PSI -> CHI)) -> B(PHI > CHI) ; ax A_star_1_diamond_0
        18. ~[]~(PHI & PSI) & B(PHI > PSI) & B((PHI & PSI) > CHI) -> B(PHI > CHI) ; pl 16,17
        19. ~[]~(PHI & PSI) & B(PHI > PSI) -> (B((PHI & PSI) > CHI) -> B(PHI > CHI)) ; pl 18
        20. ~[]~(PHI & PSI) & B(PSI > PHI) -> (B((PHI & PSI) > CHI) -> B(PSI > CHI)) ; lemma A6w_swap19
        21. ~[]~(PHI & PSI) & B(PHI > PSI) -> (B(PHI > CHI) <-> B((PHI & PSI) > CHI)) ; pl 13,19
        22. ~[]~(PHI & PSI) & B(PSI > PHI) -> (B(PSI > CHI) <-> B((PHI & PSI) > CHI)) ; pl 14,20
        23. ~[]~(PHI & PSI) & B(PHI > PSI) & B(PSI > PHI) -> (B(PHI > CHI) <-> B((PHI & PSI) > CHI)) & (B(PSI > CHI) <-> B((PHI & PSI) > CHI)) ; pl 21,22
        24. ((B(PHI > CHI) <-> B((PHI & PSI) > CHI)) & (B(PSI > CHI) <-> B((PHI & PSI) > CHI))) -> (B(PHI > CHI) <-> B(PSI > CHI)) ; taut
        25. ~[]~(PHI & PSI) & B(PHI > PSI) & B(PSI > PHI) -> (B(PHI > CHI) <-> B(PSI > CHI)) ; pl 23,24
    """),
    ("A7s_swap8", "AGM", """
        1. PSI <-> ((PHI | PSI) & PSI) ; taut
        2. B(PSI > CHI) <-> B(((PHI | PSI) & PSI) > CHI) ; rule R_star_6_diamond_4 1
        3. B(PSI > CHI) -> B(((PHI | PSI) & PSI) > CHI) ; pl 2
        4. PSI -> ((PHI | PSI) & PSI) ; taut
        5. ~[]~PSI -> ~[]~((PHI | PSI) & PSI) ; rule RM_not_box_not 4
        6. ~[]~PSI & B(PSI > CHI) -> ~[]~((PHI | PSI) & PSI) & B(((PHI | PSI) & PSI) > CHI) ; pl 3,5
        7. ~[]~((PHI | PSI) & PSI) & B(((PHI | PSI) & PSI) > CHI) -> B((PHI | PSI) > (PSI -> CHI)) ; ax A_star_7_diamond_5 [phi=PHI | PSI, psi=PSI, chi=CHI]
        8. ~[]~PSI & B(PSI > CHI) -> B((PHI | PSI) > (PSI -> CHI)) ; pl 6,7
    """),
    ("A_diamond_7s", "AGM", """
        1. PHI <-> ((PHI | PSI) & PHI) ; taut
        2. B(PHI > CHI) <-> B(((PHI | PSI) & PHI) > CHI) ; rule R_star_6_diamond_4 1
        3. B(PHI > CHI) -> B(((PHI | PSI) & PHI) > CHI) ; pl 2
        4. PHI -> ((PHI | PSI) & PHI) ; taut
        5. ~[]~PHI -> ~[]~((PHI | PSI) & PHI) ; rule RM_not_box_not 4
        6. ~[]~PHI & B(PHI > CHI) -> ~[]~((PHI | PSI) & PHI) & B(((PHI | PSI) & PHI) > CHI) ; pl 3,5
        7. ~[]~((PHI | PSI) & PHI) & B(((PHI | PSI) & PHI) > CHI) -> B((PHI | PSI) > (PHI -> CHI)) ; ax A_star_7_diamond_5 [phi=PHI | PSI, psi=PHI, chi=CHI]
        8. ~[]~PHI & B(PHI > CHI) -> B((PHI | PSI) > (PHI -> CHI)) ; pl 6,7
        9. ~[]~PSI & B(PSI > CHI) -> B((PHI | PSI) > (PSI -> CHI)) ; lemma A7s_swap8
        10. ~[]~PHI & ~[]~PSI & B(PHI > CHI) & B(PSI > CHI) -> B((PHI | PSI) > (PHI -> CHI)) & B((PHI | PSI) > (PSI -> CHI)) ; pl 8,9
        11. B((PHI | PSI) > (PHI -> CHI)) & B((PHI | PSI) > (PSI -> CHI)) -> B((PHI | PSI) > ((PHI -> CHI) & (PSI -> CHI))) ; lemma C_B_cond [gamma=PHI | PSI, alpha=PHI -> CHI, beta=PSI -> CHI]
        12. ((PHI -> CHI) & (PSI -> CHI)) -> ((PHI | PSI) -> CHI) ; taut
        13. B((PHI | PSI) > ((PHI -> CHI) & (PSI -> CHI))) -> B((PHI | PSI) > ((PHI | PSI) -> CHI)) ; rule RM_B_cond 12
        14. ~[]~PHI & ~[]~PSI & B(PHI > CHI) & B(PSI > CHI) -> B((PHI | PSI) > ((PHI | PSI) -> CHI)) ; pl 10,11,13
        15. B((PHI | PSI) > (PHI | PSI)) ; ax A_star_2_diamond_1 [phi=PHI | PSI]
        16. B((PHI | PSI) > ((PHI | PSI) -> CHI)) -> B((PHI | PSI) > (PHI | PSI)) & B((PHI | PSI) > ((PHI | PSI) -> CHI)) ; pl 15
        17. B((PHI | PSI) > (PHI | PSI)) & B((PHI | PSI) > ((PHI | PSI) -> CHI)) -> B((PHI | PSI) > CHI) ; ax A_star_1_diamond_0 [phi=PHI | PSI, psi=PHI | PSI, chi=CHI]
        18. B((PHI | PSI) > ((PHI | PSI) -> CHI)) -> B((PHI | PSI) > CHI) ; pl 16,17
        19. ~[]~PHI & ~[]~PSI & B(PHI > CHI) & B(PSI > CHI) -> B((PHI | PSI) > CHI) ; pl 14,18
    """),
)


@lru_cache(maxsize=1)
def builtin_registry() -> ProofRegistry:
    registry = ProofRegistry()
    for script_id, logic, text in _BUILTIN_TEXTS:
        registry.register(parse_proof_script(text, script_id, logic))
    return registry


def builtin_scripts() -> tuple[ProofScript, ...]:
    return builtin_registry().scripts()


# ---------------------------------------------------------------------------
# containment

def verify_containment(excluded_axioms: frozenset[str] = frozenset(),
                       registry: ProofRegistry | None = None) -> dict:
    """Account for every update-logic item inside the revision logic:
    the shared schemas and rules by identity, the remaining three
    axioms by checked derivation. ``excluded_axioms`` names axioms and
    rules to treat as unavailable as primitives; an id that no logic
    cites as primitive (unknown, or derived, which every script may use
    anyway) raises ValueError, since excluding it would change nothing."""
    primitive = frozenset().union(*LOGICS.values())
    unusable = sorted(a for a in excluded_axioms if a not in primitive)
    if unusable:
        raise ValueError(f"cannot exclude {', '.join(unusable)}: "
                         "not a primitive item of any logic")
    registry = registry or builtin_registry()
    items = {}
    for a in KM_IDS:
        if a in LOGICS["AGM"]:
            excluded = a in excluded_axioms
            items[a] = {"route": "shared", "ok": not excluded, "lines": None,
                        "reason": f"{a} is excluded" if excluded else None}
            continue
        script = registry.script(a)
        if script is None or script.logic != "AGM":
            items[a] = {"route": "derived", "ok": False, "lines": None,
                        "reason": f"no revision-logic derivation registered for {a}"}
            continue
        if script.target != REGISTRY[a].conclusion:
            items[a] = {"route": "derived", "ok": False, "lines": len(script.lines),
                        "reason": f"script {a} does not derive the schema {a}"}
            continue
        verdict = registry.check(a, excluded_axioms)
        reason = None
        if not verdict.ok:
            reason = (f"line {verdict.line}: {verdict.reason}"
                      if verdict.line is not None else verdict.reason)
        items[a] = {"route": "derived", "ok": verdict.ok,
                    "lines": len(script.lines), "reason": reason}
    return {
        "items": items,
        "covered": len(items),
        "ok": all(row["ok"] for row in items.values()),
    }
