"""World-level update algebra: lifting per-world updates to belief sets.

Worlds over k atoms are the 2**k complete valuations of those atoms;
every deductively closed, complete, consistent theory at a finite
signature is the theory of exactly one world. A belief set is encoded
by the event of worlds compatible with it, so theories shrink as events
grow: intersecting two theories unions their events, and expanding a
theory by a proposition intersects its event with that proposition.

A family assigns each world w a total update u(w, E) on non-empty
events. Lifting to an arbitrary belief event K intersects the updated
theories of K's worlds, which at event level is the union of their
result events. The per-world audits and the lifted lemmas run the row
predicates of ``frame`` (disjunction for the union bound, expansion for
conditional expansion) on rows picked here: each world's row u(w, ·)
for the hypothesis, then each belief event's lifted row lift(K, ·) for
the conclusion. Each lemma checker audits the hypothesis first and
reports the first violating (K, E, F) triple in ascending mask order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .frame import bits, disjunction, expansion, indices_from_mask, mask_from_indices

__all__ = [
    "FamilyFormatError", "WorldSpace", "world_space", "WorldUpdateFamily",
    "lift_update", "theory_of", "audit_k7", "audit_k9", "LemmaReport",
    "check_lemma_k7s", "check_lemma_k9s", "generate_family",
    "enumerate_families", "family_to_json", "family_from_json",
]

DEFAULT_ATOMS = ("p", "q", "r", "s")


class FamilyFormatError(ValueError):
    """Raised when a serialized update family is malformed."""


@dataclass(frozen=True, slots=True)
class WorldSpace:
    atoms: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.atoms) <= 4:
            raise ValueError("world spaces support 1 to 4 atoms")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom names")

    @property
    def world_count(self) -> int:
        return 1 << len(self.atoms)

    @property
    def full(self) -> int:
        return (1 << self.world_count) - 1

    def world_valuation(self, w: int) -> dict[str, bool]:
        if not 0 <= w < self.world_count:
            raise ValueError(f"no world {w}")
        return {a: bool(w >> i & 1) for i, a in enumerate(self.atoms)}


def world_space(k: int) -> WorldSpace:
    if not 1 <= k <= len(DEFAULT_ATOMS):
        raise ValueError("world spaces support 1 to 4 atoms")
    return WorldSpace(DEFAULT_ATOMS[:k])


@dataclass(frozen=True, slots=True)
class WorldUpdateFamily:
    """Total table u[w][E-1] over all worlds and non-empty events."""

    space: WorldSpace
    u: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w_count, full = self.space.world_count, self.space.full
        if len(self.u) != w_count:
            raise ValueError(f"expected {w_count} world rows, got {len(self.u)}")
        for w, row in enumerate(self.u):
            if len(row) != full:
                raise ValueError(f"world {w}: expected {full} event entries")
            for value in row:
                if value & ~full:
                    raise ValueError(f"world {w}: result event out of range")

    def update(self, w: int, event: int) -> int:
        if event == 0:
            raise ValueError("empty input event")
        if event & ~self.space.full or not 0 <= w < self.space.world_count:
            raise ValueError("world or event out of range")
        return self.u[w][event - 1]


def lift_update(fam: WorldUpdateFamily, belief: int, event: int) -> int:
    """Union over the belief event's worlds of their updates.

    This is the event-level form of intersecting the updated theories
    of all worlds compatible with the initial belief set.
    """
    if belief == 0:
        raise ValueError("empty belief-set event: inconsistent initial beliefs")
    if event == 0:
        raise ValueError("empty input event")
    if belief & ~fam.space.full:
        raise ValueError("belief event out of range")
    out = 0
    for w in bits(belief):
        out |= fam.update(w, event)
    return out


def theory_of(space: WorldSpace, belief: int) -> frozenset[int]:
    """All event-propositions entailed by a belief event."""
    full = space.full
    return frozenset(p for p in range(full + 1) if belief & ~p == 0)


# ---------------------------------------------------------------------------
# per-world hypothesis audits and lifted lemmas

def _first_violation(condition, rows, full: int):
    """First (index, E, F) over (index, belief, row) triples whose row
    violates the condition, or None."""
    for index, belief, row in rows:
        cex = condition(row, belief, full)
        if cex is not None:
            return (index, *cex)
    return None


def _world_rows(fam: WorldUpdateFamily):
    return ((w, 1 << w, (0, *row)) for w, row in enumerate(fam.u))


def audit_k7(fam: WorldUpdateFamily):
    """First violation of u(w, E|F) <= u(w,E) | u(w,F), or None."""
    return _first_violation(disjunction, _world_rows(fam), fam.space.full)


def audit_k9(fam: WorldUpdateFamily):
    """First violation of the per-world conditional-expansion bound:
    when E&F is non-empty and u(w,E)&F is non-empty, u(w, E&F) must be
    contained in u(w,E)&F. Returns (w, E, F) or None."""
    return _first_violation(expansion, _world_rows(fam), fam.space.full)


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    hypothesis_ok: bool
    hypothesis_counterexample: tuple[int, int, int] | None
    holds: bool | None  # None when the hypothesis fails (not applicable)
    counterexample: tuple[int, int, int] | None

    @property
    def violated(self) -> bool:
        return self.holds is False


def _lift_table(fam: WorldUpdateFamily) -> list[list[int]]:
    full = fam.space.full
    table = [[0] * (full + 1)]
    for belief in range(1, full + 1):
        prev = table[belief & (belief - 1)]
        w_row = fam.u[(belief & -belief).bit_length() - 1]
        table.append([0] + [prev[e] | w_row[e - 1] for e in range(1, full + 1)])
    return table


def _check_lemma(fam: WorldUpdateFamily, lemma: str, condition) -> LemmaReport:
    """The condition on every world's row first, then on every lifted
    belief event's row lift(K, ·)."""
    full = fam.space.full
    bad = _first_violation(condition, _world_rows(fam), full)
    if bad is not None:
        return LemmaReport(lemma, False, bad, None, None)
    lift = _lift_table(fam)
    cex = _first_violation(
        condition, ((k, k, lift[k]) for k in range(1, full + 1)), full)
    return LemmaReport(lemma, True, None, cex is None, cex)


def check_lemma_k7s(fam: WorldUpdateFamily) -> LemmaReport:
    """Lifted union bound: lift(K, E|F) <= lift(K,E) | lift(K,F)."""
    return _check_lemma(fam, "k7s", disjunction)


def check_lemma_k9s(fam: WorldUpdateFamily) -> LemmaReport:
    """Lifted conditional-expansion bound: when lift(K,E)&F is non-empty,
    lift(K, E&F) <= lift(K,E) & F."""
    return _check_lemma(fam, "k9s", expansion)


# ---------------------------------------------------------------------------
# generators

def _ranking_pick(ranking: tuple[int, ...], event: int) -> int:
    for w in ranking:
        if event >> w & 1:
            return 1 << w
    raise AssertionError("non-empty event has a ranked world")


def generate_family(space: WorldSpace, seed: int, constraint: str = "none") -> WorldUpdateFamily:
    """Deterministic-per-seed family, optionally hypothesis-satisfying.

    constraint="k9" builds each world's update from a total ranking
    (the best event world wins), which provably satisfies the per-world
    conditional-expansion bound. constraint="k7" intersects a per-world
    goal set with the input, falling back to the ranked best world,
    which provably satisfies the per-world union bound. "none" draws
    arbitrary tables; callers audit and label the result.
    """
    rng = random.Random(seed)
    w_count, full = space.world_count, space.full
    rows = []
    for _ in range(w_count):
        ranking = tuple(rng.sample(range(w_count), w_count))
        goal = rng.randrange(full + 1)
        row = []
        for e in range(1, full + 1):
            if constraint == "k9":
                row.append(_ranking_pick(ranking, e))
            elif constraint == "k7":
                row.append(goal & e or _ranking_pick(ranking, e))
            elif constraint == "none":
                row.append(rng.randrange(full + 1))
            else:
                raise ValueError(f"unknown constraint {constraint!r}")
        rows.append(tuple(row))
    return WorldUpdateFamily(space, tuple(rows))


def enumerate_families(space: WorldSpace):
    """All update families over the space (single-atom spaces only)."""
    if len(space.atoms) > 1:
        raise ValueError("refusing to enumerate families beyond one atom; "
                         "use generate_family")
    w_count, full = space.world_count, space.full
    cells = w_count * full
    for flat in product(range(full + 1), repeat=cells):
        yield WorldUpdateFamily(
            space, tuple(flat[w * full:(w + 1) * full] for w in range(w_count)))


# ---------------------------------------------------------------------------
# serialization

def family_to_json(fam: WorldUpdateFamily) -> dict:
    entries = []
    for w in range(fam.space.world_count):
        for e in range(1, fam.space.full + 1):
            entries.append({
                "w": w,
                "event": indices_from_mask(e),
                "value": indices_from_mask(fam.u[w][e - 1]),
            })
    return {"worlds": len(fam.space.atoms), "u": entries}


def family_from_json(data: dict) -> WorldUpdateFamily:
    if not isinstance(data, dict):
        raise FamilyFormatError("family document must be an object")
    k = data.get("worlds")
    if type(k) is not int or not 1 <= k <= 4:  # bool is an int subclass
        raise FamilyFormatError("'worlds' must be an atom count from 1 to 4")
    space = world_space(k)
    w_count, full = space.world_count, space.full
    entries = data.get("u")
    if not isinstance(entries, list):
        raise FamilyFormatError("'u' must be a list of table entries")
    table: dict[tuple[int, int], int] = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"w", "event", "value"}:
            raise FamilyFormatError("each entry needs exactly w, event, value")
        w = entry["w"]
        if type(w) is not int or not 0 <= w < w_count:
            raise FamilyFormatError(f"world index {w!r} out of range")
        try:
            event = mask_from_indices(entry["event"], w_count)
            value = mask_from_indices(entry["value"], w_count)
        except ValueError as exc:
            raise FamilyFormatError(str(exc)) from None
        if event == 0:
            raise FamilyFormatError("entries must have non-empty input events")
        if (w, event) in table:
            raise FamilyFormatError(f"duplicate entry for world {w}, event {event}")
        table[(w, event)] = value
    rows = []
    for w in range(w_count):
        row = []
        for e in range(1, full + 1):
            if (w, e) not in table:
                raise FamilyFormatError(
                    f"table not total: world {w} has no entry for event {e}")
            row.append(table[(w, e)])
        rows.append(tuple(row))
    return WorldUpdateFamily(space, tuple(rows))
