"""World-level update algebra: lifting per-world updates to belief sets.

Worlds over k atoms are the 2**k complete valuations of those atoms,
so a ``WorldSpace`` is its atom count k, from 1 to 4. Every deductively
closed, complete, consistent theory at a finite signature is the theory
of exactly one world. A belief set is encoded by the event of worlds
compatible with it, so theories shrink as events grow: intersecting two
theories unions their events, and expanding a theory by a proposition
intersects its event with that proposition.

A family assigns each world w a total update u(w, E) on non-empty events
(Katsuno and Mendelzon's update family). It is a ``frame.Frame`` on the
worlds in which every world believes only itself and the table u[w][E-1]
is the selection, so families are validated, indexed and serialized as
frames: a family document is a frame document, which
``family_from_json`` reads and refuses unless it has 2**k states, k from
1 to 4, each believing only itself. Lifting to an arbitrary belief event
K intersects the updated theories of K's worlds, which at event level is
the union of their result events: ``Frame.lift(K, E)``, which
``lift_update`` names here and whose refusals (an empty belief event, an
empty event, anything outside the family) it keeps. The package itself
calls none of ``lift_update``, ``audit_k9`` and ``family_from_json``:
they stay public as the reference through which the acceptance test
recounts the lifting lemma, independently of the lemma checkers' memo
and lifted rows. The per-world audits and the lifted lemmas run the row
predicates of ``frame`` (disjunction for the union bound, expansion for
conditional expansion) on rows picked here: each world's update row
``fam.rows[w]``, u(w, ·), for the hypothesis, then each belief event's
lifted row lift(K, ·) for the conclusion. Each lemma checker audits the hypothesis first and
reports the first violating (K, E, F) triple in ascending mask order.

Rows are tuples, so a sweep over families of one atom count can hand
each lemma checker a verdict memo (a dict it owns for that sweep, as
``cli.run_worlds_report`` does; a call without one uses a memo of its
own): every row met is still checked, but a row met before in the sweep
reuses its verdict instead of running the predicate again. Disjunction
and expansion read only the row, never its belief event, so the row
alone is the key; a row missing from the memo is checked with its own
belief event all the same. A memo stores at most ``_MEMO_CELLS`` row
cells and checks rows past that without storing them, which bounds its
memory at three atoms, where rows have 256 cells and rarely repeat.
Each checker walks the world rows, then the lifted rows, in one plain
loop that looks each row up in the memo itself: the lifting-lemma
criterion makes 10,192 checker calls, so no closure or generator is
built per call. ``audit_k9``, which has no memo, is the family's
``frame.check_property`` for conditional expansion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from operator import or_

from .frame import (
    Frame, FrameFormatError, check_property, disjunction, expansion, frame_from_json,
)

__all__ = [
    "WorldSpace", "world_space", "update_family",
    "lift_update", "audit_k9", "LemmaReport",
    "check_lemma_k7s", "check_lemma_k9s", "generate_family",
    "enumerate_families", "family_from_json",
]

# Row cells a verdict memo stores at most: 4,096 two-atom rows or 256
# three-atom rows, whose 256-cell rows rarely repeat within a sweep.
_MEMO_CELLS = 1 << 16
_UNSEEN = object()


@dataclass(frozen=True, slots=True)
class WorldSpace:
    """The 2**atoms worlds over ``atoms`` atoms, 1 to 4. A world is its
    index, a valuation read bit by bit, so atoms need no names."""

    atoms: int

    def __post_init__(self):
        if not 1 <= self.atoms <= 4:
            raise ValueError("world spaces support 1 to 4 atoms")

    @property
    def world_count(self) -> int:
        return 1 << self.atoms

    @property
    def full(self) -> int:
        return (1 << self.world_count) - 1


def world_space(k: int) -> WorldSpace:
    return WorldSpace(k)


def update_family(space: WorldSpace, table) -> Frame:
    """The family with table[w][E-1]: a frame on the space's worlds in
    which every world believes only itself."""
    return Frame(space.world_count,
                 tuple(1 << w for w in range(space.world_count)), tuple(table))


def lift_update(fam: Frame, belief: int, event: int) -> int:
    """Union over the belief event's worlds of their updates: the
    event-level form of intersecting the updated theories of all worlds
    compatible with the initial belief set. ``Frame.lift`` under the
    family's name; its refusals are the frame's."""
    return fam.lift(belief, event)


# ---------------------------------------------------------------------------
# per-world hypothesis audits and lifted lemmas

def audit_k9(fam: Frame):
    """First violation of the per-world conditional-expansion bound:
    when E&F is non-empty and u(w,E)&F is non-empty, u(w, E&F) must be
    contained in u(w,E)&F. Returns (w, E, F) or None: the family's
    ``P_star_8_diamond_9s`` check, whose predicate is expansion."""
    return check_property(fam, "P_star_8_diamond_9s")[1]


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


def _lift_table(fam: Frame) -> list[tuple[int, ...]]:
    """lift(K, ·) for every belief event K, at index K, each row indexed
    like ``fam.rows``. A singleton K's row is its world's ``fam.rows[w]``
    as is; every other row is one ``map(or_, ...)`` of a smaller row and
    a world row. The rows are tuples, so each can key a verdict memo.

    Memory, measured on a 2-vCPU Xeon with Python 3.11.7: at three
    atoms, ``worlds-check --sample 30`` peaks at 19.8-20.1 MB, within
    0.5 MB of list rows without a memo. At two atoms, CPython keeps freed
    tuples of under 20 cells on a free list of at most 2,000 per length,
    so the 16-cell rows keep about 0.3 MB more resident after a sweep
    than list rows would; that amount does not grow with further sweeps."""
    rows = fam.rows
    table = [None] * (fam.full + 1)  # entry 0, the empty K, is never read
    for belief in range(1, fam.full + 1):
        rest = belief & (belief - 1)
        w_row = rows[(belief & -belief).bit_length() - 1]
        table[belief] = tuple(map(or_, table[rest], w_row)) if rest else w_row
    return table


def _first_memo_violation(condition, memo: dict, beliefs, rows, start: int,
                          full: int):
    """First (index, E, F) over the rows from index ``start`` on, each
    checked with its own belief event ``beliefs[index]``, or None. A
    row's verdict is looked up in ``memo`` first: the row predicates
    read only the row, never the belief event, so the row alone keys
    the verdict. Rows met once the memo holds ``_MEMO_CELLS`` cells are
    checked without being stored; every row has full + 1 cells."""
    get, room = memo.get, _MEMO_CELLS // (full + 1)
    for index in range(start, len(rows)):
        row = rows[index]
        cex = get(row, _UNSEEN)
        if cex is _UNSEEN:
            cex = condition(row, beliefs[index], full)
            if len(memo) < room:
                memo[row] = cex
        if cex is not None:
            return (index, *cex)
    return None


def _check_lemma(fam: Frame, lemma: str, condition,
                 memo: dict | None = None) -> LemmaReport:
    """The condition on every world's row first, then on every lifted
    belief event's row lift(K, ·). A row already in the memo, the sweep's
    or one made for this call, reuses its verdict."""
    full = fam.full
    memo = {} if memo is None else memo
    bad = _first_memo_violation(condition, memo, fam.belief, fam.rows, 0, full)
    if bad is not None:
        return LemmaReport(lemma, False, bad, None, None)
    cex = _first_memo_violation(condition, memo, range(full + 1),
                                _lift_table(fam), 1, full)
    return LemmaReport(lemma, True, None, cex is None, cex)


def check_lemma_k7s(fam: Frame, memo: dict | None = None) -> LemmaReport:
    """Lifted union bound: lift(K, E|F) <= lift(K,E) | lift(K,F).

    The sweep confirms a one-line argument from the per-world bound, the
    lift being a union over the worlds w of K:
    lift(K, E|F) = U u(w, E|F) <= U (u(w,E) | u(w,F)) = lift(K,E) | lift(K,F).
    """
    return _check_lemma(fam, "k7s", disjunction, memo)


def check_lemma_k9s(fam: Frame, memo: dict | None = None) -> LemmaReport:
    """Lifted conditional-expansion bound: when lift(K,E)&F is non-empty,
    lift(K, E&F) <= lift(K,E) & F."""
    return _check_lemma(fam, "k9s", expansion, memo)


# ---------------------------------------------------------------------------
# generators

def _ranking_pick(ranking: tuple[int, ...], event: int) -> int:
    for w in ranking:
        if event >> w & 1:
            return 1 << w
    raise AssertionError("non-empty event has a ranked world")


def generate_family(space: WorldSpace, seed: int, constraint: str = "none") -> Frame:
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
    return update_family(space, rows)


def enumerate_families(space: WorldSpace):
    """All update families over the space (single-atom spaces only)."""
    if space.atoms > 1:
        raise ValueError("refusing to enumerate families beyond one atom; "
                         "use generate_family")
    w_count, full = space.world_count, space.full
    cells = w_count * full
    for flat in product(range(full + 1), repeat=cells):
        yield update_family(
            space, (flat[w * full:(w + 1) * full] for w in range(w_count)))


# ---------------------------------------------------------------------------
# serialization: a family is written as the frame it is (``frame_to_json``)

def family_from_json(data) -> Frame:
    """The family a frame document describes; refused unless the frame
    has 2**k states, k from 1 to 4, each believing only itself."""
    fam = frame_from_json(data)
    k = fam.n.bit_length() - 1
    if (fam.n != 1 << k or not 1 <= k <= 4
            or fam.belief != tuple(1 << w for w in range(fam.n))):
        raise FrameFormatError("a family needs 2**k states, k from 1 to 4, "
                               "each believing only itself")
    return fam
