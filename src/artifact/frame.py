"""Finite belief-selection frames and the update-row predicates.

A frame has states 0..n-1, a serial belief map (each state believes a
non-empty set of states) and a total selection function taking a state
and a non-empty event to an event. Events are int bitmasks over the
states; no constraint beyond totality is placed on the selection, so a
selected event may be empty.

``Frame.lift(K, E)`` is the union of f(s', E) over the states s' of a
belief event K, and the lifted selection U(s, E) is ``Frame.update(s, E)``,
``lift(belief[s], E)``. Both refuse with ValueError a state or event
outside the frame, the empty event and an empty belief event.
A world-level update family (``worlds``) is a frame in which every state
believes only itself, so its lift to a belief set K is ``lift(K, E)``.

A frame owns the two views every check reads. ``fr.rows[s]`` is the
update row U(s, ·), indexed by event mask (entry 0 is 0), built once
when the frame is made. ``modal_tables`` gives the frame's two modal
operators as tables over event masks: where B X holds for every event
X, and where E > F holds for every pair of events. They are built on
first use and kept on the frame, so every compiled truth function run
on one frame reads one build. Neither view takes part in comparing or
hashing frames.

Every update condition the package checks is written here once, as a
predicate on an update row and its belief event: success, unsurprising,
consistency, conjunction (◇5), reciprocity (◇6w), disjunction (◇7s),
expansion (◇9s), and revision's inclusion (*3) and vacuity (*4). Which
registry item each predicate restates is written here once too, in
``CONDITIONS``: item id to row predicate, or None for an item that holds
on every frame. An item with a predicate holds on a frame when the
predicate holds on every state's row; the correspondence sweeps play the
two against each other. An entry with a predicate is a frame property,
whose id is the item's id with the leading ``A`` replaced by ``P``
(``A_diamond_2`` is ``P_diamond_2``); ``PROPERTY_IDS`` lists them in
table order. The keys are plain strings, so this module imports nothing
from ``schema``.

The layers above only pick the rows, and reach a predicate through the
table: ``check_property`` runs a property's predicate on every state's
row of a frame, ``schema.CORRESPONDENCE_PAIRS`` pairs axioms with
properties, ``lanes.lane_chunks`` runs a sweep's properties once per
distinct (belief, row) pair, and ``model.check_km_axiom`` runs the
predicate of a postulate's item on one state's row. Only ``worlds``
names predicates, disjunction and expansion, which it runs on each
world's row and on each lifted belief event's row.

Counterexamples come in a fixed scan order (rows ascending, then event
masks ascending, pairs in lexicographic order). Reciprocity and
disjunction are symmetric in (E, F) and cannot fail at E = F, so they
scan only the pairs E < F: if (E, F) violates one, so does (F, E), and
the first violating pair in lexicographic order has E < F. The first
counterexample is the one a scan of every ordered pair would give.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from decimal import Decimal
from operator import or_

__all__ = [
    "Frame", "FrameFormatError", "CONDITIONS", "PROPERTY_IDS", "property_id", "bits",
    "mask_from_indices", "indices_from_mask", "modal_tables", "check_property",
    "COUNT_MAX_STATES", "frame_count",
    "enumerate_frames", "sample_frame", "frame_to_json", "frame_from_json",
    "success", "unsurprising", "consistency", "conjunction", "reciprocity",
    "disjunction", "expansion", "inclusion", "vacuity",
]


class FrameFormatError(ValueError):
    pass


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def indices_from_mask(mask: int) -> list[int]:
    return list(bits(mask))


def mask_from_indices(indices, n: int) -> int:
    if not isinstance(indices, (list, tuple)):
        raise FrameFormatError(f"expected a list of state indices, got {indices!r}")
    mask = 0
    for i in indices:
        if type(i) is not int:  # bool is an int subclass but no index
            raise FrameFormatError(f"state index {i!r} is not an integer")
        if not 0 <= i < n:
            raise FrameFormatError(f"state index {i} out of range for {n} states")
        if mask >> i & 1:
            raise FrameFormatError(f"duplicate state index {i}")
        mask |= 1 << i
    return mask


@dataclass(frozen=True, slots=True)
class Frame:
    n: int
    belief: tuple[int, ...]
    selection: tuple[tuple[int, ...], ...]  # selection[s][e - 1], e a non-empty mask
    rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _tables: tuple | None = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.n < 1:
            raise FrameFormatError("a frame needs at least one state")
        full = (1 << self.n) - 1
        if len(self.belief) != self.n:
            raise FrameFormatError("belief map must cover every state")
        for s, b in enumerate(self.belief):
            if b == 0:
                raise FrameFormatError(f"belief set of state {s} is empty")
            if b & ~full:
                raise FrameFormatError(f"belief set of state {s} out of range")
        if len(self.selection) != self.n:
            raise FrameFormatError("selection must cover every state")
        for s, row in enumerate(self.selection):
            if len(row) != full:
                raise FrameFormatError(
                    f"selection at state {s} must cover every non-empty event")
            for value in row:
                if value & ~full:
                    raise FrameFormatError(f"selected event at state {s} out of range")
        rows = []
        for b in self.belief:  # U(s, ·): the union of the believed states' rows
            believed = bits(b)
            row = self.selection[next(believed)]
            for sp in believed:
                row = tuple(map(or_, row, self.selection[sp]))
            rows.append((0, *row))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def update(self, s: int, event: int) -> int:
        """U(s, E): union of selections over the believed states."""
        if not 0 <= s < self.n:
            raise ValueError(f"state {s} out of range")
        return self.lift(self.belief[s], event)

    def lift(self, belief: int, event: int) -> int:
        """Union of f(s', E) over the states s' of a belief event."""
        if belief == 0:
            raise ValueError("empty belief-set event: inconsistent initial beliefs")
        if event == 0:
            raise ValueError("update is undefined on the empty event")
        if (belief | event) & ~self.full:  # negative masks included
            raise ValueError("belief or event out of range")
        out = 0
        for sp in bits(belief):
            out |= self.selection[sp][event - 1]
        return out


def _inclusion_row(events, full: int) -> list[int]:
    """Entry x: the states s with events[s] inside x. Each state is set
    in the entries of the supersets of its event only, so the build
    costs one step per entry it sets."""
    row = [0] * (full + 1)
    m = 1
    for v in events:
        x = v
        while x <= full:  # the supersets of v, ascending
            row[x] |= m
            x = (x + 1) | v
        m <<= 1
    return row


def modal_tables(fr: Frame) -> tuple[list[int], list[list[int]]]:
    """The modal values of a frame, indexed by event masks: ``bel[x]`` is
    where B X holds, the states whose belief lies inside x, and
    ``cnd[e][f]`` where E > F holds, the states s with f(s, E) inside F.
    ``cnd[0]`` is the vacuous row, the universe for every F. Built on the
    first call and kept on the frame; callers only read them."""
    tab = fr._tables
    if tab is None:
        full = fr.full
        bel = _inclusion_row(fr.belief, full)
        cnd = [[full] * (full + 1)] + [_inclusion_row(column, full)
                                       for column in zip(*fr.selection)]
        tab = (bel, cnd)
        object.__setattr__(fr, "_tables", tab)
    return tab


def _scan_events(n: int):
    return range(1, 1 << n)


# ---------------------------------------------------------------------------
# update-row predicates
#
# ``r[e]`` is the result of updating by the non-empty event mask e (e in
# 1..full; r[0] is not read), ``b`` is the row's belief event and ``full``
# the universe mask. Each predicate returns the first violating (E,) or
# (E, F) in ascending mask order, E before F, or None.

def success(r, b: int, full: int):
    """The result lies inside the input: r[E] <= E."""
    for e in range(1, full + 1):
        if r[e] & ~e:
            return (e,)
    return None


def unsurprising(r, b: int, full: int):
    """An input already believed leaves the beliefs unchanged."""
    for e in range(1, full + 1):
        if b & ~e == 0 and r[e] != b:
            return (e,)
    return None


def consistency(r, b: int, full: int):
    """A non-empty input never yields the empty event."""
    for e in range(1, full + 1):
        if r[e] == 0:
            return (e,)
    return None


def conjunction(r, b: int, full: int):
    """When E&F is non-empty, r[E]&F <= r[E&F] (◇5)."""
    events = range(1, full + 1)
    for e in events:
        re = r[e]
        for f in events:
            if e & f and re & f & ~r[e & f]:
                return (e, f)
    return None


def reciprocity(r, b: int, full: int):
    """When E&F is non-empty, r[E] <= F and r[F] <= E force r[E] == r[F] (◇6w)."""
    for e in range(1, full + 1):
        re = r[e]
        for f in range(e + 1, full + 1):
            if e & f and re & ~f == 0 and r[f] & ~e == 0 and re != r[f]:
                return (e, f)
    return None


def disjunction(r, b: int, full: int):
    """The union bound r[E|F] <= r[E] | r[F] (◇7s)."""
    for e in range(1, full + 1):
        re = r[e]
        for f in range(e + 1, full + 1):
            if r[e | f] & ~(re | r[f]):
                return (e, f)
    return None


def expansion(r, b: int, full: int):
    """Conditional expansion: when E&F and r[E]&F are non-empty,
    r[E&F] <= r[E]&F (◇9s)."""
    events = range(1, full + 1)
    for e in events:
        re = r[e]
        for f in events:
            ef = e & f
            if ef:
                bound = re & f
                if bound and r[ef] & ~bound:
                    return (e, f)
    return None


def inclusion(r, b: int, full: int):
    """The believed part of an input survives: b&E <= r[E] (*3)."""
    for e in range(1, full + 1):
        if b & e & ~r[e]:
            return (e,)
    return None


def vacuity(r, b: int, full: int):
    """Revision's vacuity bound (*4): when b&E is non-empty, r[E] lies
    inside every F containing b&E; F ranges over all masks, empty included."""
    for e in range(1, full + 1):
        be = b & e
        if be == 0:
            continue
        re = r[e]
        for f in range(full + 1):
            if be & ~f == 0 and re & ~f:
                return (e, f)
    return None


# registry item id -> the row predicate it restates, or None for an item
# that holds on every frame; in registry order
CONDITIONS = {
    "A_star_1_diamond_0": None,
    "A_star_2_diamond_1": success,
    "A_diamond_2": unsurprising,
    "A_star_5b_diamond_3b": consistency,
    "A_star_7_diamond_5": conjunction,
    "A_diamond_6w": reciprocity,
    "A_diamond_7s": disjunction,
    "A_star_3": inclusion,
    "A_star_4": vacuity,
    "A_star_8_diamond_9s": expansion,
    "R_star_5a_diamond_3a": None,
    "R_star_6_diamond_4": None,
}


def property_id(item: str) -> str | None:
    """The frame property of a ``CONDITIONS`` item: its id with the
    leading A replaced by P, or None for an item without a predicate."""
    return None if CONDITIONS[item] is None else "P" + item[1:]


_PROPERTIES = {property_id(a): c for a, c in CONDITIONS.items() if c is not None}
PROPERTY_IDS = tuple(_PROPERTIES)


def check_property(fr: Frame, prop_id: str):
    """Returns (holds, counterexample): the property's row predicate on
    every state's row U(s, ·). The counterexample is (s, E) or (s, E, F)
    with events as masks, the first one in scan order."""
    try:
        condition = _PROPERTIES[prop_id]
    except KeyError:
        raise ValueError(f"unknown frame property {prop_id!r}") from None
    full, rows = fr.full, fr.rows
    for s, b in enumerate(fr.belief):
        cex = condition(rows[s], b, full)
        if cex is not None:
            return False, (s, *cex)
    return True, None


# ---------------------------------------------------------------------------
# enumeration and sampling

# frame_count(7) has 1,889 digits; frame_count(8) has 4,933, past the
# 4,300 Python converts to a string, and the count's bits grow as n^2 2^n
COUNT_MAX_STATES = 7


def frame_count(n: int) -> int:
    events = (1 << n) - 1
    return events ** n * (1 << n) ** (n * events)


def enumerate_frames(n: int):
    """All frames on n states, in a fixed order. Exhaustive enumeration
    is refused for n >= 3 (the space is astronomically large); the
    refusal gives the count up to ``COUNT_MAX_STATES`` states: exactly
    while it has fewer than 25 digits (3 states, 22 digits), rounded to
    three figures from 4 states on (77 to 1,889 digits)."""
    if n >= 3:
        if n > COUNT_MAX_STATES:
            what = f"the frames on {n} states"
        else:
            count = frame_count(n)
            what = (f"{count} frames" if count < 10 ** 24
                    else f"about {Decimal(count):.2e} frames")
        raise ValueError(f"refusing to enumerate {what}; use sample_frame")
    full = (1 << n) - 1
    slots = n * full
    for belief in itertools.product(range(1, full + 1), repeat=n):
        for flat in itertools.product(range(full + 1), repeat=slots):
            selection = tuple(flat[s * full:(s + 1) * full] for s in range(n))
            yield Frame(n, belief, selection)


def sample_frame(n: int, rng: random.Random) -> Frame:
    full = (1 << n) - 1
    belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
    selection = tuple(
        tuple(rng.randrange(full + 1) for _ in range(full)) for _ in range(n))
    return Frame(n, belief, selection)


# ---------------------------------------------------------------------------
# serialization

def frame_to_json(fr: Frame) -> dict:
    return {
        "states": fr.n,
        "belief": [indices_from_mask(b) for b in fr.belief],
        "selection": [
            {"s": s, "event": indices_from_mask(e), "value": indices_from_mask(fr.selection[s][e - 1])}
            for s in range(fr.n)
            for e in _scan_events(fr.n)
        ],
    }


def frame_from_json(data) -> Frame:
    if not isinstance(data, dict):
        raise FrameFormatError("frame document must be an object")
    try:
        n = data["states"]
        belief_lists = data["belief"]
        entries = data["selection"]
    except (KeyError, TypeError) as exc:
        raise FrameFormatError(f"missing frame field: {exc}") from None
    if type(n) is not int or n < 1:
        raise FrameFormatError("states must be a positive integer")
    if not isinstance(belief_lists, list) or len(belief_lists) != n:
        raise FrameFormatError("belief must list one set per state")
    belief = tuple(mask_from_indices(ix, n) for ix in belief_lists)
    full = (1 << n) - 1
    table: dict[tuple[int, int], int] = {}
    if not isinstance(entries, list):
        raise FrameFormatError("selection must be a list of entries")
    for entry in entries:
        try:
            s, event, value = entry["s"], entry["event"], entry["value"]
        except (KeyError, TypeError):
            raise FrameFormatError(f"malformed selection entry: {entry!r}") from None
        if type(s) is not int or not 0 <= s < n:
            raise FrameFormatError(f"selection entry state {s!r} out of range")
        e = mask_from_indices(event, n)
        if e == 0:
            raise FrameFormatError("selection entry on the empty event")
        if (s, e) in table:
            raise FrameFormatError(f"duplicate selection entry for s={s}, event={event}")
        table[s, e] = mask_from_indices(value, n)
    # the first missing pair lies within the first len(table) + 1 of the scan
    for s in range(n):
        for e in _scan_events(n):
            if (s, e) not in table:
                raise FrameFormatError(
                    f"selection is not total: no entry for s={s}, event={indices_from_mask(e)}")
    selection = tuple(tuple(table[s, e] for e in _scan_events(n)) for s in range(n))
    return Frame(n, belief, selection)
