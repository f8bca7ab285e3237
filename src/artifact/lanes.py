"""Sweeps over many frames at once: lane tables and the lane mode of the
code generator.

A correspondence sweep asks the same questions of every frame, so it
asks them of all its frames together. The sweep's frames come in chunks,
and frame i of a chunk is bit i, "lane" i, of Python ints: a set of
frames is one int, and one big-int operation acts on every frame.

``lane_chunks`` streams the frames into the two lane tables, the frames'
``frame.modal_tables`` side by side: ``bel[x][s]`` holds the lanes whose
belief at state s lies inside the event x, ``cnd[e][f][s]`` those whose
selection at s for e lies inside f. It keeps no frame; a frame is read
back from its lane's bits (``LaneChunk.frame``). Row predicates need no
lanes: each runs once per distinct (belief, update row) pair on a state,
and the chunk records, for each set of properties, the lanes whose
frames fail exactly that set.

``_LaneCodegen`` is the lane mode of ``model._Codegen``. A schema's lane
checker is ``schema.compile_schema_checker`` with ``states``: the same
scan as a per-frame checker, with the same loops, guards and zero
tests, emitted by this mode, which differs only in its clauses and in
the scan's hooks (``bind``, ``some``, ``refute``). Boolean subformulas
stay state masks, every other node has one lane int per state, and each
binding clears the lanes it refutes from one int of valid lanes. A
chunk's validity for a schema is one call.

``schema`` imports this module on its first sweep, so a process that
never sweeps does not compile it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .frame import _PROPERTIES, Frame
from .model import _Codegen

__all__ = ["LaneChunk", "lane_chunks"]

# bytes of lane buffers a chunk fills, n (2^n)^2 buffers of one width:
# 16,384 frames a chunk at 2 states, 2,728 at 3, 512 at 4
_CHUNK_BYTES = 1 << 16
# cells of update rows the predicate memo of one sweep holds at most: 512
# rows at 2 states, where 192 distinct (belief, row) pairs exist; 256 at
# 3 states, where pairs rarely repeat
_MEMO_CELLS = 1 << 11


@dataclass(frozen=True, slots=True, eq=False)
class LaneChunk:
    """``count`` consecutive frames of a sweep on ``n`` states, frame i of
    the chunk being bit i, "lane" i, of every int here. The lane tables
    are the frames' ``modal_tables`` side by side: ``bel[x][s]`` holds the
    lanes whose belief at state s lies inside the event x, and
    ``cnd[e][f][s]`` those whose selection at s for e lies inside f
    (``cnd[0]`` is the vacuous row, every lane). ``failed`` maps each
    failure signature, a bitmask over the sweep's properties, to the
    lanes whose frames fail exactly those."""

    n: int
    count: int
    bel: list[tuple[int, ...]]
    cnd: list[list[tuple[int, ...]]]
    failed: dict[int, int]

    @property
    def lanes(self) -> int:
        return (1 << self.count) - 1

    def holds(self, i: int) -> int:
        """The lanes whose frames have the sweep's i-th property."""
        bit = 1 << i
        out = self.lanes
        for signature, lanes in self.failed.items():
            if signature & bit:
                out ^= lanes
        return out

    def frame(self, lane: int) -> Frame:
        """The frame in ``lane``, read back from the tables: a state t lies
        outside an event v exactly where v lies inside full ^ {t}."""
        n, full = self.n, (1 << self.n) - 1

        def event(table, s):
            return sum(1 << t for t in range(n) if not table[full ^ 1 << t][s] >> lane & 1)

        return Frame(n, tuple(event(self.bel, s) for s in range(n)),
                     tuple(tuple(event(self.cnd[e], s) for e in range(1, full + 1))
                           for s in range(n)))


def _subset_lanes(cells: list[bytearray], n: int) -> list[int]:
    """From the lanes whose event is exactly v, for each v, to the lanes
    whose event lies inside x, for each x: every x gathers its subsets,
    one state at a time."""
    z = [int.from_bytes(c, "little") for c in cells]
    for t in range(n):
        m = 1 << t
        for x in range(len(z)):
            if x & m:
                z[x] |= z[x ^ m]
    return z


def lane_chunks(frames, n: int, properties):
    """Chunks of the frames on n states, in order, with the lane tables
    of each chunk built as its frames stream in. No frame is kept: a
    lane's frame is rebuilt from the tables (``LaneChunk.frame``).

    Bit i of a failure signature stands for ``properties[i]``. A
    property's row predicate runs once per distinct (belief, update row)
    pair on a state, up to the memo's room, and on a state only while
    the predicate still holds on the frame's earlier states, so no
    predicate runs more often than ``check_property`` would run it."""
    try:
        conditions = tuple(enumerate(_PROPERTIES[p] for p in properties))
    except KeyError as exc:
        raise ValueError(f"unknown frame property {exc.args[0]!r}") from None
    full = (1 << n) - 1
    width = max(8, _CHUNK_BYTES // (n * (full + 1) ** 2))
    every = (1 << len(conditions)) - 1
    memo, room = {}, _MEMO_CELLS // (full + 1)
    frames = iter(frames)
    while True:
        bel = [[bytearray(width) for _ in range(full + 1)] for _ in range(n)]
        sel = [[[bytearray(width) for _ in range(full + 1)] for _ in range(full)]
               for _ in range(n)]
        signatures: dict[int, bytearray] = {}
        count = 0
        for fr in itertools.islice(frames, 8 * width):
            byte, bit = count >> 3, 1 << (count & 7)
            count += 1
            failed = 0
            for bel_s, sel_s, b, row, urow in zip(bel, sel, fr.belief, fr.selection, fr.rows):
                bel_s[b][byte] |= bit
                for cells, v in zip(sel_s, row):
                    cells[v][byte] |= bit
                need = every & ~failed
                if need:
                    key = (b, urow)
                    known, bad = memo.get(key, (0, 0))
                    need &= ~known
                    if need:
                        for i, condition in conditions:
                            if need >> i & 1 and condition(urow, b, full) is not None:
                                bad |= 1 << i
                        if len(memo) < room:
                            memo[key] = (known | need, bad)
                    failed |= bad
            lanes = signatures.get(failed)
            if lanes is None:
                lanes = signatures[failed] = bytearray(width)
            lanes[byte] |= bit
        if not count:
            return
        every_lane = ((1 << count) - 1,) * n
        yield LaneChunk(
            n, count,
            list(zip(*(_subset_lanes(cells, n) for cells in bel))),
            [[every_lane] * (full + 1)]
            + [list(zip(*(_subset_lanes(sel[s][e], n) for s in range(n))))
               for e in range(full)],
            {sig: int.from_bytes(lanes, "little") for sig, lanes in signatures.items()})
        if count < 8 * width:
            return


class _LaneCodegen(_Codegen):
    """The lane mode of ``_Codegen``: one generated function evaluates the
    clauses on all the frames of a ``LaneChunk`` on n states at once. It
    reads the locals ``bel`` and ``cnd``, the chunk's lane tables, and
    ``lanes``, the int with every lane set.

    A Boolean node does not depend on the frame: it stays a state mask,
    emitted as ``_Codegen`` emits it with the universe given. Any other
    node is a lane vector, a tuple of n expressions, the s-th holding the
    lanes where the node is true at state s. B x and x > y with Boolean
    operands are ``bel[x]`` and ``cnd[x][y]``, unpacked into n locals.
    B over a lane vector Y is, at s, the AND over states t of ("t not
    believed at s" | Y[t]), the first operand read from ``bel`` once per
    call as ``nb_s_t``; [] over it is the AND of Y over the states. A
    conditional needs Boolean arguments: one whose argument is a lane
    vector is refused with ValueError. The scan it is driven through
    keeps ``valid``, the lanes no binding has refuted yet, and returns
    it."""

    scan = ("_lanes", "valid")

    def __init__(self, names: tuple[str, ...], n: int):
        super().__init__(names, full=(1 << n) - 1)
        self.n = n
        self.flipped: dict[str, str] = {}  # a complement's text -> what it complements
        self.add(0, "valid = lanes")

    def vector(self, key: tuple[str, ...], level: int, text: str) -> tuple[tuple[str, ...], int]:
        """A lane-vector statement: n locals, set by ``text`` with ``{v}``
        standing for their comma-separated names, emitted once per ``key``."""
        got = self.statements.get(key)
        if got is None:
            v = self.fresh()
            names = tuple(f"{v}_{s}" for s in range(self.n))
            self.add(level, text.format(v="".join(f"{name}, " for name in names)))
            got = self.statements[key] = (names, level)
        return got

    def bind(self, level: int, x) -> tuple:
        ex, lx = x
        if isinstance(ex, str):
            return super().bind(level, x)
        if all(p.isidentifier() or p.isdigit() for p in ex):
            return x
        v = self.fresh()
        for s, p in enumerate(ex):
            self.add(level, f"{v}_{s} = {p}")
        return tuple(f"{v}_{s}" for s in range(self.n)), lx

    def some(self, x) -> str:
        """An expression that is non-zero where ``x`` holds at some state
        of some lane still ``valid``."""
        ex = x[0]
        return ex if isinstance(ex, str) else f"({' | '.join(ex)}) & valid"

    def refute(self, x) -> None:
        """Clear from ``valid`` the lanes on which the binding is refuted
        at some state of ``x``, and return 0 once no lane is left."""
        bad, bottom = x[0], len(self.names)
        if isinstance(bad, str):  # the same states fail on every lane
            self.add(bottom, f"if {bad}:\n    return 0")
        else:
            self.add(bottom, (f"_bad = {' | '.join(bad)}\n"
                              f"if _bad:\n"
                              f"    valid &= ~_bad\n"
                              f"    if not valid:\n"
                              f"        return 0"))

    def neg(self, x):
        ex, lx = x
        if isinstance(ex, str):
            return super().neg(x)
        return tuple(map(self.flip, ex)), lx

    def flip(self, y: str) -> str:
        """The complement of a lane expression, a double one cancelled."""
        got = self.flipped.get(y)
        if got is None:
            got = f"(lanes ^ {y})"
            self.flipped[got] = y
        return got

    def _mixed(self, x, y):
        """(mask, vector, level) for one Boolean and one lane-vector
        operand, or None."""
        (ex, lx), (ey, ly) = x, y
        if isinstance(ex, str) != isinstance(ey, str):
            m, vec = (ex, ey) if isinstance(ex, str) else (ey, ex)
            return m, vec, max(lx, ly)
        return None

    def join(self, op, x, y):
        if isinstance(x[0], str) and isinstance(y[0], str):
            return super().join(op, x, y)
        mixed = self._mixed(x, y)
        if mixed is None:
            return tuple(f"({a} {op} {b})" for a, b in zip(x[0], y[0])), max(x[1], y[1])
        m, vec, level = mixed
        c = self.literal(m)
        if c == (self.full if op == "&" else 0):  # the unit
            return vec, level
        if c == (0 if op == "&" else self.full):  # the absorbing value
            return str(c), 0
        if op == "&":
            return tuple(f"({a} if {m} & {1 << s} else 0)" for s, a in enumerate(vec)), level
        return tuple(f"(lanes if {m} & {1 << s} else {a})" for s, a in enumerate(vec)), level

    def iff(self, x, y):
        if isinstance(x[0], str) and isinstance(y[0], str):
            return super().iff(x, y)
        mixed = self._mixed(x, y)
        if mixed is None:
            return (tuple(self.flip(f"({a} ^ {b})") for a, b in zip(x[0], y[0])),
                    max(x[1], y[1]))
        m, vec, level = mixed
        return tuple(f"({a} if {m} & {1 << s} else {self.flip(a)})"
                     for s, a in enumerate(vec)), level

    def believes(self, x):
        ex, lx = x
        if isinstance(ex, str):
            return self.vector(("B", ex), lx, f"{{v}}= bel[{ex}]")
        ys, _ = self.bind(lx, x)
        return self.vector(("B",) + ys, lx, "{v}= " + ", ".join(
            " & ".join(f"(nb_{s}_{t} | {y})" for t, y in enumerate(ys))
            for s in range(self.n)) + ",")

    def conditional(self, x, y):
        if not (isinstance(x[0], str) and isinstance(y[0], str)):
            raise ValueError("lane mode needs Boolean arguments of a conditional; "
                             "a modal formula inside one has a value per frame")
        (ex, lx), (ey, ly) = x, y
        if self.literal(ex) == 0:
            return str(self.full), 0  # vacuous case
        return self.vector(("C", ex, ey), max(lx, ly), f"{{v}}= cnd[{ex}][{ey}]")

    def box(self, x):
        ex, lx = x
        if isinstance(ex, str):
            return super().box(x)
        ys, _ = self.bind(lx, x)
        v, _ = self.bind(lx, (" & ".join(ys), lx))
        return (v,) * self.n, lx

    def prologue(self, name: str) -> list[str]:
        full = self.full
        return [f"def {name}(bel, cnd, lanes):"] + [
            f"    nb_{s}_{t} = bel[{full ^ 1 << t}][{s}]"
            for s in range(self.n) for t in range(self.n)]
