"""Frames: seriality, the lifted selection, property checkers, enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from artifact import frame as frame_module
from artifact.frame import (
    PROPERTY_IDS,
    Frame,
    FrameFormatError,
    bits,
    check_property,
    disjunction,
    enumerate_frames,
    expansion,
    frame_count,
    frame_from_json,
    frame_to_json,
    indices_from_mask,
    mask_from_indices,
    reciprocity,
    sample_frame,
)
from artifact.model import model_from_json
from artifact.worlds import family_from_json, generate_family, world_space

# n=2, B(0)={0}, B(1)={0,1}; selection rows are (E={0}, E={1}, E={0,1}).
DEMO = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))

# Two-state frame separating revision from update: every state believes
# {0,1}; conditioning on the whole space refines to the actual state, but
# conditioning on a proper subset always lands on state 1.
WITNESS = Frame(2, (3, 3), ((2, 2, 1), (2, 2, 2)))


def _set_update(fr: Frame, s: int, event: int) -> set[int]:
    out: set[int] = set()
    for sp in bits(fr.belief[s]):
        out |= set(indices_from_mask(fr.selection[sp][event - 1]))
    return out


def _set_property_holds(fr: Frame, prop_id: str) -> bool:
    """Independent oracle: frozenset arithmetic straight from the
    definitions, quantifiers spelled out with itertools."""
    n = fr.n
    full_set = set(range(n))
    events = [set(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]
    all_events = [set()] + events

    def u(s, e):
        return _set_update(fr, s, mask_from_indices(sorted(e), n))

    def belief(s):
        return set(indices_from_mask(fr.belief[s]))

    if prop_id == "P_star_2_diamond_1":
        return all(u(s, e) <= e for s in range(n) for e in events)
    if prop_id == "P_diamond_2":
        return all(not belief(s) <= e or u(s, e) == belief(s)
                   for s in range(n) for e in events)
    if prop_id == "P_star_5b_diamond_3b":
        return all(u(s, e) != set() for s in range(n) for e in events)
    if prop_id == "P_star_7_diamond_5":
        return all(not e & f or u(s, e) & f <= u(s, e & f)
                   for s in range(n) for e in events for f in events)
    if prop_id == "P_diamond_6w":
        return all(not (e & f and u(s, e) <= f and u(s, f) <= e) or u(s, e) == u(s, f)
                   for s in range(n) for e in events for f in events)
    if prop_id == "P_diamond_7s":
        return all(u(s, e | f) <= u(s, e) | u(s, f)
                   for s in range(n) for e in events for f in events)
    if prop_id == "P_star_3":
        return all(belief(s) & e <= u(s, e) for s in range(n) for e in events)
    if prop_id == "P_star_4":
        return all(not (belief(s) & e and belief(s) <= (full_set - e) | f) or u(s, e) <= f
                   for s in range(n) for e in all_events for f in all_events)
    if prop_id == "P_star_8_diamond_9s":
        return all(not (e & f and u(s, e) & f) or u(s, e & f) <= u(s, e) & f
                   for s in range(n) for e in events for f in events)
    raise ValueError(prop_id)


# -- construction ----------------------------------------------------------

def test_seriality_enforced():
    with pytest.raises(FrameFormatError, match="empty"):
        Frame(2, (0, 3), ((0, 0, 0), (0, 0, 0)))


def test_shape_enforced():
    with pytest.raises(FrameFormatError):
        Frame(2, (1,), ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(FrameFormatError):
        Frame(2, (1, 2), ((0, 0), (0, 0, 0)))
    with pytest.raises(FrameFormatError):
        Frame(2, (1, 5), ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(FrameFormatError):
        Frame(2, (1, 2), ((0, 0, 4), (0, 0, 0)))


def test_update_hand_values():
    assert DEMO.update(0, 0b01) == 0          # selected event may be empty
    assert DEMO.update(0, 0b10) == 0b10
    assert DEMO.update(0, 0b11) == 0b01
    assert DEMO.update(1, 0b01) == 0b01
    assert DEMO.update(1, 0b10) == 0b10
    assert DEMO.update(1, 0b11) == 0b11
    with pytest.raises(ValueError):
        DEMO.update(0, 0)


# -- property checkers ------------------------------------------------------

def test_property_hand_values():
    assert check_property(DEMO, "P_star_2_diamond_1") == (True, None)
    assert check_property(DEMO, "P_diamond_2") == (False, (0, 0b01))
    assert check_property(DEMO, "P_star_5b_diamond_3b") == (False, (0, 0b01))
    # first counterexamples of the pair conditions, in scan order
    assert check_property(DEMO, "P_star_7_diamond_5") == (False, (0, 0b11, 0b01))
    assert check_property(DEMO, "P_diamond_6w") == (False, (0, 0b01, 0b11))
    assert check_property(DEMO, "P_diamond_7s") == (False, (0, 0b01, 0b10))
    assert check_property(DEMO, "P_star_4") == (True, None)


def test_witness_frame_separates_revision_from_update():
    assert check_property(WITNESS, "P_diamond_2") == (True, None)
    holds, cex = check_property(WITNESS, "P_star_4")
    assert not holds
    assert cex == (0, 0b01, 0b01)


def test_unknown_property_rejected():
    with pytest.raises(ValueError, match="unknown frame property"):
        check_property(DEMO, "P_bogus")


def test_checkers_agree_with_set_oracle_two_states():
    frames = itertools.islice(enumerate_frames(2), 0, 36864, 17)
    for fr in frames:
        for prop_id in PROPERTY_IDS:
            holds, cex = check_property(fr, prop_id)
            assert holds == _set_property_holds(fr, prop_id), (fr, prop_id)
            assert (cex is None) == holds


def test_checkers_agree_with_set_oracle_three_states():
    rng = random.Random(5)
    for _ in range(300):
        fr = sample_frame(3, rng)
        for prop_id in PROPERTY_IDS:
            holds, _ = check_property(fr, prop_id)
            assert holds == _set_property_holds(fr, prop_id), (fr, prop_id)


def _reciprocity_all_pairs(r, b, full):
    """◇6w over every ordered pair (E, F), lexicographic."""
    events = range(1, full + 1)
    for e, f in itertools.product(events, events):
        if e & f and r[e] & ~f == 0 and r[f] & ~e == 0 and r[e] != r[f]:
            return (e, f)
    return None


def _disjunction_all_pairs(r, b, full):
    """◇7s over every ordered pair (E, F), lexicographic."""
    events = range(1, full + 1)
    for e, f in itertools.product(events, events):
        if r[e | f] & ~(r[e] | r[f]):
            return (e, f)
    return None


def _perturbed_ranked_row(rng: random.Random, n: int) -> tuple[int, ...]:
    """An update row that picks the lowest-ranked states of each event
    (so both conditions hold), with up to two entries then replaced by
    a random subset of their event."""
    full = (1 << n) - 1
    rank = [rng.randrange(n) for _ in range(n)]
    row = [0]
    for e in range(1, full + 1):
        low = min(rank[i] for i in bits(e))
        row.append(sum(1 << i for i in bits(e) if rank[i] == low))
    for _ in range(rng.randrange(3)):
        e = rng.randrange(1, full + 1)
        row[e] = rng.randrange(full + 1) & e
    return tuple(row)


def test_symmetric_scans_give_the_all_pairs_counterexample():
    # reciprocity and disjunction scan only E < F; the first
    # counterexample must be the one the full ordered-pair scan finds
    groups = {}
    for n in (1, 2):  # every row
        full = (1 << n) - 1
        groups[n] = [(0, *tail) for tail in itertools.product(range(full + 1), repeat=full)]
    for n, count, seed in ((3, 20_000, 3), (4, 2_000, 4)):
        rng = random.Random(seed)
        groups[n] = [_perturbed_ranked_row(rng, n) for _ in range(count)]

    violations = {}
    for n, rows in groups.items():
        full = (1 << n) - 1
        counts = [len(rows), 0, 0]
        for r in rows:
            for k, library, oracle in ((1, reciprocity, _reciprocity_all_pairs),
                                       (2, disjunction, _disjunction_all_pairs)):
                cex = library(r, 0, full)
                assert cex == oracle(r, 0, full), (library.__name__, r)
                counts[k] += cex is not None
        violations[n] = tuple(counts)
    # states: (rows, rows violating ◇6w, rows violating ◇7s)
    assert violations == {1: (2, 0, 0), 2: (64, 39, 15),
                          3: (20_000, 6_913, 7_462), 4: (2_000, 973, 931)}


def test_lemma_predicates_read_only_the_row():
    # the lifting-lemma sweeps reuse a verdict for an identical row
    # whatever its belief event, which holds only while these two
    # predicates never read b
    rng = random.Random(6)
    outcomes = set()
    for n, count in ((1, 20), (2, 200), (3, 200), (4, 50)):
        full = (1 << n) - 1
        for i in range(count):
            row = (_perturbed_ranked_row(rng, n) if i % 2 else
                   (0, *(rng.randrange(full + 1) for _ in range(full))))
            for condition in (disjunction, expansion):
                verdicts = {condition(row, b, full) for b in range(full + 1)}
                assert len(verdicts) == 1, (condition.__name__, row)
                outcomes.add((condition.__name__, verdicts.pop() is None))
    assert len(outcomes) == 4  # each predicate both holds and fails here


# -- enumeration and sampling -----------------------------------------------

def test_frame_count_formula():
    assert frame_count(1) == 2
    assert frame_count(2) == 36864
    assert frame_count(3) == 7 ** 3 * 8 ** 21


def test_enumerate_two_states_exhaustive_and_distinct():
    seen = set()
    for fr in enumerate_frames(2):
        seen.add((fr.belief, fr.selection))
    assert len(seen) == 36864


def test_enumerate_refuses_three_states():
    with pytest.raises(ValueError, match="refusing"):
        next(enumerate_frames(3))


def test_enumerate_refusal_counts_only_up_to_the_cap(monkeypatch):
    counted = []

    def spy(n):
        counted.append(n)
        return frame_count(n)

    monkeypatch.setattr(frame_module, "frame_count", spy)
    with pytest.raises(ValueError, match="^refusing to enumerate the frames on 28 states"):
        next(enumerate_frames(28))
    assert counted == []
    with pytest.raises(ValueError, match=r"^refusing to enumerate about 1\.09e\+1888 frames; "
                                         r"use sample_frame$"):
        next(enumerate_frames(7))
    assert counted == [7]
    with pytest.raises(ValueError, match=r"^refusing to enumerate about 8\.94e\+76 frames"):
        next(enumerate_frames(4))
    assert counted == [7, 4]


def test_property_counts_are_nontrivial():
    count = sum(
        1 for fr in enumerate_frames(2)
        if check_property(fr, "P_star_2_diamond_1")[0])
    assert 0 < count < 36864


def test_sample_frame_deterministic():
    a = sample_frame(3, random.Random(42))
    b = sample_frame(3, random.Random(42))
    c = sample_frame(3, random.Random(43))
    assert a == b
    assert a != c
    assert all(m != 0 for m in a.belief)


# -- serialization ----------------------------------------------------------

def test_json_roundtrip():
    rng = random.Random(9)
    frames = [DEMO, WITNESS] + [sample_frame(3, rng) for _ in range(50)]
    for fr in frames:
        doc = frame_to_json(fr)
        assert frame_from_json(doc) == fr


def test_json_shape():
    doc = frame_to_json(DEMO)
    assert doc["states"] == 2
    assert doc["belief"] == [[0], [0, 1]]
    assert {"s": 0, "event": [0, 1], "value": [0]} in doc["selection"]
    assert all(e["event"] == sorted(e["event"]) for e in doc["selection"])


def test_json_missing_selection_entry():
    doc = frame_to_json(DEMO)
    doc["selection"] = doc["selection"][:-1]
    with pytest.raises(FrameFormatError, match="not total"):
        frame_from_json(doc)


def test_json_rejects_malformed():
    doc = frame_to_json(DEMO)
    doc["selection"].append({"s": 0, "event": [0], "value": [1]})
    with pytest.raises(FrameFormatError, match="duplicate"):
        frame_from_json(doc)

    doc = frame_to_json(DEMO)
    doc["selection"][0] = {"s": 0, "event": [], "value": []}
    with pytest.raises(FrameFormatError, match="empty event"):
        frame_from_json(doc)

    doc = frame_to_json(DEMO)
    doc["belief"][0] = []
    with pytest.raises(FrameFormatError):
        frame_from_json(doc)

    doc = frame_to_json(DEMO)
    doc["belief"][0] = [0, 0]
    with pytest.raises(FrameFormatError, match="duplicate"):
        frame_from_json(doc)

    doc = frame_to_json(DEMO)
    doc["belief"][0] = [2]
    with pytest.raises(FrameFormatError, match="out of range"):
        frame_from_json(doc)

    with pytest.raises(FrameFormatError):
        frame_from_json([1, 2, 3])
    with pytest.raises(FrameFormatError):
        frame_from_json({"states": 2})


def test_json_incomplete_large_document_fails_fast():
    doc = {"states": 40, "belief": [[0]] * 40, "selection": []}
    with pytest.raises(FrameFormatError, match=r"not total: no entry for s=0, event=\[0\]"):
        frame_from_json(doc)


def _one_state_doc():
    return {"states": 1, "belief": [[0]],
            "selection": [{"s": 0, "event": [0], "value": [0]}]}


def _one_atom_family_doc():
    return frame_to_json(generate_family(world_space(1), 0, "none"))


def _set(doc, path, value):
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("make,load,error,path,value", [
    (_one_state_doc, frame_from_json, FrameFormatError, ("states",), True),
    (_one_state_doc, frame_from_json, FrameFormatError, ("selection", 0, "s"), False),
    (_one_state_doc, frame_from_json, FrameFormatError, ("belief", 0, 0), False),
    (_one_state_doc, frame_from_json, FrameFormatError, ("selection", 0, "event", 0), False),
    (_one_atom_family_doc, family_from_json, FrameFormatError, ("states",), True),
    (_one_atom_family_doc, family_from_json, FrameFormatError, ("selection", 0, "s"), False),
    (_one_atom_family_doc, family_from_json, FrameFormatError,
     ("selection", 0, "event", 0), False),
])
def test_json_rejects_booleans_as_integers(make, load, error, path, value):
    doc = make()
    load(doc)  # the document is valid before the integer becomes a boolean
    with pytest.raises(error):
        load(_set(doc, path, value))


def _one_state_model_doc():
    return dict(_one_state_doc(), valuation={"p": [0]})


@pytest.mark.parametrize("make,load,path", [
    (_one_state_doc, frame_from_json, ("belief", 0)),
    (_one_state_doc, frame_from_json, ("selection", 0, "event")),
    (_one_state_doc, frame_from_json, ("selection", 0, "value")),
    (_one_state_model_doc, model_from_json, ("belief", 0)),
    (_one_state_model_doc, model_from_json, ("valuation", "p")),
    (_one_atom_family_doc, family_from_json, ("selection", 0, "event")),
    (_one_atom_family_doc, family_from_json, ("selection", 0, "value")),
])
@pytest.mark.parametrize("value", [0, 1, {"0": 0}])
def test_json_rejects_non_list_index_fields(make, load, path, value):
    doc = make()
    load(doc)  # the document is valid before the index list is replaced
    with pytest.raises(FrameFormatError, match="expected a list of state indices"):
        load(_set(doc, path, value))
