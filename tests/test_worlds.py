import random
from functools import partial
from itertools import chain, combinations

import pytest

from artifact import cli, worlds
from artifact.frame import (Frame, FrameFormatError, check_property, disjunction,
                            expansion, frame_from_json, frame_to_json)
from artifact.worlds import (
    WorldSpace,
    audit_k9,
    check_lemma_k7s,
    check_lemma_k9s,
    enumerate_families,
    family_from_json,
    generate_family,
    lift_update,
    update_family,
    world_space,
)

SP1 = world_space(1)
SP2 = world_space(2)
IDENTITY_BELIEFS = {2: (0b01, 0b10), 4: (0b0001, 0b0010, 0b0100, 0b1000)}


def ranking_family(space, rankings):
    rows = []
    for rk in rankings:
        row = []
        for e in range(1, space.full + 1):
            row.append(1 << next(w for w in rk if e >> w & 1))
        rows.append(tuple(row))
    return update_family(space, tuple(rows))


# The per-world bounds hold for this family, yet lifting breaks the
# conditional-expansion bound: worlds 1 and 3 rank the shared refinement
# differently, so the union picks up a world outside lift(K,E)&F.
LIFT_GAP = ranking_family(
    SP2, ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 2, 3), (3, 1, 2, 0)))


# --- independent set-based oracle -----------------------------------------

def _events(w_count):
    return [frozenset(c) for r in range(1, w_count + 1)
            for c in combinations(range(w_count), r)]


def _as_sets(fam):
    w_count, full = fam.n, fam.full
    unpack = lambda m: frozenset(i for i in range(w_count) if m >> i & 1)
    return {(w, unpack(e)): unpack(fam.selection[w][e - 1])
            for w in range(w_count) for e in range(1, full + 1)}


def oracle_reports(fam):
    w_count = fam.n
    tbl = _as_sets(fam)
    evs = _events(w_count)
    k7_hyp = all(tbl[w, e | f] <= tbl[w, e] | tbl[w, f]
                 for w in range(w_count) for e in evs for f in evs)
    k9_hyp = all(tbl[w, e & f] <= tbl[w, e] & f
                 for w in range(w_count) for e in evs for f in evs
                 if e & f and tbl[w, e] & f)
    lift = lambda k, e: frozenset(chain.from_iterable(tbl[w, e] for w in k))
    k7_concl = k7_hyp and all(
        lift(k, e | f) <= lift(k, e) | lift(k, f)
        for k in evs for e in evs for f in evs)
    k9_concl = k9_hyp and all(
        lift(k, e & f) <= lift(k, e) & f
        for k in evs for e in evs for f in evs
        if e & f and lift(k, e) & f)
    return (k7_hyp, k7_concl if k7_hyp else None), (k9_hyp, k9_concl if k9_hyp else None)


def violates_lifted_k9s(fam, triple):
    belief, e, f = triple
    bound = lift_update(fam, belief, e) & f
    return e & f != 0 and bound != 0 and lift_update(fam, belief, e & f) & ~bound != 0


# --- space and lift basics -------------------------------------------------

def test_world_space_shape():
    assert SP2.world_count == 4 and SP2.full == 0b1111
    with pytest.raises(ValueError, match="1 to 4 atoms"):
        world_space(5)
    with pytest.raises(ValueError, match="1 to 4 atoms"):
        WorldSpace(0)


def test_lift_examples():
    fam = generate_family(SP2, 9, "none")
    for e in range(1, 16):
        for w in range(4):
            assert lift_update(fam, 1 << w, e) == fam.update(w, e)

    identity = update_family(
        SP2, tuple(tuple(range(1, 16)) for _ in range(4)))
    for k in range(1, 16):
        for e in range(1, 16):
            assert lift_update(identity, k, e) == e

    rows = [[0] * 15 for _ in range(4)]
    rows[0][0b0110 - 1] = 0b0001
    rows[3][0b0110 - 1] = 0b1000
    two = update_family(SP2, tuple(tuple(r) for r in rows))
    assert lift_update(two, 0b1001, 0b0110) == 0b1001


def test_lift_and_update_errors():
    fam = generate_family(SP2, 0, "none")
    with pytest.raises(ValueError, match="empty belief-set event"):
        lift_update(fam, 0, 1)
    with pytest.raises(ValueError, match="empty event"):
        lift_update(fam, 1, 0)
    with pytest.raises(ValueError, match="out of range"):
        lift_update(fam, 0b10000, 1)
    with pytest.raises(ValueError, match="empty event"):
        fam.update(0, 0)
    with pytest.raises(ValueError, match="out of range"):
        fam.update(4, 1)


def test_lift_is_union_monotone():
    rng = random.Random(2)
    for seed in range(30):
        fam = generate_family(SP2, seed, "none")
        for _ in range(40):
            k1 = rng.randrange(1, 16)
            k2 = rng.randrange(1, 16)
            e = rng.randrange(1, 16)
            assert (lift_update(fam, k1 | k2, e)
                    == lift_update(fam, k1, e) | lift_update(fam, k2, e))


def theory_of(space: WorldSpace, belief: int) -> frozenset[int]:
    """All event-propositions entailed by a belief event."""
    return frozenset(p for p in range(space.full + 1) if belief & ~p == 0)


def test_theory_encoding_duality():
    # Intersecting theories unions events; expanding by a proposition
    # intersects events: the closure of Th(K) plus F is Th(K & F).
    for space in (SP1, SP2):
        events = range(space.full + 1)
        for a in events:
            for b in events:
                assert theory_of(space, a | b) == theory_of(space, a) & theory_of(space, b)
        for k in events:
            for f in events:
                generators = set(theory_of(space, k)) | {f}
                meet = space.full
                for p in generators:
                    meet &= p
                closure = frozenset(p for p in events if meet & ~p == 0)
                assert closure == theory_of(space, k & f)
        # bigger theory, smaller event
        assert theory_of(space, space.full) <= theory_of(space, 1)


def test_family_validation_errors():
    with pytest.raises(ValueError, match="cover every state"):
        update_family(SP2, ((0,) * 15,) * 3)
    with pytest.raises(ValueError, match="cover every non-empty event"):
        update_family(SP2, ((0,) * 14,) * 4)
    with pytest.raises(ValueError, match="out of range"):
        update_family(SP2, ((0b10000,) + (0,) * 14,) + ((0,) * 15,) * 3)


# --- audits against the oracle ---------------------------------------------

def test_checkers_match_set_oracle_exhaustively_at_one_atom():
    counts = {"k7_hyp": 0, "k7_hold": 0, "k9_hyp": 0, "k9_viol": 0,
              "k9_success": 0, "k9_success_viol": 0}
    total = 0
    for fam in enumerate_families(SP1):
        total += 1
        (o7h, o7c), (o9h, o9c) = oracle_reports(fam)
        r7, r9 = check_lemma_k7s(fam), check_lemma_k9s(fam)
        assert (r7.hypothesis_ok, r7.holds) == (o7h, o7c)
        assert (r9.hypothesis_ok, r9.holds) == (o9h, o9c)
        counts["k7_hyp"] += o7h
        counts["k7_hold"] += bool(o7c)
        counts["k9_hyp"] += o9h
        counts["k9_viol"] += o9c is False
        success = all(fam.selection[w][e - 1] & ~e == 0 for w in range(2) for e in (1, 2, 3))
        counts["k9_success"] += o9h and success
        counts["k9_success_viol"] += success and o9c is False
    assert total == 4096
    # the union bound always lifts; the conditional-expansion bound does not
    assert counts["k7_hyp"] == counts["k7_hold"] == 2401
    assert counts["k9_hyp"] == 625
    assert counts["k9_viol"] == 264
    # every one-atom violator breaks success (u(w,E) inside E); the 256
    # success-respecting hypothesis families all lift
    assert counts["k9_success"] == 256
    assert counts["k9_success_viol"] == 0


def _pointwise_first(indices, violates, full):
    """First (i, E, F) in ascending order with violates(i, E, F), or None."""
    return next(((i, e, f) for i in indices
                 for e in range(1, full + 1) for f in range(1, full + 1)
                 if violates(i, e, f)), None)


def _k7_violation(upd):
    return lambda i, e, f: upd(i, e | f) & ~(upd(i, e) | upd(i, f))


def _k9_violation(upd):
    return lambda i, e, f: bool(e & f and upd(i, e) & f
                                and upd(i, e & f) & ~(upd(i, e) & f))


def test_first_counterexamples_match_a_pointwise_scan_at_one_atom():
    full = SP1.full
    worlds, beliefs = range(SP1.world_count), range(1, full + 1)
    for fam in enumerate_families(SP1):
        assert isinstance(fam, Frame) and fam.belief == IDENTITY_BELIEFS[fam.n]
        lift = partial(lift_update, fam)
        assert (check_property(fam, "P_diamond_7s")[1]
                == _pointwise_first(worlds, _k7_violation(fam.update), full))
        assert audit_k9(fam) == _pointwise_first(worlds, _k9_violation(fam.update), full)
        for report, violation in ((check_lemma_k7s(fam), _k7_violation),
                                  (check_lemma_k9s(fam), _k9_violation)):
            if report.hypothesis_ok:
                assert report.counterexample == _pointwise_first(
                    beliefs, violation(lift), full), fam
    for space in (SP1, SP2):
        for constraint in ("none", "k7", "k9"):
            fam = generate_family(space, 5, constraint)
            for made in (fam, family_from_json(frame_to_json(fam))):
                assert isinstance(made, Frame)
                assert made.belief == IDENTITY_BELIEFS[space.world_count]


def test_checkers_match_set_oracle_on_random_two_atom_families():
    for seed in range(25):
        fam = generate_family(SP2, seed, "none")
        (o7h, o7c), (o9h, o9c) = oracle_reports(fam)
        r7, r9 = check_lemma_k7s(fam), check_lemma_k9s(fam)
        assert (r7.hypothesis_ok, r7.holds) == (o7h, o7c)
        assert (r9.hypothesis_ok, r9.holds) == (o9h, o9c)


def test_hypothesis_violations_reported_separately():
    rows = [[0] * 15 for _ in range(4)]
    rows[0][0b0011 - 1] = 0b1000  # u(0, {0,1}) = {3}
    bad7 = update_family(SP2, tuple(tuple(r) for r in rows))
    r7 = check_lemma_k7s(bad7)
    assert not r7.hypothesis_ok and r7.holds is None and r7.counterexample is None
    w, e, f = r7.hypothesis_counterexample
    assert bad7.update(w, e | f) & ~(bad7.update(w, e) | bad7.update(w, f))

    rows = [[0] * 15 for _ in range(4)]
    rows[0][0b0011 - 1] = 0b0001  # u(0, {0,1}) = {0}
    rows[0][0b0001 - 1] = 0b0010  # u(0, {0}) = {1}, escapes u(0,E) & F
    bad9 = update_family(SP2, tuple(tuple(r) for r in rows))
    r9 = check_lemma_k9s(bad9)
    assert not r9.hypothesis_ok and r9.holds is None
    w, e, f = r9.hypothesis_counterexample
    bound = bad9.update(w, e) & f
    assert e & f and bound and bad9.update(w, e & f) & ~bound


# --- generators and the lemma sweeps ---------------------------------------

def test_k7_generator_families_satisfy_the_lifted_bound():
    for space, seeds in ((SP1, range(50)), (SP2, range(300))):
        for seed in seeds:
            fam = generate_family(space, seed, "k7")
            assert check_property(fam, "P_diamond_7s") == (True, None)
            report = check_lemma_k7s(fam)
            assert report.hypothesis_ok and report.holds, (space, seed, report)


def test_k9_generator_families_pass_the_per_world_audit():
    for space, seeds in ((SP1, range(50)), (SP2, range(200))):
        for seed in seeds:
            fam = generate_family(space, seed, "k9")
            assert audit_k9(fam) is None
            # ranked choice keeps results inside the input event
            for w in range(space.world_count):
                for e in range(1, space.full + 1):
                    value = fam.update(w, e)
                    assert value and value & ~e == 0 and value & (value - 1) == 0


def test_lifting_breaks_the_conditional_expansion_bound():
    assert audit_k9(LIFT_GAP) is None
    report = check_lemma_k9s(LIFT_GAP)
    assert report.hypothesis_ok and report.violated
    assert violates_lifted_k9s(LIFT_GAP, report.counterexample)
    assert violates_lifted_k9s(LIFT_GAP, (0b1010, 0b1110, 0b1100))


def _km_faithful_family(seed):
    """Each world comes first in its own ranking, the rest shuffled."""
    rng = random.Random(seed)
    rankings = []
    for w in range(4):
        rest = [x for x in range(4) if x != w]
        rng.shuffle(rest)
        rankings.append((w, *rest))
    return ranking_family(SP2, rankings)


def test_km_faithful_rankings_never_meet_the_lifted_expansion_bound():
    """KM's faithful case: every family passes the per-world audit, and
    every one violates lifted conditional expansion at some K."""
    for seed in range(1_000):
        fam = _km_faithful_family(seed)
        assert audit_k9(fam) is None, seed
        assert check_lemma_k9s(fam).violated, seed
    report = check_lemma_k9s(_km_faithful_family(0))
    assert report.counterexample == (3, 7, 5)
    assert violates_lifted_k9s(_km_faithful_family(0), (3, 7, 5))


def test_one_shared_ranking_meets_the_lifted_expansion_bound():
    """With one ranking for every world, update behaves like revision
    and the lifted bound holds."""
    for seed in range(200):
        ranking = random.Random(seed).sample(range(4), 4)
        report = check_lemma_k9s(ranking_family(SP2, [ranking] * 4))
        assert report.hypothesis_ok and report.holds, seed


def test_singleton_belief_reduces_lift_to_per_world_bound():
    for seed in range(40):
        fam = generate_family(SP2, seed, "k9")
        for w in range(4):
            for e in range(1, 16):
                for f in range(1, 16):
                    if e & f == 0:
                        continue
                    bound = lift_update(fam, 1 << w, e) & f
                    if bound:
                        assert lift_update(fam, 1 << w, e & f) & ~bound == 0


def test_generator_determinism_and_unknown_constraint():
    for constraint in ("none", "k7", "k9"):
        assert (generate_family(SP2, 77, constraint)
                == generate_family(SP2, 77, constraint))
    assert generate_family(SP2, 1, "none") != generate_family(SP2, 2, "none")
    with pytest.raises(ValueError, match="unknown constraint"):
        generate_family(SP2, 0, "k8")


def test_enumerate_families_scope():
    assert sum(1 for _ in enumerate_families(SP1)) == 4096
    with pytest.raises(ValueError, match="refusing"):
        next(enumerate_families(SP2))


# --- serialization ----------------------------------------------------------

def test_family_json_round_trip():
    for space, constraint in ((SP1, "none"), (SP2, "k9"), (SP2, "none")):
        fam = generate_family(space, 13, constraint)
        data = frame_to_json(fam)
        assert data["states"] == space.world_count
        assert data["belief"] == [[w] for w in range(space.world_count)]
        assert len(data["selection"]) == space.world_count * space.full
        assert family_from_json(data) == fam


def _family_doc(**changes):
    return {**frame_to_json(generate_family(SP1, 0, "none")), **changes}


def test_family_json_rejects_malformed_documents():
    good = _family_doc()
    entries = good["selection"]

    with pytest.raises(FrameFormatError, match="must be an object"):
        family_from_json([])
    with pytest.raises(FrameFormatError, match="not total"):
        family_from_json(_family_doc(selection=entries[:-1]))
    with pytest.raises(FrameFormatError, match="duplicate"):
        family_from_json(_family_doc(selection=entries + [entries[0]]))
    with pytest.raises(FrameFormatError, match="empty event"):
        family_from_json(_family_doc(
            selection=entries + [{"s": 0, "event": [], "value": []}]))
    with pytest.raises(FrameFormatError, match="malformed selection entry"):
        family_from_json(_family_doc(selection=[{"s": 0}]))
    with pytest.raises(FrameFormatError, match="out of range"):
        bad = [dict(e) for e in entries]
        bad[0]["s"] = 9
        family_from_json(_family_doc(selection=bad))


def _frame_doc(n, belief):
    return frame_to_json(Frame(n, belief, ((0,) * ((1 << n) - 1),) * n))


@pytest.mark.parametrize("doc", [
    _frame_doc(1, (1,)),  # one state: no atom
    _frame_doc(3, (1, 2, 4)),  # not a power of two
    _frame_doc(2, (1, 3)),  # world 1 believes both worlds
    _frame_doc(2, (2, 1)),  # each world believes the other
    _frame_doc(4, (1, 2, 4, 4)),  # world 3 believes world 2
], ids=["one-state", "three-state", "shared-belief", "swapped-belief", "repeated-belief"])
def test_family_json_refuses_frames_that_are_not_families(doc):
    frame_from_json(doc)  # a valid frame document, but not a family
    with pytest.raises(FrameFormatError, match=r"2\*\*k states, k from 1 to 4, "
                                               "each believing only itself"):
        family_from_json(doc)


# --- the sweep's verdict memo -------------------------------------------------

def _fresh_checkers(monkeypatch):
    """Make ``run_worlds_report`` call each checker with the family alone."""
    for key, checker in list(cli._LEMMA_CHECKERS.items()):
        monkeypatch.setitem(cli._LEMMA_CHECKERS, key,
                            lambda fam, memo, checker=checker: checker(fam))


POPULATIONS = [(1, "exhaustive", 0, "none"), (2, "sampled", 1_000, "k7"),
               (2, "sampled", 1_000, "k9")]


@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_sweeps_report_what_fresh_checks_report(monkeypatch, seed):
    memoized = [cli.run_worlds_report(atoms, mode, count, seed, constraint)
                for atoms, mode, count, constraint in POPULATIONS]
    _fresh_checkers(monkeypatch)
    fresh = [cli.run_worlds_report(atoms, mode, count, seed, constraint)
             for atoms, mode, count, constraint in POPULATIONS]
    assert memoized == fresh
    assert any(row["first_violation"] is not None
               for report in fresh for row in report["lemmas"].values())


def _rows_met(fam, condition):
    """The rows a sweep checks on one family, in order: world rows up to
    the first violating one; if none violates, lifted rows up to the
    first violating one."""
    events = range(1, fam.full + 1)
    met = []
    for rows in (fam.rows, [(0, *(fam.lift(k, e) for e in events)) for k in events]):
        for row in rows:
            met.append(row)
            if condition(row, 0, fam.full) is not None:
                return met
    return met


def test_a_sweep_runs_each_predicate_once_per_distinct_row(monkeypatch):
    calls = {}
    for condition in (disjunction, expansion):
        def spy(row, belief, full, condition=condition):
            calls[condition].append(row)
            return condition(row, belief, full)
        monkeypatch.setattr(worlds, condition.__name__, spy)
    for constraint in ("none", "k7", "k9"):
        calls.update({disjunction: [], expansion: []})
        cli.run_worlds_report(2, "sampled", 300, 0, constraint)
        families = [generate_family(SP2, i, constraint) for i in range(300)]
        for condition, rows in calls.items():
            met = set().union(*(_rows_met(fam, condition) for fam in families))
            assert len(met) * (SP2.full + 1) <= worlds._MEMO_CELLS
            assert len(rows) == len(met) and set(rows) == met, condition


def test_a_three_atom_sweep_stores_at_most_the_cap(monkeypatch):
    memos = []
    for key, checker in list(cli._LEMMA_CHECKERS.items()):
        def spy(fam, memo, checker=checker):
            memos.append(memo)
            return checker(fam, memo)
        monkeypatch.setitem(cli._LEMMA_CHECKERS, key, spy)
    # random three-atom families fail their first world row fast, so
    # each family adds one new 256-cell row to each lemma's memo
    count = worlds._MEMO_CELLS // 256 + 40
    memoized = cli.run_worlds_report(3, "sampled", count, 0, "none")
    stored = {id(memo): memo for memo in memos}.values()
    assert len(stored) == 2
    for memo in stored:
        assert sum(map(len, memo)) == worlds._MEMO_CELLS  # full, never past it
    monkeypatch.undo()
    _fresh_checkers(monkeypatch)
    assert memoized == cli.run_worlds_report(3, "sampled", count, 0, "none")
