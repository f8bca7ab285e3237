"""Acceptance battery: the headline claims of the package, pinned exactly.

Every quantity here is discrete, so assertions are equalities with no
tolerances. The battery mirrors the ``suite`` CLI subcommand: the two
correspondence sweeps, the event/formula bridge, the proof suite with
its deletion-mutation sweep, the strictness witness, the two lifting
lemmas, and the foundations checks.

The lifted conditional-expansion bound is a pinned finding, not a
passing lemma. KM's strong postulate is stated for complete belief
sets, and test_conjunction_lifting_lemma pins both sides of that line:
on every hypothesis-satisfying family the bound holds at every
single-world (complete) belief event, and it fails at multi-world
belief events in exactly 264 of 625 one-atom and 992 of 1,000 seeded
two-atom families. Both counts are recounted through lift_update alone.
"""

import time

import pytest

from artifact.cli import (
    criterion_formula_bridge,
    criterion_foundations,
    criterion_worlds_lemmas,
    run_worlds_report,
)
from artifact.frame import bits, frame_from_json, indices_from_mask
from artifact.proofkit import (
    builtin_registry,
    builtin_scripts,
    check_script,
    delete_line,
    verify_containment,
)
from artifact.schema import run_correspondence_suite, schema_valid_on_frame
from artifact.worlds import (
    audit_k9,
    check_lemma_k9s,
    enumerate_families,
    family_from_json,
    generate_family,
    lift_update,
    world_space,
)

SEED = 0

HEADLINE_LENGTHS = {
    "A_diamond_2": 19,
    "A_diamond_6w": 25,
    "A_diamond_7s": 19,
    "A_star_3": 11,
}


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Timed exhaustive two-state correspondence report, shared with the
    strictness-witness test so the sweep runs once."""
    start = time.perf_counter()
    report = run_correspondence_suite(2, "exhaustive")
    return report, time.perf_counter() - start


def test_two_state_correspondence_exhaustive(exhaustive_sweep):
    report, elapsed = exhaustive_sweep
    assert report["frames"] == 36_864
    assert len(report["pairs"]) == 8
    for axiom, row in report["pairs"].items():
        assert row["disagreements"] == [], axiom
    assert report["disagreement_count"] == 0
    assert elapsed < 60.0


def test_three_state_correspondence_sampled():
    start = time.perf_counter()
    report = run_correspondence_suite(3, "sampled", count=10_000, seed=SEED)
    elapsed = time.perf_counter() - start
    assert report["frames"] == 10_000
    assert len(report["pairs"]) == 8
    assert report["disagreement_count"] == 0
    assert elapsed < 120.0


def test_postulate_checks_agree_with_formula_translations():
    """Event-level postulate checks against the compiled characteristic
    formulas: every two-state frame, both separating one-atom
    valuations, all nine postulates, both states."""
    report = criterion_formula_bridge()
    assert report["checked"] == 36_864 * 9 * 2 * 2
    assert report["spot_checks"] == 324
    assert report["disagreements"] == []
    assert report["ok"] is True


def test_builtin_proofs_validate_with_expected_sizes():
    registry = builtin_registry()
    scripts = builtin_scripts()
    assert len(scripts) >= 11
    for script in scripts:
        verdict = registry.check(script.id)
        assert verdict.ok, (script.id, verdict.reason)
    for sid, want in HEADLINE_LENGTHS.items():
        assert len(registry.script(sid).lines) == want, sid


def test_containment_report_covers_all_nine():
    report = verify_containment()
    assert report["covered"] == 9
    assert report["ok"] is True
    routes = {sid: item["route"] for sid, item in report["items"].items()}
    derived = sorted(sid for sid, route in routes.items() if route == "derived")
    assert derived == ["A_diamond_2", "A_diamond_6w", "A_diamond_7s"]
    assert sum(1 for route in routes.values() if route == "shared") == 6
    for sid, item in report["items"].items():
        assert item["ok"], (sid, item)
    for sid in derived:
        assert report["items"][sid]["lines"] == HEADLINE_LENGTHS[sid]


def test_deletion_mutants_all_rejected():
    """Deleting any single line from any builtin script must break it.

    Deletion leaves the remaining indices untouched, so a surviving
    mutant would mean some line is never load-bearing: neither cited by
    a later step nor the target itself.
    """
    registry = builtin_registry()
    survivors = []
    mutants = 0
    for script in builtin_scripts():
        for k in range(1, len(script.lines) + 1):
            mutants += 1
            if check_script(delete_line(script, k), registry).ok:
                survivors.append((script.id, k))
    assert mutants == 139
    assert survivors == []


def test_update_strictness_witness(exhaustive_sweep):
    """The exhaustive sweep must surface a frame where the update
    axiom holds but the revision-only inclusion axiom fails, and the
    witness must re-verify on independent validity checks."""
    report, _ = exhaustive_sweep
    witness = report["strictness_witness"]
    assert witness is not None
    fr = frame_from_json(witness)
    assert schema_valid_on_frame(fr, "A_diamond_2")[0] is True
    assert schema_valid_on_frame(fr, "A_star_4")[0] is False


def test_union_lifting_lemma_holds():
    one_atom = run_worlds_report(1, "exhaustive", 0, SEED, "none", "k7s")
    row = one_atom["lemmas"]["K_diamond_7s_lifted"]
    assert one_atom["families"] == 4096
    assert row["hypothesis_families"] == 2401
    assert row["violations"] == 0

    sampled = run_worlds_report(2, "sampled", 1_000, SEED, "k7", "k7s")
    row = sampled["lemmas"]["K_diamond_7s_lifted"]
    assert row["hypothesis_families"] == 1_000
    assert row["violations"] == 0


def _lifted_row(fam, belief):
    """lift(K, E) for every event E, computed through lift_update alone."""
    return [0] + [lift_update(fam, belief, e) for e in range(1, fam.full + 1)]


def _escapes(row, event, refinement):
    """Whether (K, E, F) violates the lifted bound, given K's lifted row:
    lift(K,E)&F is non-empty but lift(K, E&F) is not inside it."""
    bound = row[event] & refinement
    return (event & refinement != 0 and bound != 0
            and row[event & refinement] & ~bound != 0)


def _first_escape(fam, beliefs):
    full = fam.full
    for belief in beliefs:
        row = _lifted_row(fam, belief)
        for e in range(1, full + 1):
            for f in range(1, full + 1):
                if _escapes(row, e, f):
                    return (belief, e, f)
    return None


def _show(mask):
    return "{" + ",".join(map(str, indices_from_mask(mask))) + "}"


def _describe(label, row, recount, pinned, first):
    """Counts plus the first recounted counterexample, with the table
    rows of its belief's worlds only."""
    lines = [f"{label}: {row['violations']} reported, {recount} recounted, "
             f"{pinned} pinned, among {row['hypothesis_families']} "
             f"hypothesis-satisfying families"]
    if first is not None:
        fam, (belief, event, refinement) = first
        lines.append(f"  first: K={_show(belief)} E={_show(event)} "
                     f"F={_show(refinement)}")
        for w in bits(belief):
            lines.append(f"  u({w},.): " + " ".join(
                f"{_show(e)}->{_show(fam.update(w, e))}"
                for e in range(1, fam.full + 1)))
    return "\n".join(lines)


def test_conjunction_lifting_lemma():
    """Lifted conditional-expansion bound, swept the same way as the
    union bound, and pinned as a finding. KM's strong postulate is
    stated for complete belief sets: on every hypothesis-satisfying
    family the lifted bound holds at every single-world belief event.
    At multi-world belief events it fails, in exactly 264 of 625
    one-atom and 992 of 1,000 seeded two-atom families. Both counts are
    recounted through lift_update: each reported counterexample is
    re-verified and each clean family is searched in full."""
    one_atom = run_worlds_report(1, "exhaustive", 0, SEED, "none", "k9s")
    sampled = run_worlds_report(2, "sampled", 1_000, SEED, "k9", "k9s")
    sp1, sp2 = world_space(1), world_space(2)
    populations = {
        "one_atom_exhaustive": (one_atom, enumerate_families(sp1), 625, 264),
        "two_atom_sampled": (
            sampled,
            (generate_family(sp2, SEED + i, "k9") for i in range(1_000)),
            1_000, 992),
    }
    for label, (report, families, hypothesis, pinned) in populations.items():
        row = report["lemmas"]["K_diamond_9s_lifted"]
        assert row["hypothesis_families"] == hypothesis, label
        seen = recount = 0
        first = None
        for index, fam in enumerate(families):
            if audit_k9(fam) is not None:
                continue
            seen += 1
            singles = [1 << w for w in range(fam.n)]
            escape = _first_escape(fam, singles)
            assert escape is None, (label, index, "single-world belief", escape)
            verdict = check_lemma_k9s(fam)
            if verdict.violated:
                belief, event, refinement = verdict.counterexample
                assert _escapes(_lifted_row(fam, belief), event, refinement), \
                    (label, index, "reported triple does not escape",
                     verdict.counterexample)
                recount += 1
                if first is None:
                    first = (fam, verdict.counterexample)
            else:
                escape = _first_escape(fam, range(1, fam.full + 1))
                assert escape is None, (label, index, "unreported violation", escape)
        assert seen == hypothesis, label

        detail = _describe(label, row, recount, pinned, first)
        assert row["violations"] == recount == pinned, detail

        reported = row["first_violation"]
        fam = family_from_json(reported["family"])
        triple = (reported["belief"], reported["event"], reported["refinement"])
        assert (fam, triple) == first, detail
        assert audit_k9(fam) is None, detail
        assert _escapes(_lifted_row(fam, triple[0]), *triple[1:]), detail
        assert len(list(bits(triple[0]))) >= 2, detail


def test_worlds_lemmas_criterion_counts_only_the_union_bound():
    """Suite criterion 6 passes on the union bound and carries the
    lifted conditional-expansion rows as the pinned finding."""
    report = criterion_worlds_lemmas(SEED)
    assert report["ok"] is True and report["violations"] == 0
    finding = [
        report[part]["lemmas"]["K_diamond_9s_lifted"]
        for part in ("one_atom_exhaustive", "two_atom_conjunction_families")]
    assert [(row["violations"], row["hypothesis_families"]) for row in finding] \
        == [(264, 625), (992, 1_000)]


def test_formula_foundations():
    report = criterion_foundations(SEED)
    assert report["round_trip_failures"] == 0
    assert report["tautology_oracle_disagreements"] == 0
    assert report["empty_update_allowed"] == 0
    assert report["update_outside_universe"] == 0
    assert report["belief_consistency_failures"] == 0
    assert report["ok"] is True
