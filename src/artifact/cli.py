"""Command line entry point.

One executable, ten subcommands: pointwise formula evaluation
(``eval``, ``truth-set``), frame property checks and enumeration
(``frame-check``, ``frame-enum``), update-postulate checks
(``check-km``), the correspondence sweeps (``correspond``), the
syntactic-lifting lemma checks (``worlds-check``), proof validation
(``prove-check``, ``verify-containment``), and the full acceptance
battery (``suite``).

Exit codes: 0 when the checked claim holds, 1 when it fails (with a
witness in the report), 2 for usage or input errors. All randomness
flows from ``--seed``, so reports are reproducible; ``--format json``
emits machine-readable reports and ``--out`` redirects them to a file.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .formula import (
    Atom,
    And,
    Believes,
    Box,
    Cond,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    is_tautology,
    opaque_atoms,
    parse,
    print_formula,
)
from .frame import (
    PROPERTY_IDS,
    check_property,
    enumerate_frames,
    frame_count,
    frame_from_json,
    frame_to_json,
    indices_from_mask,
)
from .model import (
    KM_AXIOM_IDS,
    check_km_axiom,
    check_km_axiom_via_formulas,
    compile_conjunctions,
    holds_at,
    km_formula_instances,
    make_model,
    model_from_json,
    truth_set,
)
from .proofkit import (
    builtin_registry,
    builtin_scripts,
    check_script,
    delete_line,
    parse_proof_script,
    verify_containment,
)
from .schema import LOGICS, run_correspondence_suite, schema_valid_on_frame
from .worlds import (
    check_lemma_k7s,
    check_lemma_k9s,
    enumerate_families,
    generate_family,
    world_space,
)

_USAGE_ERRORS = (OSError, json.JSONDecodeError, ParseError, ValueError)

# Work budgets: runs past these sizes cannot finish, so they are refused
# before any of the work starts.
_BRIDGE_MAX_STATES = 5  # formula instances grow about 8.5x per state
_CHECK_MAX_STATES = 12  # frame-check and check-km: pair scans grow about 4.5x per state
_CORRESPOND_MAX_STATES = 7  # three-metavariable checkers bind (2^n)^3 events
_WORLDS_MAX_ATOMS = 3  # lemma steps grow with the cube of 2^(2^atoms) - 1
# Input files: a 12-state frame document written with indent=2 is 10.3 MB,
# so every document the state budget admits is read whole.
_MAX_INPUT_BYTES = 32 << 20


def _at_least_one(text: str) -> int:
    """A --states or --sample value: no frame has fewer than one state,
    and a sample of none checks nothing."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"refusing {value}: at least 1 is needed")
    return value


def _read_input(path: str) -> str:
    """The text of an input file, refused once it runs past
    ``_MAX_INPUT_BYTES``: at most one byte over the limit is ever read."""
    with open(path, "rb") as handle:
        data = handle.read(_MAX_INPUT_BYTES + 1)
    if len(data) > _MAX_INPUT_BYTES:
        raise ValueError(f"refusing {path}: larger than the input limit of "
                         f"{_MAX_INPUT_BYTES:,} bytes ({_MAX_INPUT_BYTES >> 20} MiB)")
    return data.decode()


def _load_json(path: str) -> dict:
    text = _read_input(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _checkable(doc, what: str):
    """The frame or model document, unless checking it cannot finish.
    Read before parsing, so a document too large to check is never
    built; a ``states`` value that is not an int is left to the parser."""
    n = doc.get("states") if isinstance(doc, dict) else None
    if type(n) is int and n > _CHECK_MAX_STATES:
        raise ValueError(
            f"refusing {what} with {n} states: the checks scan pairs of "
            f"events, about 4.5x more work per state; at most "
            f"{_CHECK_MAX_STATES} states")
    return doc


def _emit(args, doc: dict, text: str) -> None:
    rendered = json.dumps(doc, indent=2, sort_keys=True) if args.format == "json" else text
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    else:
        print(rendered)


# ---------------------------------------------------------------------------
# plain subcommands

def _cmd_eval(args) -> int:
    m = model_from_json(_load_json(args.model))
    f = parse(args.formula)
    if not 0 <= args.state < m.frame.n:
        raise ValueError(f"state {args.state} out of range for {m.frame.n} states")
    holds = holds_at(m, args.state, f)
    doc = {"holds": holds, "state": args.state, "formula": print_formula(f)}
    _emit(args, doc, "true" if holds else "false")
    return 0 if holds else 1


def _cmd_truth_set(args) -> int:
    m = model_from_json(_load_json(args.model))
    f = parse(args.formula)
    mask = truth_set(m, f)
    doc = {"formula": print_formula(f), "mask": mask,
           "states": indices_from_mask(mask)}
    _emit(args, doc, f"states {doc['states']} (mask {bin(mask)})")
    return 0


def _render_witness(witness) -> dict | None:
    if witness is None:
        return None
    keys = ("s", "E", "F")
    return dict(zip(keys, witness))


def _cmd_frame_check(args) -> int:
    fr = frame_from_json(_checkable(_load_json(args.frame), "a frame"))
    props = PROPERTY_IDS if args.property == "all" else (args.property,)
    rows = {}
    for prop in props:
        holds, witness = check_property(fr, prop)
        rows[prop] = {"holds": holds, "witness": _render_witness(witness)}
    doc = {"frame": frame_to_json(fr), "properties": rows}
    lines = []
    for prop, row in rows.items():
        if row["holds"]:
            lines.append(f"{prop}: holds")
        else:
            lines.append(f"{prop}: fails at {row['witness']}")
    _emit(args, doc, "\n".join(lines))
    return 0 if all(row["holds"] for row in rows.values()) else 1


def _cmd_frame_enum(args) -> int:
    if args.count_only:
        total = frame_count(args.states)
        _emit(args, {"states": args.states, "frames": total}, str(total))
        return 0
    lines = [json.dumps(frame_to_json(fr), sort_keys=True)
             for fr in enumerate_frames(args.states)]
    payload = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_check_km(args) -> int:
    m = model_from_json(_checkable(_load_json(args.model), "a model"))
    fr = m.frame
    if not 0 <= args.state < fr.n:
        raise ValueError(f"state {args.state} out of range for {fr.n} states")
    if args.bridge and fr.n > _BRIDGE_MAX_STATES:
        raise ValueError(
            f"refusing --bridge on a model with {fr.n} states: its formula "
            f"instances grow about 8.5x per state (113,566 at 5 states); "
            f"at most {_BRIDGE_MAX_STATES} states")
    axioms = KM_AXIOM_IDS if args.axiom == "all" else (args.axiom,)
    instances = (km_formula_instances(fr.n, m.valuation_map())
                 if args.bridge else None)
    rows = {}
    ok = True
    for a in axioms:
        holds, witness = check_km_axiom(fr, args.state, a)
        row = {"holds": holds, "witness": _render_witness(
            None if witness is None else (args.state, *witness))}
        if args.bridge:
            row["formula_level"] = check_km_axiom_via_formulas(
                m, args.state, a, instances)
            row["agrees"] = row["formula_level"] == holds
            ok = ok and row["agrees"]
        ok = ok and holds
        rows[a] = row
    doc = {"state": args.state, "axioms": rows}
    lines = []
    for a, row in rows.items():
        note = "" if row["holds"] else f" at {row['witness']}"
        bridge = "" if "agrees" not in row else (
            ", bridge agrees" if row["agrees"] else ", BRIDGE DISAGREES")
        lines.append(f"{a}: {'holds' if row['holds'] else 'fails'}{note}{bridge}")
    _emit(args, doc, "\n".join(lines))
    return 0 if ok else 1


def _cmd_correspond(args) -> int:
    if args.states > _CORRESPOND_MAX_STATES:
        raise ValueError(
            f"refusing --states {args.states}: each three-metavariable axiom "
            f"checker needs {(1 << args.states) ** 3:,} bindings per frame; "
            f"at most {_CORRESPOND_MAX_STATES} states")
    mode = "sampled" if args.sample is not None else "exhaustive"
    count = args.sample if args.sample is not None else 0
    report = run_correspondence_suite(args.states, mode, count=count, seed=args.seed)
    lines = [f"{report['frames']} frames with {report['states']} states ({mode})"]
    for a, row in report["pairs"].items():
        prop = row["property"] or "(none)"
        lines.append(f"{a} vs {prop}: axiom {row['axiom_count']}, "
                     f"property {row['property_count']}, "
                     f"disagreements {row['disagreement_count']}")
    lines.append(f"total disagreements: {report['disagreement_count']}")
    if report["strictness_witness"] is not None:
        lines.append("strictness witness found (update axiom without revision axiom)")
    _emit(args, report, "\n".join(lines))
    return 0 if report["disagreement_count"] == 0 else 1


_LEMMA_CHECKERS = {
    "K_diamond_7s_lifted": check_lemma_k7s,
    "K_diamond_9s_lifted": check_lemma_k9s,
}


def run_worlds_report(atoms: int, mode: str, count: int, seed: int,
                      constraint: str, lemma: str = "both") -> dict:
    """Check the lifting lemmas over a family population.

    Exhaustive mode covers every one-atom family; sampled mode draws
    seeded families under the given per-world constraint. Violations
    are counted among hypothesis-satisfying families only, since the
    lemmas are conditional claims. Each lemma keeps one verdict memo for
    the sweep, so a row that recurs across families is checked once.
    """
    space = world_space(atoms)
    if mode == "exhaustive":
        families = enumerate_families(space)
    else:
        families = (generate_family(space, seed=seed + i, constraint=constraint)
                    for i in range(count))
    if lemma == "both":
        checkers = _LEMMA_CHECKERS
    elif lemma in ("k7s", "k9s"):
        key = f"K_diamond_{lemma[1:]}_lifted"
        checkers = {key: _LEMMA_CHECKERS[key]}
    else:
        raise ValueError(f"unknown lemma selector {lemma!r}")
    rows = {key: {"hypothesis_families": 0, "violations": 0,
                  "first_violation": None} for key in checkers}
    memos = {key: {} for key in checkers}  # one verdict memo per lemma and sweep
    total = 0
    for fam in families:
        total += 1
        for key, checker in checkers.items():
            report = checker(fam, memos[key])
            if not report.hypothesis_ok:
                continue
            row = rows[key]
            row["hypothesis_families"] += 1
            if report.violated:
                row["violations"] += 1
                if row["first_violation"] is None:
                    belief, event, refinement = report.counterexample
                    row["first_violation"] = {
                        "family": frame_to_json(fam),
                        "belief": belief, "event": event,
                        "refinement": refinement,
                    }
    return {
        "atoms": atoms,
        "mode": mode if mode == "exhaustive" else
                {"sampled": {"count": count, "seed": seed,
                             "constraint": constraint}},
        "families": total,
        "lemmas": rows,
    }


def _cmd_worlds_check(args) -> int:
    if args.atoms > _WORLDS_MAX_ATOMS:
        events = (1 << (1 << args.atoms)) - 1
        raise ValueError(
            f"refusing --atoms {args.atoms}: the lemma checks need about "
            f"{events:,}^3 steps per family; at most {_WORLDS_MAX_ATOMS} atoms")
    mode = "sampled" if args.sample is not None else "exhaustive"
    count = args.sample if args.sample is not None else 0
    report = run_worlds_report(args.atoms, mode, count, args.seed,
                               args.constraint, args.lemma)
    lines = [f"{report['families']} families over {args.atoms} atom(s) ({mode})"]
    violations = 0
    for key, row in report["lemmas"].items():
        violations += row["violations"]
        lines.append(f"{key}: {row['hypothesis_families']} hypothesis-satisfying, "
                     f"{row['violations']} violations")
        if row["first_violation"] is not None:
            first = row["first_violation"]
            lines.append(f"  first violation at belief={bin(first['belief'])} "
                         f"event={bin(first['event'])} "
                         f"refinement={bin(first['refinement'])}")
    _emit(args, report, "\n".join(lines))
    return 0 if violations == 0 else 1


def _cmd_prove_check(args) -> int:
    registry = builtin_registry()
    if args.target.startswith("builtin:"):
        script_id = args.target.split(":", 1)[1]
        script = registry.script(script_id)
        if script is None:
            raise ValueError(f"no builtin script named {script_id!r}")
        if args.logic is not None and args.logic != script.logic:
            raise ValueError(
                f"builtin {script_id} is a {script.logic} derivation, not {args.logic}")
    else:
        text = _read_input(args.target)
        script = parse_proof_script(text, Path(args.target).stem,
                                    args.logic or "L")
    verdict = check_script(script, registry)
    doc = {"id": script.id, "logic": script.logic, "lines": len(script.lines),
           "ok": verdict.ok, "line": verdict.line, "reason": verdict.reason}
    if verdict.ok:
        text_out = f"{script.id}: ok ({len(script.lines)} lines, {script.logic})"
    elif verdict.line is not None:
        text_out = f"{script.id}: line {verdict.line}: {verdict.reason}"
    else:
        text_out = f"{script.id}: {verdict.reason}"
    _emit(args, doc, text_out)
    return 0 if verdict.ok else 1


def _cmd_verify_containment(args) -> int:
    report = verify_containment(frozenset(args.exclude))
    lines = []
    for a, row in report["items"].items():
        route = row["route"]
        if route == "derived":
            route = f"derived, {row['lines']} lines"
        status = "ok" if row["ok"] else f"FAILED ({row['reason']})"
        lines.append(f"{a}: {route}; {status}")
    lines.append(f"covered {report['covered']} items; "
                 f"{'all ok' if report['ok'] else 'NOT contained'}")
    _emit(args, report, "\n".join(lines))
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# the acceptance battery

def _timed(fn):
    start = time.perf_counter()
    out = fn()
    out["elapsed_s"] = round(time.perf_counter() - start, 3)
    return out


def criterion_correspondence_exhaustive() -> dict:
    report = run_correspondence_suite(2, "exhaustive")
    return {
        "ok": report["frames"] == 36_864 and report["disagreement_count"] == 0,
        "frames": report["frames"],
        "disagreements": report["disagreement_count"],
        "strictness_witness": report["strictness_witness"],
    }


def criterion_correspondence_sampled(seed: int) -> dict:
    report = run_correspondence_suite(3, "sampled", count=10_000, seed=seed)
    return {
        "ok": report["frames"] == 10_000 and report["disagreement_count"] == 0,
        "frames": report["frames"],
        "disagreements": report["disagreement_count"],
    }


_SEPARATING = ({"p": 0b01}, {"p": 0b10})


def criterion_formula_bridge() -> dict:
    """Event-level postulate checks must agree with the formula level, the
    registry's L_KM items instantiated with characteristic formulas, on
    every two-state frame, for both separating one-atom valuations.

    Each valuation's instances compile to one function that returns, for
    every postulate, the states where all of its instances hold; both
    functions read the frame's one build of its modal tables, and the
    event level reads its update rows. The first valuation's instance
    table also serves the spot checks through the per-model evaluator,
    on every 1,024th frame: the only frames made into models."""
    tables = [km_formula_instances(2, valuation) for valuation in _SEPARATING]
    compiled = [compile_conjunctions([table[a] for a in KM_AXIOM_IDS], valuation, 2)
                for table, valuation in zip(tables, _SEPARATING)]
    checked = 0
    disagreements = []
    spot_checks = 0
    for index, fr in enumerate(enumerate_frames(2)):
        masks = [run(fr) for run in compiled]
        for i, a in enumerate(KM_AXIOM_IDS):
            for s in (0, 1):
                event_level = check_km_axiom(fr, s, a)[0]
                for mask in masks:
                    checked += 1
                    if (mask[i] >> s & 1) != event_level and len(disagreements) < 10:
                        disagreements.append(
                            {"frame": frame_to_json(fr), "axiom": a, "state": s})
        if index % 1024 == 0:
            # tie the per-model formula evaluator itself into the sweep
            m = make_model(fr, _SEPARATING[0])
            for a in KM_AXIOM_IDS:
                via = check_km_axiom_via_formulas(m, 0, a, tables[0])
                spot_checks += 1
                if via != check_km_axiom(fr, 0, a)[0]:
                    disagreements.append(
                        {"frame": frame_to_json(fr), "axiom": a, "state": 0,
                         "path": "check_km_axiom_via_formulas"})
    return {"ok": not disagreements, "checked": checked,
            "spot_checks": spot_checks, "disagreements": disagreements}


def criterion_proof_suite() -> dict:
    registry = builtin_registry()
    scripts = builtin_scripts()
    script_failures = [s.id for s in scripts if not registry.check(s.id).ok]
    expected = {"A_diamond_2": 19, "A_diamond_6w": 25, "A_diamond_7s": 19,
                "A_star_3": 11}
    length_errors = {
        sid: len(registry.script(sid).lines)
        for sid, want in expected.items()
        if registry.script(sid) is None or len(registry.script(sid).lines) != want
    }
    containment = verify_containment()
    mutants = survivors = 0
    for script in scripts:
        for k in range(1, len(script.lines) + 1):
            mutants += 1
            if check_script(delete_line(script, k), registry).ok:
                survivors += 1
    return {
        "ok": (not script_failures and not length_errors and containment["ok"]
               and len(scripts) >= 11 and survivors == 0),
        "scripts": len(scripts),
        "script_failures": script_failures,
        "length_errors": length_errors,
        "containment_ok": containment["ok"],
        "deletion_mutants": mutants,
        "undetected_mutants": survivors,
    }


def criterion_strictness_witness(witness: dict | None) -> dict:
    confirmed = False
    if witness is not None:
        fr = frame_from_json(witness)
        confirmed = (schema_valid_on_frame(fr, "A_diamond_2")[0]
                     and not schema_valid_on_frame(fr, "A_star_4")[0])
    return {"ok": witness is not None and confirmed, "witness": witness}


def criterion_worlds_lemmas(seed: int) -> dict:
    """Lifting-lemma sweeps over the three family populations.

    ``ok`` and ``violations`` count the union bound
    (``K_diamond_7s_lifted``) only. The conditional-expansion rows
    (``K_diamond_9s_lifted``) stay in the report with their counts as
    the known finding: KM's strong postulate is stated for complete
    belief sets, and its lifted form fails on multi-world ones, so
    those violations are not a failure of this criterion.
    """
    one_atom = run_worlds_report(1, "exhaustive", 0, seed, "none")
    two_atom_k7 = run_worlds_report(2, "sampled", 1_000, seed, "k7", "k7s")
    two_atom_k9 = run_worlds_report(2, "sampled", 1_000, seed, "k9", "k9s")
    parts = {
        "one_atom_exhaustive": one_atom,
        "two_atom_union_families": two_atom_k7,
        "two_atom_conjunction_families": two_atom_k9,
    }
    violations = sum(part["lemmas"]["K_diamond_7s_lifted"]["violations"]
                     for part in parts.values()
                     if "K_diamond_7s_lifted" in part["lemmas"])
    return {"ok": violations == 0, "violations": violations, **parts}


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.choice(("p", "q", "r", "u")))
    kind = rng.choice(("not", "or", "and", "implies", "iff",
                       "believes", "box", "cond"))
    child = _random_formula(rng, depth - 1)
    if kind == "not":
        return Not(child)
    if kind == "believes":
        return Believes(child)
    if kind == "box":
        return Box(child)
    other = _random_formula(rng, depth - 1)
    if kind == "or":
        return Or(child, other)
    if kind == "and":
        return And(child, other)
    if kind == "implies":
        return Implies(child, other)
    if kind == "iff":
        return Iff(child, other)
    return Cond(child, other)


def _tautology_by_tables(f) -> bool:
    units = opaque_atoms(f)

    def value(g, env) -> bool:
        if g in env:
            return env[g]
        if isinstance(g, Not):
            return not value(g.child, env)
        return value(g.left, env) or value(g.right, env)

    for bits in range(1 << len(units)):
        env = {u: bool(bits >> i & 1) for i, u in enumerate(units)}
        if not value(f, env):
            return False
    return True


def criterion_foundations(seed: int) -> dict:
    rng = random.Random(seed)
    round_trip_failures = 0
    for _ in range(1_000):
        f = _random_formula(rng, rng.randint(1, 5))
        if parse(print_formula(f)) != f:
            round_trip_failures += 1

    oracle_disagreements = 0
    produced = 0
    while produced < 1_000:
        f = _random_formula(rng, rng.randint(1, 4))
        if len(opaque_atoms(f)) > 4:
            continue
        produced += 1
        if is_tautology(f) != _tautology_by_tables(f):
            oracle_disagreements += 1

    consistency_failures = 0
    top_failures = 0
    belief_consistency_failures = 0
    for fr in enumerate_frames(2):
        for s in range(fr.n):
            for event in range(1, fr.full + 1):
                if fr.update(s, event) & ~fr.full:
                    top_failures += 1
            try:
                fr.update(s, 0)
            except ValueError:
                pass
            else:
                consistency_failures += 1
        if not schema_valid_on_frame(fr, "D_B")[0]:
            belief_consistency_failures += 1

    return {
        "ok": (round_trip_failures == 0 and oracle_disagreements == 0
               and consistency_failures == 0 and top_failures == 0
               and belief_consistency_failures == 0),
        "round_trip_failures": round_trip_failures,
        "tautology_oracle_disagreements": oracle_disagreements,
        "empty_update_allowed": consistency_failures,
        "update_outside_universe": top_failures,
        "belief_consistency_failures": belief_consistency_failures,
    }


def run_acceptance_suite(seed: int = 0) -> dict:
    """Run the seven acceptance criteria and aggregate their reports."""
    criteria = {}
    criteria["1_correspondence_exhaustive"] = _timed(criterion_correspondence_exhaustive)
    criteria["2_correspondence_sampled"] = _timed(lambda: criterion_correspondence_sampled(seed))
    criteria["3_formula_bridge"] = _timed(criterion_formula_bridge)
    criteria["4_proof_suite"] = _timed(criterion_proof_suite)
    criteria["5_strictness_witness"] = _timed(lambda: criterion_strictness_witness(
        criteria["1_correspondence_exhaustive"]["strictness_witness"]))
    criteria["6_worlds_lemmas"] = _timed(lambda: criterion_worlds_lemmas(seed))
    criteria["7_foundations"] = _timed(lambda: criterion_foundations(seed))
    return {"seed": seed, "criteria": criteria,
            "ok": all(c["ok"] for c in criteria.values())}


def _finding_lines(criterion: dict) -> list[str]:
    lines = []
    for part in ("one_atom_exhaustive", "two_atom_conjunction_families"):
        row = criterion[part]["lemmas"]["K_diamond_9s_lifted"]
        lines.append(f"  known finding, {part}: K_diamond_9s_lifted violated by "
                     f"{row['violations']} of {row['hypothesis_families']} "
                     f"hypothesis-satisfying families")
    return lines


def _cmd_suite(args) -> int:
    report = run_acceptance_suite(args.seed)
    lines = []
    for name, row in report["criteria"].items():
        lines.append(f"{name}: {'ok' if row['ok'] else 'FAILED'} "
                     f"({row['elapsed_s']}s)")
        if name == "6_worlds_lemmas":
            lines.extend(_finding_lines(row))
    lines.append("suite: " + ("ok" if report["ok"] else "FAILED"))
    _emit(args, report, "\n".join(lines))
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all sampling (default 0)")
    common.add_argument("--out", help="write the report to this file")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="artifact",
        description="belief update and revision workbench")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a formula at a state of a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("truth-set", parents=[common],
                       help="truth set of a formula in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_truth_set)

    p = sub.add_parser("frame-check", parents=[common],
                       help="check selection properties of a frame")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument("--property", default="all",
                   choices=("all",) + PROPERTY_IDS)
    p.set_defaults(fn=_cmd_frame_check)

    p = sub.add_parser("frame-enum", parents=[common],
                       help="enumerate all frames of a given size")
    p.add_argument("--states", type=_at_least_one, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_frame_enum)

    p = sub.add_parser("check-km", parents=[common],
                       help="check update postulates at a state")
    p.add_argument("--model", required=True)
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--axiom", default="all", choices=("all",) + KM_AXIOM_IDS)
    p.add_argument("--bridge", action="store_true",
                   help="also check the postulate's L_KM item instantiated "
                        "with characteristic formulas")
    p.set_defaults(fn=_cmd_check_km)

    p = sub.add_parser("correspond", parents=[common],
                       help="axiom/property correspondence sweep")
    p.add_argument("--states", type=_at_least_one, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--sample", type=_at_least_one, metavar="COUNT")
    p.set_defaults(fn=_cmd_correspond)

    p = sub.add_parser("worlds-check", parents=[common],
                       help="check the lifted update-postulate lemmas")
    p.add_argument("--atoms", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--sample", type=_at_least_one, metavar="COUNT")
    p.add_argument("--constraint", default="none", choices=("none", "k7", "k9"))
    p.add_argument("--lemma", default="both", choices=("both", "k7s", "k9s"))
    p.set_defaults(fn=_cmd_worlds_check)

    p = sub.add_parser("prove-check", parents=[common],
                       help="validate a proof script (builtin:<id> or a file)")
    p.add_argument("target")
    p.add_argument("--logic", choices=tuple(LOGICS))
    p.set_defaults(fn=_cmd_prove_check)

    p = sub.add_parser("verify-containment", parents=[common],
                       help="account for every update-logic item in the revision logic")
    p.add_argument("--exclude", action="append", default=[],
                   metavar="AXIOM_ID",
                   help="treat this primitive axiom or rule as unavailable (repeatable)")
    p.set_defaults(fn=_cmd_verify_containment)

    p = sub.add_parser("suite", parents=[common],
                       help="run the full acceptance battery")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
