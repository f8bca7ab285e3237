"""Regenerate ``perfbench/reference.json`` from the current program.

    python3 perfbench/pin.py

The reference pins the exact counts each workload's report must carry.
Seed-independent counts are pinned once; the seed-dependent ones
(correspond-3s pair counts, the two-atom lemma populations) for seeds
``0 .. PINNED_SEEDS - 1``. Runs with other seeds check only the invariants.
Seed 0 is the tuning seed; seed 1 is held out for checking claims.
Re-pin only when a change is meant to alter a count, and say so.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from layertrace import NullTracer  # noqa: E402
from artifact import cli, frame, schema  # noqa: E402

SAMPLED_FRAMES = 1_000
BRIDGE_FRAMES = 256
EXHAUSTIVE_PARTS = 8
PINNED_SEEDS = 100


def main() -> int:
    for position, fr in enumerate(frame.enumerate_frames(2)):
        if workloads.two_state_frame(position) != fr:
            sys.exit(f"error: two_state_frame({position}) is not the enumeration's frame")

    exhaustive = schema.run_correspondence_suite(2, "exhaustive")
    parts = []
    for part in workloads.exhaustive_parts(EXHAUSTIVE_PARTS):
        report, _ = workloads.fed(schema.run_correspondence_suite, part, NullTracer(),
                                  2, "exhaustive")
        parts.append({"pairs": workloads.pair_counts(report),
                      "witness": report["strictness_witness"] is not None})
    for axiom, counts in workloads.pair_counts(exhaustive).items():
        if [sum(p["pairs"][axiom][i] for p in parts) for i in (0, 1)] != counts:
            sys.exit(f"error: the parts do not add up to the exhaustive sweep for {axiom}")
    sampled = {str(seed): workloads.pair_counts(schema.run_correspondence_suite(
        3, "sampled", count=SAMPLED_FRAMES, seed=seed)) for seed in range(PINNED_SEEDS)}

    positions = workloads.Bridge2x(0, {"bridge-2x": {"frames": BRIDGE_FRAMES}},
                                   NullTracer()).positions
    bridge, _ = workloads.fed(cli.criterion_formula_bridge, positions, NullTracer())

    worlds = {str(seed): cli.criterion_worlds_lemmas(seed) for seed in range(PINNED_SEEDS)}
    one_atom = worlds["0"]["one_atom_exhaustive"]
    two_atom = worlds["0"]["two_atom_union_families"]
    proofs = cli.criterion_proof_suite()
    if exhaustive["disagreement_count"] or not bridge["ok"] or not proofs["ok"]:
        sys.exit("error: the program disagrees with itself; refusing to pin")

    reference = {
        "correspond-2x": {"frames": exhaustive["frames"],
                          "pairs": workloads.pair_counts(exhaustive), "parts": parts},
        "correspond-3s": {"count": SAMPLED_FRAMES, "seeds": sampled},
        "bridge-2x": {"frames": len(positions),
                      "checked": bridge["checked"], "spot_checks": bridge["spot_checks"]},
        "lemmas": {
            "one_atom_families": one_atom["families"],
            "one_atom": workloads.lemma_counts(one_atom),
            "two_atom_families": two_atom["families"],
            "two_atom": {seed: {"k7": workloads.lemma_counts(w["two_atom_union_families"]),
                                "k9": workloads.lemma_counts(w["two_atom_conjunction_families"])}
                         for seed, w in worlds.items()},
            "scripts": proofs["scripts"],
            "mutants": proofs["deletion_mutants"],
            "containment": cli.verify_containment()["covered"],
        },
    }
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)  # one pair per line
    (HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
