"""The four benchmark workloads.

Each workload calls the public entry points the ``artifact`` command and
its acceptance battery use, and checks every report field by field
against ``reference.json``. A pass is one call (or, for ``lemmas``, one
pair of calls) of those entry points on inputs the run's seed makes.

Import this module only after the tracer, if any, is installed.
"""

from __future__ import annotations

import random
from array import array
from itertools import product
from pathlib import Path
from time import perf_counter

from artifact import cli, frame, model, proofkit, schema

SEPARATING = ({"p": 0b01}, {"p": 0b10})


def setup() -> dict[str, float]:
    """The work every CLI call pays before its sweep, beyond the import:
    compile the correspondence checkers (through their first use, as the
    sweep does), build the proof registry and build the bridge's instance
    tables. Returns the seconds each step took."""
    start = perf_counter()
    fr = frame.sample_frame(2, random.Random(0))
    for pair in schema.CORRESPONDENCE_PAIRS:
        schema.schema_valid_on_frame(fr, pair.axiom)
    compiled = perf_counter()
    proofkit.builtin_registry()
    registry = perf_counter()
    for valuation in SEPARATING:
        model.km_formula_instances(2, valuation)
    instances = perf_counter()
    return {"schema.compile_s": compiled - start,
            "proofkit.registry_s": registry - compiled,
            "model.instances_s": instances - registry}


def pair_counts(report: dict) -> dict[str, list[int]]:
    return {a: [row["property_count"], row["axiom_count"]]
            for a, row in report["pairs"].items()}


def lemma_counts(part: dict) -> dict[str, list[int]]:
    return {key: [row["hypothesis_families"], row["violations"]]
            for key, row in part["lemmas"].items()}


def _compare(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, pinned {want!r}")


class Workload:
    name = ""
    unit = ""
    item_layer = "cli.self"  # layer owning the self time of frame/family spans

    def __init__(self, seed: int, reference: dict, tracer):
        self.seed = seed
        self.reference = reference[self.name]
        self.tracer = tracer
        self.pinned = True  # False when the seed has no pinned counts

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, report: dict) -> list[str]:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def derived(self, report: dict) -> dict[str, float]:
        """Per-layer figures read from a report rather than timed."""
        return {}

    def notes(self, report: dict) -> list[str]:
        return []


class _Correspond(Workload):
    def _check_pairs(self, errors: list[str], report: dict, frames: int) -> None:
        _compare(errors, "frames", report["frames"], frames)
        _compare(errors, "pairs", sorted(report["pairs"]),
                 sorted(p.axiom for p in schema.CORRESPONDENCE_PAIRS))
        for axiom, row in report["pairs"].items():
            # the lists are capped, so an empty list is the only exact total
            _compare(errors, f"{axiom} disagreements", len(row["disagreements"]), 0)
            _compare(errors, f"{axiom} property vs axiom count",
                     row["property_count"], row["axiom_count"])

    def derived(self, report: dict) -> dict[str, float]:
        rows = report["pairs"].values()
        frames = report["frames"]
        with_property = [r for r in rows if r["property"] is not None]
        return {
            "frame.property_holds_ratio":
                sum(r["property_count"] for r in with_property)
                / (frames * len(with_property)),
            "schema.valid_ratio":
                sum(r["axiom_count"] for r in rows) / (frames * len(rows)),
        }


class Correspond2x(_Correspond):
    """run_correspondence_suite(2, "exhaustive") fed one eighth of the
    two-state frames per pass, so that a run holds many short passes.

    The eighths are a fixed random partition of the enumeration; pass i
    sweeps eighth (seed + i) mod 8, so any eight consecutive passes make
    the whole exhaustive sweep. Only the frames' enumeration positions are
    kept; each pass builds new Frame objects from them as it draws them.
    """

    name, unit = "correspond-2x", "frame"

    def __init__(self, seed, reference, tracer):
        super().__init__(seed, reference, tracer)
        self.parts = exhaustive_parts(len(self.reference["parts"]))
        self.passes = 0

    def run(self) -> dict:
        part = (self.seed + self.passes) % len(self.parts)
        self.passes += 1
        with self.tracer.entry("run_correspondence_suite"):
            report, requests = fed(schema.run_correspondence_suite, self.parts[part],
                                   self.tracer, 2, "exhaustive")
        return {**report, "part": part, "requested": requests}

    def check(self, report: dict) -> list[str]:
        errors: list[str] = []
        pinned = self.reference["parts"][report["part"]]
        _compare(errors, "frame source requests", report["requested"], [2])
        self._check_pairs(errors, report, len(self.parts[report["part"]]))
        _compare(errors, "pair counts", pair_counts(report), pinned["pairs"])
        if pinned["witness"]:
            witness = cli.criterion_strictness_witness(report["strictness_witness"])
            _compare(errors, "strictness witness confirmed", witness["ok"], True)
        else:
            _compare(errors, "strictness witness", report["strictness_witness"], None)
        return errors

    def units(self) -> int:
        return len(self.parts[0])


class Correspond3s(_Correspond):
    """run_correspondence_suite(3, "sampled") on seeded three-state frames."""

    name, unit = "correspond-3s", "frame"

    def __init__(self, seed, reference, tracer):
        super().__init__(seed, reference, tracer)
        self.count = self.reference["count"]
        self.pairs = self.reference["seeds"].get(str(seed))
        self.pinned = self.pairs is not None

    def run(self) -> dict:
        with self.tracer.entry("run_correspondence_suite"):
            return schema.run_correspondence_suite(
                3, "sampled", count=self.count, seed=self.seed)

    def check(self, report: dict) -> list[str]:
        errors: list[str] = []
        self._check_pairs(errors, report, self.count)
        _compare(errors, "A_star_1_diamond_0 axiom count",
                 report["pairs"]["A_star_1_diamond_0"]["axiom_count"], self.count)
        if self.pinned:
            _compare(errors, "pair counts", pair_counts(report), self.pairs)
        return errors

    def units(self) -> int:
        return self.count


# belief maps and selection rows of two-state frames, in the order
# frame.enumerate_frames(2) runs through them
BELIEFS_2 = tuple(product(range(1, 4), repeat=2))
ROWS_2 = tuple(product(range(4), repeat=3))


def two_state_frame(position: int) -> frame.Frame:
    """A new Frame, validated as the enumeration's are, equal to the one at
    ``position`` of ``frame.enumerate_frames(2)``."""
    belief, rest = divmod(position, len(ROWS_2) ** 2)
    first, second = divmod(rest, len(ROWS_2))
    return frame.Frame(2, BELIEFS_2[belief], (ROWS_2[first], ROWS_2[second]))


def exhaustive_parts(parts: int) -> list[array]:
    """The positions of the two-state frames split into ``parts`` equal
    random parts, each in enumeration order. A stride through the
    enumeration would fix some selection entries per part and with them
    how early the checks stop."""
    order = array("I", range(frame.frame_count(2)))
    random.Random(0).shuffle(order)
    return [array("I", sorted(order[k::parts])) for k in range(parts)]


def fed(entry, positions, tracer, *args):
    """Call ``entry(*args)`` with new frames built from the two-state
    ``positions`` standing in for the frame enumeration it asks for. The
    entry resolves ``enumerate_frames`` in its own module, so the stand-in
    goes there for the length of the call. Frames are built one at a time
    as the entry draws them, so their construction is timed as frame
    generation and none outlives the call. Returns the entry's result and
    the state counts it asked for."""
    namespace = entry.__globals__
    if "enumerate_frames" not in namespace:
        raise RuntimeError(f"{entry.__name__} no longer resolves enumerate_frames "
                           "in its module; the benchmark cannot feed it frames")
    original, requests = namespace["enumerate_frames"], []

    def source(n: int):
        requests.append(n)
        return tracer.iterate(map(two_state_frame, positions), "frame.gen", "frame")

    namespace["enumerate_frames"] = source
    try:
        return entry(*args), requests
    finally:
        namespace["enumerate_frames"] = original


class Bridge2x(Workload):
    """criterion_formula_bridge() fed a seeded random sample of the
    two-state frames: the whole sweep takes longer than a run may."""

    name, unit = "bridge-2x", "comparison"
    item_layer = "model.formula_check"  # closures run inline per frame

    def __init__(self, seed, reference, tracer):
        super().__init__(seed, reference, tracer)
        self.positions = sorted(random.Random(seed).sample(
            range(frame.frame_count(2)), self.reference["frames"]))

    def run(self) -> dict:
        with self.tracer.entry("criterion_formula_bridge", self.item_layer):
            report, requests = fed(cli.criterion_formula_bridge, self.positions,
                                   self.tracer)
        return {**report, "requested": requests}

    def check(self, report: dict) -> list[str]:
        errors: list[str] = []
        ref = self.reference
        _compare(errors, "frame source requests", report["requested"], [2])
        _compare(errors, "ok", report["ok"], True)
        _compare(errors, "checked", report["checked"], ref["checked"])
        _compare(errors, "spot_checks", report["spot_checks"], ref["spot_checks"])
        _compare(errors, "disagreements", report["disagreements"], [])
        return errors

    def units(self) -> int:
        return self.reference["checked"]

    def derived(self, report: dict) -> dict[str, float]:
        return {"model.comparisons": report["checked"]}


class Lemmas(Workload):
    """criterion_worlds_lemmas(seed) then criterion_proof_suite(), the
    latter from a cold proof registry (its cache is cleared each pass)."""

    name, unit = "lemmas", "check"
    PARTS = ("one_atom_exhaustive", "two_atom_union_families",
             "two_atom_conjunction_families")

    def __init__(self, seed, reference, tracer):
        super().__init__(seed, reference, tracer)
        self.two_atom = self.reference["two_atom"].get(str(seed))
        self.pinned = self.two_atom is not None

    def run(self) -> dict:
        with self.tracer.entry("criterion_worlds_lemmas"):
            worlds = cli.criterion_worlds_lemmas(self.seed)
        proofkit.builtin_registry.cache_clear()
        with self.tracer.entry("criterion_proof_suite"):
            proofs = cli.criterion_proof_suite()
        return {"worlds": worlds, "proofs": proofs}

    def check(self, report: dict) -> list[str]:
        errors: list[str] = []
        ref, worlds, proofs = self.reference, report["worlds"], report["proofs"]
        one = worlds[self.PARTS[0]]
        _compare(errors, "one-atom families", one["families"], ref["one_atom_families"])
        _compare(errors, "one-atom lemma counts", lemma_counts(one), ref["one_atom"])
        k7, k9 = worlds[self.PARTS[1]], worlds[self.PARTS[2]]
        for label, part in (("k7", k7), ("k9", k9)):
            _compare(errors, f"two-atom {label} families", part["families"],
                     ref["two_atom_families"])
            # the constrained generators satisfy the hypothesis by construction
            for key, row in part["lemmas"].items():
                _compare(errors, f"two-atom {label} {key} hypothesis families",
                         row["hypothesis_families"], ref["two_atom_families"])
        # the union lemma lifts; the conjunction lemma's violations are the
        # known finding, pinned rather than counted as failures
        _compare(errors, "two-atom K_diamond_7s violations",
                 k7["lemmas"]["K_diamond_7s_lifted"]["violations"], 0)
        if self.pinned:
            _compare(errors, "two-atom k7 counts", lemma_counts(k7),
                     self.two_atom["k7"])
            _compare(errors, "two-atom k9 counts", lemma_counts(k9),
                     self.two_atom["k9"])
        _compare(errors, "scripts", proofs["scripts"], ref["scripts"])
        _compare(errors, "script failures", proofs["script_failures"], [])
        _compare(errors, "length errors", proofs["length_errors"], {})
        _compare(errors, "deletion mutants", proofs["deletion_mutants"], ref["mutants"])
        _compare(errors, "undetected mutants", proofs["undetected_mutants"], 0)
        _compare(errors, "proof suite ok", proofs["ok"], True)
        containment = proofkit.verify_containment()
        _compare(errors, "containment items", containment["covered"], ref["containment"])
        _compare(errors, "containment ok", containment["ok"], True)
        return errors

    def units(self) -> int:
        ref = self.reference
        lemma_checks = ref["one_atom_families"] * 2 + ref["two_atom_families"] * 2
        return lemma_checks + ref["scripts"] + ref["mutants"]

    def derived(self, report: dict) -> dict[str, float]:
        parts = [report["worlds"][key] for key in self.PARTS]
        checks = sum(p["families"] * len(p["lemmas"]) for p in parts)
        hypothesis = sum(row["hypothesis_families"]
                         for p in parts for row in p["lemmas"].values())
        proofs = report["proofs"]
        rejected = proofs["deletion_mutants"] - proofs["undetected_mutants"]
        return {"worlds.hypothesis_ratio": hypothesis / checks,
                "proofkit.mutants_rejected_ratio": rejected / proofs["deletion_mutants"]}

    def notes(self, report: dict) -> list[str]:
        worlds = report["worlds"]
        one = worlds["one_atom_exhaustive"]["lemmas"]["K_diamond_9s_lifted"]
        two = worlds["two_atom_conjunction_families"]["lemmas"]["K_diamond_9s_lifted"]
        return [f"known finding (pinned, not a failure): K_diamond_9s does not lift; "
                f"{one['violations']} of {one['hypothesis_families']} one-atom and "
                f"{two['violations']} of {two['hypothesis_families']} two-atom "
                f"hypothesis families violate it (seed {self.seed})"]


WORKLOADS = {w.name: w for w in (Correspond2x, Correspond3s, Bridge2x, Lemmas)}


REFERENCE_PATH = Path(__file__).with_name("reference.json")
