"""The benchmark's workloads, seeded input generation and answer checks.

A workload is a list of problems, each turned into one input document by
the seed, and every workload also runs the repository's golden samples.
The seed varies only what leaves the answer unchanged:

* case A: the labels of A_1's elements (identity fixed); the group goes to
  the program as a relabeled Cayley ``table``.  Relabeling by an
  automorphism gives the same table, so for C2, C3 and C2xC2 the seed
  changes nothing.  The coefficients keep their given presentation:
  another basis of their relation lattice (or another factor order) can
  set off the known Hermite entry growth and hang, as
  "northstar.c4_z2z2_rebased" shows, which would make the timed workloads
  fail at random seeds;
* case B with n >= 3: the basis of each stage group's relation lattice
  (generators fixed, so q keeps its matrix; an n = 2 element table would
  not survive this and runs only in the goldens);
* golden runs and problems marked ``as_given``: nothing.

A generated report is checked against its label-free answer, recorded in
``expected.json``: the whole report, except that a case A ``moduli`` report
keeps only pi_0, |Aut(A)|, the pi rows, the cohomology table and the sorted
orbit lines, since class coordinates depend on the labels.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The golden runs of the repository's CLI tests: (golden report, argv).
GOLDEN_RUNS = (
    *(
        (f"{name}.moduli.txt", ("moduli", f"{name}.json"))
        for name in (
            "two_types_z2",
            "orbits_z3",
            "coprime_vanishing",
            "zero_coefficients",
            "negation_action",
            "stable_z4_z2",
            "stable_free",
            "stable_reduction_q",
            "stable_quadratic",
        )
    ),
    ("two_types_z2.cohomology.txt", ("cohomology", "two_types_z2.json", "--degrees", "0..5", "--oracle")),
    ("perm_group_cohomology.cohomology.txt", ("cohomology", "perm_group_cohomology.json", "--degrees", "0..2", "--oracle")),
    ("negation_action.check.txt", ("check", "negation_action.json")),
    ("stable_quadratic.check.txt", ("check", "stable_quadratic.json")),
)

S3 = {"permutations": [[1, 0, 2], [0, 2, 1]]}


@dataclass(frozen=True)
class Problem:
    """One input document, before the seed picks its labels."""

    name: str
    doc: dict
    command: str = "moduli"
    args: tuple = ()
    as_given: bool = False  # run the document unchanged, whatever the seed

    def make(self, rng: random.Random) -> dict:
        if self.as_given:
            return self.doc
        if self.doc["case"] == "A":
            return _relabel_case_a(self.doc, rng)
        return _rebase_case_b(self.doc, rng)


def case_a(name, group, coefficients, n=2, command="moduli", args=(), as_given=False):
    group = group if isinstance(group, dict) else {"cyclic_factors": group}
    doc = {
        "case": "A",
        "n": n,
        "group": group,
        "module": {"coefficients": {"cyclic_factors": coefficients}, "action": "trivial"},
    }
    return Problem(name, doc, command, tuple(args), as_given)


def case_b(name, an, an1, n=3, q="zero"):
    doc = {"case": "B", "n": n, "an": {"cyclic_factors": an}, "an1": {"cyclic_factors": an1}, "q": q}
    return Problem(name, doc)


def oracle(name, group, coefficients, degrees):
    return case_a(name, group, coefficients, command="cohomology", args=("--degrees", degrees, "--oracle"))


@dataclass(frozen=True)
class Workload:
    problems: tuple
    goldens: bool = True


WORKLOADS = {
    # Elimination-bound case A moduli: linalg/abelian do ~95% of the work.
    "elim": Workload((
        case_a("elim.c2c2_z2_n3", [2, 2], [2], n=3),
        # As given: its six distinct labelings differ up to 2x in time and
        # 31 vs 44 MB in peak memory, which would make both bimodal over seeds.
        case_a("elim.c5_z2", [5], [2], as_given=True),
        case_a("elim.c4_z2z2", [4], [2, 2]),
        case_a("elim.c4_z4", [4], [4]),
        case_a("elim.c4_z2", [4], [2]),
    )),
    # Case A moduli whose time is the Aut(A) action on k-invariants:
    # transport, orbit and action-law checks; complexes are small.
    "kinv": Workload((
        case_a("kinv.c3_z3z3_n3", [3], [3, 3], n=3),
        case_a("kinv.c2c2_z8", [2, 2], [8]),
        case_a("kinv.c2c2_z12", [2, 2], [12]),
        case_a("kinv.c3_z3z3", [3], [3, 3]),
        case_a("kinv.c2c2_z2", [2, 2], [2]),
        # Dominated by the composition table of PiAut (168 pairs).
        case_a("kinv.c2_z2x3", [2], [2, 2, 2]),
    )),
    # Case B moduli: pi_aut filters pairs against q; no cohomology.
    "stable": Workload((
        case_b("stable.z2x3_z2", [2, 2, 2], [2]),
        case_b("stable.z4z4_z2", [4, 4], [2]),
        case_b("stable.z2x3_z2_q", [2, 2, 2], [2], q={"matrix": [[1, 0, 0]]}),
        case_b("stable.z2z2_z2z2", [2, 2], [2, 2]),
        case_b("stable.free", [0, 2], [0]),
    )),
    # The enumeration oracle and the cohomology command path.
    "oracle": Workload((
        oracle("oracle.c4_z3", [4], [3], "0..2"),
        oracle("oracle.c3_z3", [3], [3], "0..3"),
        oracle("oracle.c2c2_z2", [2, 2], [2], "0..2"),
    )),
    # The north-star inputs as measured by hand, too slow for a timed run.
    # They run as given: (C6, Z/2) hangs at the seed commit in its natural
    # labels and is expected to hit the per-input time limit, while many
    # relabelings of it finish.  Traced, this workload gives the seed-commit
    # baseline in baseline_seed.json.
    "northstar": Workload((
        case_a("northstar.s3_z2", S3, [2], as_given=True),
        case_a("northstar.c2c2_z2z2", [2, 2], [2, 2], as_given=True),
        case_a("northstar.c6_z2", [6], [2], as_given=True),
        # (C4, (Z/2)^2), 0.6 s as elim.c4_z2z2, with its coefficients on
        # another relation basis: hangs in Hermite reduction.
        Problem("northstar.c4_z2z2_rebased", {
            "case": "A",
            "n": 2,
            "group": {"cyclic_factors": [4]},
            "module": {"coefficients": {"generators": 2, "relations": [[-2, 0], [2, 2]]}, "action": "trivial"},
        }, as_given=True),
    ), goldens=False),
}


@dataclass(frozen=True)
class Input:
    """One call of the CLI in a pass."""

    id: str
    argv: tuple
    golden: str | None  # expected report bytes, or None for a generated input


def generate(workload: str, seed: int, root: Path, work: Path) -> list[Input]:
    """Write the workload's input documents for ``seed`` and list the calls."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    inputs = []
    for problem in spec.problems:
        doc = problem.make(random.Random(f"{seed}/{problem.name}"))
        path = work / f"{problem.name}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        inputs.append(Input(problem.name, (problem.command, str(path), *problem.args), None))
    if spec.goldens:
        samples = root / "samples"
        for golden, (command, sample, *args) in GOLDEN_RUNS:
            text = (samples / "golden" / golden).read_text(encoding="utf-8")
            inputs.append(Input(f"golden.{golden}", (command, str(samples / sample), *args), text))
    return inputs


def answer(report: str) -> list[str]:
    """The label-free part of a report."""
    lines = report.splitlines()
    if not report.startswith("two-stage moduli report\ncase: A\n"):
        return lines
    keep = ("pi_0 = ", "Aut(A) order:", "input:", "  pi_", "  H^")
    orbits = sorted(line.strip() for line in lines if line.strip().startswith("orbit size"))
    return [line for line in lines if line.startswith(keep)] + orbits


# -- label changes that keep the answer ----------------------------------


def _cyclic_product_table(factors: list[int]) -> list[list[int]]:
    elements = list(itertools.product(*(range(d) for d in factors)))
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple((a + b) % d for a, b, d in zip(x, y, factors))] for y in elements] for x in elements]


def _relabel_case_a(doc: dict, rng: random.Random) -> dict:
    table = _cyclic_product_table(doc["group"]["cyclic_factors"])
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0, *rest]
    relabeled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabeled[perm[i]][perm[j]] = perm[table[i][j]]
    return {**doc, "group": {"table": relabeled}}


def _rebase_case_b(doc: dict, rng: random.Random) -> dict:
    return {**doc, "an": _rebased(doc["an"]["cyclic_factors"], rng), "an1": _rebased(doc["an1"]["cyclic_factors"], rng)}


def _rebased(factors: list[int], rng: random.Random) -> dict:
    """The same group on the same generators, its relation lattice given by
    another basis: columns shuffled, then a few unimodular column operations."""
    m = len(factors)
    relations = [[d if i == k else 0 for i in range(m)] for k, d in enumerate(factors) if d]
    rng.shuffle(relations)
    if len(relations) > 1:
        for _ in range(len(relations)):
            j, k = rng.sample(range(len(relations)), 2)
            sign = rng.choice((1, -1))
            relations[j] = [a + sign * b for a, b in zip(relations[j], relations[k])]
    return {"generators": m, "relations": relations}
