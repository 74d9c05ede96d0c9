"""End-to-end tests for the command line interface.

Each committed sample document is run through the CLI with its canonical
arguments and compared byte-for-byte against the golden report, so any
change to report rendering shows up as a diff here.
"""

import json
import time
from pathlib import Path

import pytest

import twostage.abelian
import twostage.cohomology
import twostage.linalg
import twostage.moduli
from twostage.abelian import FgAbGroup
from twostage.cli import EXIT_CODES, main, parse_input
from twostage.errors import InputFormatError
from twostage.linalg import smith_normal_form
from twostage.pialgebra import TwoStageDim1N

from helpers import cyclic_periodic_cohomology, reference_smith_normal_form, reference_subquotient_presentation

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "samples"
GOLDEN = SAMPLES / "golden"

# CI's "Golden reports under a time limit" step makes every golden run below
# again, each in a fresh process under `timeout 60`, and runs the two samples
# without a golden; a comment beside an entry says what its time limit pins.
MODULI_SAMPLES = [
    "two_types_z2",
    "orbits_z3",
    "coprime_vanishing",
    "zero_coefficients",
    "negation_action",
    "stable_z4_z2",
    "stable_free",
    "stable_reduction_q",
    "stable_quadratic",
    # (C2 x C2, (Z/2)^2): Aut(A) of order 36 acting on 256 k-invariant
    # classes must not hang
    "c2c2_z2z2",
    # (C6, (Z/2)^2) on the non-diagonal relation basis [[-2, 0], [2, 2]]:
    # its cochain groups must take their Smith data from the coefficients',
    # not from a Smith form of each block-diagonal presentation
    "c6_z2z2_rebased",
    # (C8, Z/2): the Smith forms of its cocycle subquotients (up to
    # 343 x 392) must run on sparse rows, with the dense form's pivots
    "c8_z2",
    # (C2^3, Z/2): Aut(A) of order 168 must act through its generators
    # alone, not one transport per pair
    "c2x3_z2",
    # (C2 x C2, (Z/2)^3): Aut(A) of order 1008 on 4096 classes must not
    # build a composition table of |Aut(A)|^2 cells
    "c2c2_z2x3",
    "stable_rebased_q",
    # ((Z/2)^4 -> Z/2, max_endos raised to 65536): the 20160 automorphisms
    # of (Z/2)^4 must be built with no generator matrix; their keys are
    # read off their element maps and checked as one batch in canonical
    # coordinates
    "stable_z2x4_z2_q",
    # (C9, Z/3) and (C6, Z/4, n = 3): their cocycle lattices (up to 512
    # unknowns and 4096 congruences mod 3, and 625 unknowns and 3125
    # congruences mod 4) must come from row reduction mod p and p-adic
    # lifting, not from column operations on [C; I]
    "c9_z3",
    "c6_z4_n3",
    # (S3, Z/2), the only moduli golden with a nonabelian A_1: Aut(S3)
    # through the span search, and compatible pairs over a nonabelian group
    "perm_group_cohomology",
    # (C6, Z/2, n = 4): H^5 = Z/2, so its run must not build the top
    # subquotient, whose Smith form (3125 cochain generators) took about
    # 15 s; its classes come from reductions mod 2
    "c6_z2_n4",
    # non-diagonal actions on coefficients with several generators:
    # C2 x C2 on (Z/2)^3 by two commuting shears, and on Z/4 x Z/2 by
    # y -> 2x + y through one factor; they pin the bar differentials'
    # action blocks and the k-invariant transport by block index, where
    # psi mixes the coordinates of a block
    "c2c2_z2x3_shear",
    "c2c2_z4z2_shear",
    # case B's closed forms on Z summands and on a non-diagonal relation
    # basis: Hom(Z/2, Z) = 0, Hom(Z, Z/4) and Ext(Z/2, Z)
    "stable_mixed_free",
    # Aut(C6 x C6) on a non-diagonal relation basis: the socle search runs
    # over two primes, 2 and 3, at each depth; Aut has order 288, and 192
    # pairs commute with q = (3, 0)
    "stable_z6z6_rebased_q",
]

# A sample with no golden: the parent of the mod p route could not finish it,
# so its report is checked against closed forms instead.  CI requires exit 0
# within 60 s.
NO_GOLDEN_SAMPLE = "c8_z4_n3.json"

# A sample refused by a bound, so it has no report: ((Z/2)^6, Z/2) at n = 2
# with a zero element table, whose |End((Z/2)^6)| = 2^36 is over max_endos.
# CI requires exit 4 within 10 s, so the 64-element table must be checked
# without the cubic loop over all triples.
REFUSED_SAMPLE = "stable_z2x6_zero_q.json"

GOLDEN_RUNS = [
    *[(f"{name}.moduli.txt", ["moduli", f"{name}.json"]) for name in MODULI_SAMPLES],
    (
        "two_types_z2.cohomology.txt",
        ["cohomology", "two_types_z2.json", "--degrees", "0..5", "--oracle"],
    ),
    (
        "perm_group_cohomology.cohomology.txt",
        ["cohomology", "perm_group_cohomology.json", "--degrees", "0..2", "--oracle"],
    ),
    # (C4, Z/4) under --oracle and check decides all 4^9 = 262144 degree-2
    # cochains: the oracle searches them depth first, dropping each prefix
    # at the first coboundary row it completes, and must not hang
    ("c4_z4.cohomology.txt", ["cohomology", "c4_z4.json", "--degrees", "0..2", "--oracle"]),
    # (C8, Z/2) in degrees 0..4: each type comes off F_p ranks (up to a
    # 16807 x 2401 differential mod 2), not off a Smith form of Z^k / B^k
    # (up to 2401 x 2744)
    ("c8_z2.cohomology.txt", ["cohomology", "c8_z2.json", "--degrees", "0..4"]),
    ("negation_action.check.txt", ["check", "negation_action.json"]),
    ("stable_quadratic.check.txt", ["check", "stable_quadratic.json"]),
    ("c4_z4.check.txt", ["check", "c4_z4.json"]),
]


def run_cli(argv, capsys):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_doc(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def case_a_doc(**overrides):
    doc = {
        "case": "A",
        "n": 2,
        "group": {"cyclic_factors": [2]},
        "module": {"coefficients": {"cyclic_factors": [2]}, "action": "trivial"},
    }
    doc.update(overrides)
    return doc


def case_b_doc(**overrides):
    doc = {"case": "B", "n": 2, "an": {"cyclic_factors": [2]}, "an1": {"cyclic_factors": [2]}, "q": "zero"}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("golden_name,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_golden_round_trip(golden_name, argv, capsys):
    full = [argv[0], SAMPLES / argv[1], *argv[2:]]
    status, out, err = run_cli(full, capsys)
    assert status == 0
    assert err == ""
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden_name,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_golden_smith_forms_match_the_reference(golden_name, argv, capsys, monkeypatch):
    seen = []

    def recording(m):
        seen.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(twostage.linalg, "smith_normal_form", recording)
    monkeypatch.setattr(twostage.abelian, "smith_normal_form", recording)
    status, _, _ = run_cli([argv[0], SAMPLES / argv[1], *argv[2:]], capsys)
    assert status == 0
    for m in seen:
        got, want = smith_normal_form(m), reference_smith_normal_form(m)
        assert (got.s, got.u, got.v, got.u_inv) == (want.s, want.u, want.v, want.u_inv)


def _elementary(factors) -> bool:
    """Whether invariant factors ``factors`` are those of (Z/p)^r, p prime."""
    factors = set(factors)
    return not factors or (len(factors) == 1 and all(p % q for p in factors for q in range(2, p)))


def _elementary_case_a(sample: str) -> bool:
    algebra, _ = parse_input((SAMPLES / sample).read_text(encoding="utf-8"))
    return isinstance(algebra, TwoStageDim1N) and _elementary(algebra.an.base.invariant_factors)


ELEMENTARY_RUNS = [(g, argv) for g, argv in GOLDEN_RUNS if _elementary_case_a(argv[1])]


# The case A moduli goldens whose H^(n+1) is 0 or Z/2: their classes,
# representatives and class coordinates come from reductions mod p, and
# no subquotient is built at all.
SMALL_TOP_SAMPLES = {
    "two_types_z2.json",
    "coprime_vanishing.json",
    "zero_coefficients.json",
    "negation_action.json",
    "c8_z2.json",
    "perm_group_cohomology.json",
    "c6_z2_n4.json",
}


def _top_type(sample: str) -> str:
    """H^(n+1) as the sample's moduli golden prints it."""
    n = json.loads((SAMPLES / sample).read_text(encoding="utf-8"))["n"]
    golden = (GOLDEN / sample.replace(".json", ".moduli.txt")).read_text(encoding="utf-8")
    (line,) = [line for line in golden.splitlines() if line.startswith(f"  H^{n + 1} = ")]
    return line.split(" = ")[1]


@pytest.mark.parametrize("golden_name,argv", ELEMENTARY_RUNS, ids=[g for g, _ in ELEMENTARY_RUNS])
def test_elementary_goldens_build_a_subquotient_only_for_the_top_degree(golden_name, argv, capsys, monkeypatch):
    # Coefficients (Z/p)^r: every type comes from F_p ranks, and only the
    # k-invariant degree of a moduli run reads class coordinates, from its
    # subquotient unless that degree is 0 or Z/2.
    built = []
    construct = twostage.abelian.Subquotient.__init__

    def recording(self, *args):
        built.append(args[0])
        construct(self, *args)

    monkeypatch.setattr(twostage.abelian.Subquotient, "__init__", recording)
    status, _, _ = run_cli([argv[0], SAMPLES / argv[1], *argv[2:]], capsys)
    assert status == 0
    if argv[0] == "moduli":
        assert (argv[1] in SMALL_TOP_SAMPLES) == (_top_type(argv[1]) in ("0", "C2"))
    assert len(built) == (1 if argv[0] == "moduli" and argv[1] not in SMALL_TOP_SAMPLES else 0)


CASE_A_MODULI_SAMPLES = [
    argv[1]
    for _, argv in GOLDEN_RUNS
    if argv[0] == "moduli" and json.loads((SAMPLES / argv[1]).read_text(encoding="utf-8"))["case"] == "A"
]


@pytest.mark.parametrize("sample", CASE_A_MODULI_SAMPLES + ["c4_z4.json"])
def test_the_k_invariant_action_keeps_its_routes(sample, capsys, monkeypatch):
    # H^(n+1) = (Z/p)^r: Burnside's count reads each pair's F_p rank and
    # never runs the gcd fold, and for p = 2 H's element maps double by
    # XOR and never take the per-coordinate pass, the only part of
    # element_map that reads strides.  Any other H, as H^3(C4; Z/4) = Z/4,
    # keeps the fold.  The top H is what counts: (C2 x C2, Z/4 x Z/2) has
    # H^3 = (Z/2)^4.
    tops, folds, passes, mapping = [], [], [], []
    counts, fold = twostage.moduli._fixed_counts, twostage.moduli._fixed_count
    element_map, strides = FgAbGroup.element_map, FgAbGroup.strides

    def recording_counts(images, group):
        tops.append(group.invariant_factors)
        return counts(images, group)

    def recording_fold(images, group):
        folds.append(group)
        return fold(images, group)

    def recording_map(self, images):
        mapping.append(self)
        try:
            return element_map(self, images)
        finally:
            mapping.pop()

    def recording_strides(self):
        if mapping and mapping[-1] is self:
            passes.append(self.invariant_factors)
        return strides.fget(self)

    monkeypatch.setattr(twostage.moduli, "_fixed_counts", recording_counts)
    monkeypatch.setattr(twostage.moduli, "_fixed_count", recording_fold)
    monkeypatch.setattr(FgAbGroup, "element_map", recording_map)
    monkeypatch.setattr(FgAbGroup, "strides", property(recording_strides))
    status, _, _ = run_cli(["moduli", SAMPLES / sample], capsys)
    assert status == 0
    (top,) = tops
    assert bool(folds) != _elementary(top)
    assert (top in passes) != (set(top) <= {2})


@pytest.mark.parametrize("sample", CASE_A_MODULI_SAMPLES)
def test_subquotient_smith_inputs_match_the_dense_route(sample, capsys, monkeypatch):
    # Each subquotient's presentation, the top one's among them, reaches its
    # Smith form as the sparse rows its solves produce.  They must be the
    # dense route's rows (dense Hermite basis, dense solves, one transpose)
    # entry for entry and pair for pair: the pair order is the order the
    # Smith form reads each row in, so this pins its operation sequence and
    # with it the k-invariant labels.  A top H^(n+1) of 0 or Z/2 builds
    # none.
    smith_inputs, built = [], []
    homology_at = twostage.cohomology.homology_at

    def recording_smith(m):
        smith_inputs.append(m)
        return smith_normal_form(m)

    def recording_homology(complex_, k):
        built.append((complex_, k, homology_at(complex_, k)))
        return built[-1][2]

    monkeypatch.setattr(twostage.abelian, "smith_normal_form", recording_smith)
    monkeypatch.setattr(twostage.cohomology, "homology_at", recording_homology)
    status, _, _ = run_cli(["moduli", SAMPLES / sample], capsys)
    assert status == 0
    n = parse_input((SAMPLES / sample).read_text(encoding="utf-8"))[0].n
    if sample in SMALL_TOP_SAMPLES:
        assert built == [] and _top_type(sample) in ("0", "C2")
        return
    assert max(k for _, k, _ in built) == n + 1
    for complex_, k, sub in built:
        (m,) = [m for m in smith_inputs if m is sub.group.presentation]
        want = reference_subquotient_presentation(complex_, k)
        assert m == want, (sample, k)
        assert m.nonzero_rows() == want.nonzero_rows(), (sample, k)


@pytest.mark.parametrize("sample", [s for s in CASE_A_MODULI_SAMPLES if _elementary_case_a(s)])
def test_the_f_p_types_match_the_smith_types(sample):
    # The package checks its F_p rank types against a Smith form only in a
    # degree whose subquotient it builds, which a top H^(n+1) of 0 or Z/2
    # no longer is.  Here every degree 0..n+1 is checked on one complex,
    # except the top of (C6, Z/2, n = 4), whose Smith form takes about 15 s:
    # its golden, written by the Smith route, pins that type.
    algebra, _ = parse_input((SAMPLES / sample).read_text(encoding="utf-8"))
    n = algebra.n
    ladder = twostage.cohomology.cohomology_range(algebra.an, n + 1)
    complex_ = twostage.cohomology.bar_complex(algebra.an, n + 2)
    for k in range(n + 1 if sample == "c6_z2_n4.json" else n + 2):
        assert ladder[k].group.normal_form == twostage.abelian.homology_at(complex_, k).group.normal_form, k


def test_a_non_diagonal_z2_keeps_the_diagonal_report(tmp_path, capsys, monkeypatch):
    # (C4, Z/2) presented on two generators by the relations [[2, 0], [1, 1]]:
    # its H^3 = Z/2 is read off canonical coordinate slots, not generators,
    # and gives the diagonal presentation's report, byte for byte, with no
    # subquotient built.
    module = {"coefficients": {"generators": 2, "relations": [[2, 0], [1, 1]]}, "action": "trivial"}
    monkeypatch.setattr(twostage.abelian.Subquotient, "__init__", None)
    status, diagonal, _ = run_cli(["moduli", write_doc(tmp_path, case_a_doc(group={"cyclic_factors": [4]}))], capsys)
    assert status == 0
    rebased = write_doc(tmp_path, case_a_doc(group={"cyclic_factors": [4]}, module=module))
    status, out, err = run_cli(["moduli", rebased], capsys)
    assert (status, err, out) == (0, "", diagonal)
    assert "pi_0 = 2 " in out and out.count("orbit size 1, stabilizer order 2") == 2


def test_sample_without_golden_finishes(capsys):
    # (C8, Z/4, n = 3): H^k(C8; Z/4) = Z/4 in every degree, and Aut(C8) x
    # Aut(Z/4) has the 3 orbits {0}, {1, 3} and {2} on H^4.
    status, out, err = run_cli(["moduli", SAMPLES / NO_GOLDEN_SAMPLE], capsys)
    assert status == 0 and err == ""
    assert cyclic_periodic_cohomology(8, [4], [[1]], 4) == [(4,)] * 5
    assert [line for line in out.splitlines() if line.startswith("  H^")] == [f"  H^{k} = C4" for k in range(5)]
    assert out.count("orbit size") == 3 and "pi_0 = 3 " in out


def test_every_sample_and_golden_is_exercised():
    samples_used = {argv[1] for _, argv in GOLDEN_RUNS} | {NO_GOLDEN_SAMPLE, REFUSED_SAMPLE}
    assert samples_used == {p.name for p in SAMPLES.glob("*.json")}
    goldens_used = {name for name, _ in GOLDEN_RUNS}
    assert goldens_used == {p.name for p in GOLDEN.glob("*.txt")}


def test_ci_reads_its_golden_runs_from_this_file():
    # The workflow's golden step prints its runs from GOLDEN_RUNS,
    # NO_GOLDEN_SAMPLE and REFUSED_SAMPLE and names no sample itself.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert "from test_cli import GOLDEN_RUNS, NO_GOLDEN_SAMPLE, REFUSED_SAMPLE" in workflow
    assert not any(p.stem in workflow for p in SAMPLES.glob("*.json"))


def test_reports_are_deterministic(capsys):
    argv = ["moduli", SAMPLES / "orbits_z3.json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.endswith("\n")


def test_output_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.txt"
    status, out, err = run_cli(
        ["moduli", SAMPLES / "two_types_z2.json", "--output", target], capsys
    )
    assert status == 0
    assert out == "" and err == ""
    assert target.read_text(encoding="utf-8") == (
        GOLDEN / "two_types_z2.moduli.txt"
    ).read_text(encoding="utf-8")


def test_no_flag_carries_over_between_calls(monkeypatch, capsys):
    """The argument parser is built once per process; each call parses afresh."""
    import twostage.cli as cli_module

    oracle_calls = []
    real = cli_module.oracle_cohomology

    def recording(*args, **kwargs):
        oracle_calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_module, "oracle_cohomology", recording)
    status, _, _ = run_cli(["cohomology", SAMPLES / "two_types_z2.json", "--degrees", "0..2", "--oracle"], capsys)
    assert status == 0 and oracle_calls
    oracle_calls.clear()
    status, out, err = run_cli(["moduli", SAMPLES / "two_types_z2.json"], capsys)
    assert (status, err, oracle_calls) == (0, "", [])
    assert out == (GOLDEN / "two_types_z2.moduli.txt").read_text(encoding="utf-8")
    args = cli_module._parser().parse_args(["moduli", "input.json"])
    assert (args.degrees, args.oracle, args.output, args.max_group_order) == (None, False, None, None)


class TestParseErrors:
    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"case": "A",', encoding="utf-8")
        status, out, err = run_cli(["moduli", path], capsys)
        assert status == EXIT_CODES["E_PARSE"] == 2
        assert out == ""
        assert "error[E_PARSE]" in err
        assert "line" in err

    def test_missing_file(self, capsys):
        status, _, err = run_cli(["moduli", "no_such_file.json"], capsys)
        assert status == 2
        assert "cannot read input" in err

    def test_unknown_field_named_in_diagnostic(self, tmp_path, capsys):
        path = write_doc(tmp_path, case_a_doc(surplus=1))
        status, _, err = run_cli(["moduli", path], capsys)
        assert status == 2
        assert "surplus" in err

    @pytest.mark.parametrize(
        "doc,field",
        [
            (case_a_doc(group={"cyclic_factors": [2], "zeta": 1, "alpha": 1}), "group.alpha"),
            (case_a_doc(module={"coefficients": {"cyclic_factors": [2]}, "weights": 1}), "module.weights"),
            (case_a_doc(module={"coefficients": {"cyclic_factors": [2], "order": 2}}), "module.coefficients.order"),
            (case_b_doc(an={"generators": 1, "relations": [[2]], "name": "x"}), "an.name"),
            (case_b_doc(n=3, q={"matrix": [[1]], "note": ""}), "q.note"),
            (case_b_doc(q={"element_table": [[0], [1]], "note": ""}), "q.note"),
        ],
        ids=["group", "module", "cyclic_factors", "generators", "matrix", "element_table"],
    )
    def test_nested_unexpected_field_is_named_with_its_path(self, doc, field, tmp_path, capsys):
        # the first extra key in sorted order
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert (status, out) == (2, "")
        assert err == f"error[E_PARSE]: {field}: unexpected field\n"

    def test_group_needs_exactly_one_description(self, tmp_path, capsys):
        doc = case_a_doc(group={"cyclic_factors": [2], "table": [[0]]})
        status, _, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert status == 2
        assert "group" in err

    def test_non_integer_entry_has_path(self, tmp_path, capsys):
        doc = case_a_doc(group={"cyclic_factors": [2, "x"]})
        status, _, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert status == 2
        assert "group.cyclic_factors[1]" in err

    @pytest.mark.parametrize("degrees", ["3..1", "abc", "0..2..4", "-1..3"])
    def test_bad_degree_ranges(self, degrees, capsys):
        argv = ["cohomology", SAMPLES / "two_types_z2.json", f"--degrees={degrees}"]
        status, _, err = run_cli(argv, capsys)
        assert status == 2
        assert "--degrees" in err


class TestValidationErrors:
    def test_broken_multiplication_table(self, tmp_path, capsys):
        doc = case_a_doc(group={"table": [[0, 0], [1, 1]]})
        status, _, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert status == EXIT_CODES["E_VALIDATION"] == 3
        assert "invariant(s) violated" in err

    def test_stable_input_rejected_by_cohomology_command(self, capsys):
        status, _, err = run_cli(
            ["cohomology", SAMPLES / "stable_z4_z2.json"], capsys
        )
        assert status == 3
        assert "error[E_VALIDATION]" in err

    def test_check_reports_failure_on_stdout(self, tmp_path, capsys):
        doc = case_a_doc(group={"table": [[0, 0], [1, 1]]})
        status, out, _ = run_cli(["check", write_doc(tmp_path, doc)], capsys)
        assert status == 3
        assert out.startswith("validation: FAILED")
        assert "  - " in out


class TestSizeErrors:
    def test_group_over_default_bound(self, tmp_path, capsys):
        path = write_doc(tmp_path, case_a_doc(group={"cyclic_factors": [17]}))
        status, _, err = run_cli(["moduli", path], capsys)
        assert status == EXIT_CODES["E_SIZE"] == 4
        assert "error[E_SIZE]" in err

    def test_stage_over_the_endomorphism_bound(self, tmp_path, capsys):
        # |End((Z/2)^4)| = 2^16 is over the default max_endos, though |Aut| = 20160 is not
        doc = {"case": "B", "n": 3, "an": {"cyclic_factors": [2, 2, 2, 2]}, "an1": {"cyclic_factors": [2]}, "q": "zero"}
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert status == 4
        assert out == ""
        assert err == "error[E_SIZE]: group too large to enumerate (requested 65536, bound 4096)\n"

    def test_element_table_is_checked_before_the_endomorphism_bound_refuses(self, capsys):
        # The 64-element table must be checked without a loop over all
        # 64^3 triples before max_endos refuses (Z/2)^6.
        status, out, err = run_cli(["moduli", SAMPLES / REFUSED_SAMPLE], capsys)
        assert (status, out) == (4, "")
        assert err == "error[E_SIZE]: group too large to enumerate (requested 68719476736, bound 4096)\n"

    def test_classes_over_max_enumeration_are_refused_before_aut(self, tmp_path, capsys, monkeypatch):
        import twostage.moduli

        def refuse(*args, **kwargs):
            raise AssertionError("Aut(A) built for classes that are not listed")

        monkeypatch.setattr(twostage.moduli, "pi_aut", refuse)
        module = {"coefficients": {"cyclic_factors": [2, 2]}, "action": "trivial"}
        doc = case_a_doc(group={"cyclic_factors": [2, 2]}, module=module, bounds={"max_enumeration": 100})
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert (status, out) == (4, "")
        assert err == "error[E_SIZE]: group too large to enumerate (requested 256, bound 100)\n"

    def test_default_bounds_refuse_two_to_the_thirty_classes(self, tmp_path, capsys):
        # (C2^3, (Z/2)^3) is inside every other default bound, but its H^3
        # has 2^30 classes: listing them ran out of memory (exit 5).
        module = {"coefficients": {"cyclic_factors": [2, 2, 2]}, "action": "trivial"}
        doc = case_a_doc(group={"cyclic_factors": [2, 2, 2]}, module=module)
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert (status, out) == (4, "")
        assert err == f"error[E_SIZE]: group too large to enumerate (requested {2 ** 30}, bound {2 ** 20})\n"

    @pytest.mark.parametrize(
        "order, n, message",
        [
            (8, 60000, "cochain group in degree 6 is too large (requested 117649, bound 20000)"),
            (2, 20000, "cochain groups in degrees 0..20000 are too large (requested 20001, bound 20000)"),
            (1, 20000, "cochain groups in degrees 0..20000 are too large (requested 20001, bound 20000)"),
        ],
    )
    def test_large_n_is_refused_before_the_complex_is_sized_in_full(self, order, n, message, tmp_path, capsys):
        # The cochain ranks are checked degree by degree: (C8, Z/2) stops at
        # degree 6 of its 60002, not after 7^60002, and (C2, Z/2), with one
        # generator per degree, by their total.  (C1, Z/2) has none above
        # degree 0, and each such degree counts as one.
        start = time.perf_counter()
        status, out, err = run_cli(["moduli", write_doc(tmp_path, case_a_doc(n=n, group={"cyclic_factors": [order]}))], capsys)
        assert (status, out, err) == (4, "", f"error[E_SIZE]: {message}\n")
        assert time.perf_counter() - start < 1

    def test_zero_coefficients_cost_nothing_per_degree(self, tmp_path, capsys):
        # (C8, 0) at n = 12: every cochain group has rank 0, so no degree
        # walks its 7^(k+1) tuples, and the 15 degrees are well inside the
        # bound.
        doc = case_a_doc(n=12, group={"cyclic_factors": [8]}, module={"coefficients": {"cyclic_factors": []}, "action": "trivial"})
        start = time.perf_counter()
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc)], capsys)
        assert time.perf_counter() - start < 5
        assert (status, err) == (0, "")
        assert [line for line in out.splitlines() if line.startswith("  H^")] == [f"  H^{k} = 0" for k in range(14)]
        assert "pi_0 = 1 " in out

    def test_max_group_order_flag_tightens_bound(self, capsys):
        argv = ["moduli", SAMPLES / "orbits_z3.json", "--max-group-order", "2"]
        status, _, err = run_cli(argv, capsys)
        assert status == 4
        assert "error[E_SIZE]" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_group_order_flag_below_one_is_refused_before_any_group(self, bound, tmp_path, capsys, monkeypatch):
        # A bound below 1 skipped the permutation closure's early stop, so
        # S6 built all 720 elements and their table before exiting 4.
        import twostage.groups

        def refuse(*args, **kwargs):
            raise AssertionError("group built under a bound below 1")

        monkeypatch.setattr(twostage.groups.FiniteGroup, "from_permutations", refuse)
        doc = case_a_doc(group={"permutations": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]})
        status, out, err = run_cli(["moduli", write_doc(tmp_path, doc), "--max-group-order", bound], capsys)
        assert (status, out) == (EXIT_CODES["E_PARSE"], "")
        assert err == "error[E_PARSE]: bounds.max_group_order: expected a positive integer\n"
        with pytest.raises(InputFormatError, match="bounds.max_group_order"):
            parse_input(json.dumps(doc), {"max_group_order": int(bound)})


def test_unexpected_exception_maps_to_internal(monkeypatch, capsys):
    import twostage.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(cli_module, "moduli_case_a", boom)
    status, _, err = run_cli(["moduli", SAMPLES / "two_types_z2.json"], capsys)
    assert status == EXIT_CODES["E_INTERNAL"] == 5
    assert "error[E_INTERNAL]" in err
    assert "induced failure" in err


def test_check_passes_on_valid_inputs(capsys):
    status, out, _ = run_cli(["check", SAMPLES / "two_types_z2.json"], capsys)
    assert status == 0
    assert "validation: ok" in out
    assert "degrees cross-checked" in out

    status, out, _ = run_cli(["check", SAMPLES / "stable_z4_z2.json"], capsys)
    assert status == 0
    assert "q constraints: ok" in out
    assert "result: all checks passed" in out

    for name in ("c2c2_z2x3_shear", "c2c2_z4z2_shear"):
        status, out, _ = run_cli(["check", SAMPLES / f"{name}.json"], capsys)
        assert status == 0
        assert "module action: ok" in out and "result: all checks passed" in out


class TestOracleCrossCheck:
    @pytest.mark.parametrize("name", ["two_types_z2", "orbits_z3", "c2c2_z2x3_shear", "c2c2_z4z2_shear"])
    def test_moduli_oracle_keeps_the_golden_report(self, name, capsys):
        status, out, err = run_cli(["moduli", SAMPLES / f"{name}.json", "--oracle"], capsys)
        assert status == 0
        assert err == ""
        assert out == (GOLDEN / f"{name}.moduli.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "two_types_z2.json", "--oracle"],
            ["moduli", "two_types_z2.json", "--oracle"],
        ],
        ids=["cohomology", "moduli"],
    )
    def test_disagreement_is_an_internal_error(self, argv, monkeypatch, capsys):
        import twostage.cli as cli_module

        monkeypatch.setattr(cli_module, "oracle_cohomology", lambda *a, **kw: (999,))
        status, out, err = run_cli([argv[0], SAMPLES / argv[1], *argv[2:]], capsys)
        assert status == EXIT_CODES["E_INTERNAL"]
        assert out == ""
        assert "oracle disagrees at degree" in err

    def test_check_reports_disagreement_on_stdout(self, monkeypatch, capsys):
        import twostage.cli as cli_module

        monkeypatch.setattr(cli_module, "oracle_cohomology", lambda *a, **kw: (999,))
        status, out, _ = run_cli(["check", SAMPLES / "two_types_z2.json"], capsys)
        assert status == EXIT_CODES["E_INTERNAL"]
        assert "FAILED (enumeration" in out

    # Degree 1 of the trivial group has a single cochain, but checking it
    # enumerates the |M| = 5 cochains of degree 0, over the bound of 3.
    TRIVIAL_GROUP = {
        "case": "A",
        "n": 2,
        "group": {"cyclic_factors": []},
        "module": {"coefficients": {"cyclic_factors": [5]}},
        "bounds": {"max_enumeration": 3},
    }

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["check"],
                [
                    "  H^0: skipped (enumeration 5 over bound)",
                    "  H^1: skipped (enumeration 5 over bound)",
                    "  H^2: ok (0)",
                    "result: all checks passed (1 degrees cross-checked)",
                ],
            ),
            (
                ["cohomology", "--degrees", "0..2", "--oracle"],
                [
                    "  H^0: skipped (would enumerate 5 cochains, bound 3)",
                    "  H^1: skipped (would enumerate 5 cochains, bound 3)",
                    "  H^2: ok (enumerated 1 cochains)",
                ],
            ),
            (["moduli", "--oracle"], ["pi_0 = 1   [orbits of Aut(A) on H^(n+1)(A_1; A_n)]"]),
        ],
        ids=["check", "cohomology", "moduli"],
    )
    def test_trivial_group_skips_degrees_over_bound(self, argv, expected, tmp_path, capsys):
        path = write_doc(tmp_path, self.TRIVIAL_GROUP)
        status, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
        assert status == 0
        assert err == ""
        lines = out.splitlines()
        for line in expected:
            assert line in lines


def test_exit_code_table_is_stable():
    assert EXIT_CODES == {
        "E_PARSE": 2,
        "E_VALIDATION": 3,
        "E_SIZE": 4,
        "E_INTERNAL": 5,
    }
