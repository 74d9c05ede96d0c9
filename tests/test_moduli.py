"""Moduli reports: orbit bookkeeping, per-basepoint extensions, and the
structural invariants both report shapes must satisfy."""

import itertools
import json
import random
from math import gcd
from pathlib import Path

import pytest

from twostage import moduli
from twostage.abelian import AbHom, FgAbGroup
from twostage.cli import parse_input
from twostage.cohomology import cohomology_range
from twostage.errors import InternalConsistencyError, SizeBoundError
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix
from twostage.moduli import _action_along_tree, _fixed_count, _fixed_counts, _orbits, moduli_case_a, moduli_case_b
from twostage.pialgebra import (
    QuadraticMap,
    TwoStageDim1N,
    TwoStageDimNN1,
    abelian_automorphisms,
    act_on_kinvariants,
    pi_aut,
)

from helpers import composition_table, hom_inverse, polynomial_orbit_sizes, relabel, totient

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def case_a(group_order, base_order, n=2):
    g = FiniteGroup.cyclic(group_order)
    return TwoStageDim1N(n, GModule.trivial(g, FgAbGroup.cyclic(base_order)))


def test_two_types_with_z2_coefficients():
    report = moduli_case_a(case_a(2, 2))
    assert report.case == "A"
    assert report.pi0 == 2
    assert report.aut_order == 1
    [pi2] = report.pi_rows
    assert pi2.index == 2
    assert pi2.group.invariant_factors == (2,)
    assert "Der" in pi2.provenance
    assert len(report.basepoints) == 2
    split = report.basepoints[0]
    assert "(split)" in split.label
    assert split.pi1.kernel.invariant_factors == (2,)
    assert split.pi1.quotient_order == 1
    assert split.pi1.order == 2
    assert split.pi1.extension_class == "unknown"


def test_a_rank_route_disagreement_is_refused_naming_the_degree(monkeypatch):
    # With (Z/p)^r coefficients F_p ranks give every type, and the
    # k-invariant degree's subquotient gives its coordinates and, by its
    # Smith form, a second type.  A row reduction that misses one pivot
    # makes H^3 = Z/2 look like (Z/2)^3, whose subquotient is built, so the
    # two differ and the report is refused.  (A miscount down to 0 or Z/2
    # builds no subquotient; test_the_f_p_types_match_the_smith_types
    # checks those types.)
    import twostage.cohomology

    true_echelon = twostage.cohomology.echelon_mod_p
    monkeypatch.setattr(twostage.cohomology, "echelon_mod_p", lambda f, p: dict(list(true_echelon(f, p).items())[1:]))
    with pytest.raises(InternalConsistencyError, match=r"^H\^3: Smith route \[2\] disagrees with F_p rank route \[2, 2, 2\]$"):
        moduli_case_a(case_a(4, 2))


@pytest.mark.parametrize(
    "broken, message",
    [("leaves the cocycles", "transported representative is not a cocycle; transport is broken"),
     ("is zero", "transport did not permute the classes")],
)
def test_a_broken_transport_is_refused_on_the_mod_2_route(broken, message, monkeypatch):
    # (C4, Z/2): H^3 = Z/2 reads its classes off reductions mod 2, with no
    # subquotient, and Aut(A) has one generator to transport.  A transport
    # whose image is not a cocycle, or is the zero cochain, so that the
    # nonzero class goes to 0, is refused.
    import twostage.cohomology
    import twostage.pialgebra
    from twostage.cohomology import Cocycle

    algebra = case_a(4, 2)
    top = cohomology_range(algebra.an, 3)[3]
    width = len(top.representatives[0].vector)
    units = (Cocycle(algebra.an, 3, [int(i == j) for i in range(width)]) for j in range(width))
    moved = next(z for z in units if not top.is_cocycle(z)) if broken == "leaves the cocycles" else Cocycle(algebra.an, 3, [0] * width)
    monkeypatch.setattr(twostage.pialgebra, "_transport_cocycle", lambda *args: moved)
    monkeypatch.setattr(twostage.cohomology, "homology_at", None)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        moduli_case_a(algebra)


def test_orbit_decomposition_on_z3():
    report = moduli_case_a(case_a(3, 3))
    assert report.pi0 == 2
    dec = report.orbit_decomposition
    assert [o.size for o in dec.orbits] == [1, 2]
    assert dec.orbits[0].representative == (0,)
    for o in dec.orbits:
        assert o.size * o.stabilizer_order == report.aut_order
    assert sum(o.size for o in dec.orbits) == len(dec.classes)


# C_m acting trivially on Z/k: H^(n+1) is Z/g, g = gcd(m, k), in every
# positive degree (Brown, GTM 87, III.1), and Aut(Z/k) alone already acts
# on it through all of (Z/g)^x.  So the orbits are the elements of each
# order e | g: tau(g) of them, of sizes phi(e).  This counts Aut(A) and its
# action without running either.
@pytest.mark.parametrize(
    "m, k, n",
    [(m, k, 2) for m in range(2, 6) for k in range(2, 9)] + [(m, k, 3) for m in range(2, 5) for k in range(2, 9)],
)
def test_cyclic_orbits_match_the_closed_form(m, k, n):
    report = moduli_case_a(case_a(m, k, n=n))
    g = gcd(m, k)
    divisors = [e for e in range(1, g + 1) if g % e == 0]
    assert report.pi0 == len(divisors)
    assert sorted(o.size for o in report.orbit_decomposition.orbits) == sorted(totient(e) for e in divisors)


def extends_to_an_action(aut, table, generator_perms, size):
    """Whether permutations of the classes, one per generator of Aut(A),
    extend to an action: the product along any path from the identity
    gives the same permutation, and the whole obeys the composition
    table."""
    action = {aut.identity_index: tuple(range(size))}
    frontier = [aut.identity_index]
    while frontier:
        j = frontier.pop()
        for g, perm in zip(aut.generators, generator_perms):
            k = table[g][j]
            moved = tuple(perm[x] for x in action[j])
            if k not in action:
                action[k] = moved
                frontier.append(k)
            elif action[k] != moved:
                return False
    return all(
        tuple(action[i][action[j][x]] for x in range(size)) == action[table[i][j]]
        for i in range(aut.order)
        for j in range(aut.order)
    )


def test_action_check_catches_a_substituted_generator_permutation(monkeypatch):
    # Only the generators of Aut(A) are transported.  Substitute for one
    # generator's permutation another valid class permutation: one that
    # some other pair induces, or one that moves the zero class.  The
    # report is refused exactly when the generators' permutations, so
    # changed, no longer extend to an action of Aut(A), the law the
    # pairwise check of every transported pair used to test.  A
    # substitution that is another action of Aut(A) cannot be told from
    # the true one without transporting more pairs: on (C3, Z/3), Aut(A) =
    # C2 x C2 acts on H^3 = Z/3 through involutions, and any choice of
    # involutions for its two generators is an action.
    klein = TwoStageDim1N(2, GModule.trivial(FiniteGroup.from_cyclic_factors([2, 2]), FgAbGroup.cyclic(2)))
    for alg, induced_refusals in ((case_a(3, 3), 0), (klein, 6)):
        top = cohomology_range(alg.an, alg.n + 1)[-1]
        aut = pi_aut(alg)
        table = composition_table(aut)
        size = top.group.order
        induced = [act_on_kinvariants(alg, pair, top) for pair in aut.elements]
        moves_zero = tuple((x + 1) % size for x in range(size))
        refused = {"induced": 0, "moves zero": 0}
        for position, g in enumerate(aut.generators):
            target = aut.elements[g].key()
            for other in sorted(set(induced) - {induced[g]}) + [moves_zero]:
                perms = [induced[h] for h in aut.generators]
                perms[position] = other

                def substituted(algebra, pair, coh, other=other, target=target):
                    return other if pair.key() == target else act_on_kinvariants(algebra, pair, coh)

                monkeypatch.setattr(moduli, "act_on_kinvariants", substituted)
                if extends_to_an_action(aut, table, perms, size):
                    moduli_case_a(alg)
                else:
                    refused["moves zero" if other is moves_zero else "induced"] += 1
                    with pytest.raises(InternalConsistencyError):
                        moduli_case_a(alg)
                monkeypatch.undo()
        assert refused == {"induced": induced_refusals, "moves zero": len(aut.generators)}


def case_a_moduli_samples():
    return [
        path.stem
        for path in sorted(SAMPLES.glob("*.json"))
        if json.loads(path.read_text())["case"] == "A" and (SAMPLES / "golden" / f"{path.stem}.moduli.txt").exists()
    ]


@pytest.mark.parametrize("name", case_a_moduli_samples())
def test_burnside_count_matches_the_traversal(name):
    algebra, _ = parse_input((SAMPLES / f"{name}.json").read_text())
    aut = pi_aut(algebra)
    top = cohomology_range(algebra.an, algebra.n + 1)[-1]
    perms = [act_on_kinvariants(algebra, aut.elements[g], top) for g in aut.generators]
    images = _action_along_tree(aut, perms, top.group.strides)
    orbits = _orbits(top.classes(), perms, aut.order)
    fixed = _fixed_counts(images, top.group)
    assert sum(fixed) == len(orbits) * aut.order
    if top.group.order * aut.order <= 200_000:
        # every pair's fixed classes counted one by one
        full = {aut.identity_index: tuple(range(top.group.order))}
        for k, g, j in aut.tree:
            full[k] = tuple(perms[g][x] for x in full[j])
        assert fixed == [sum(1 for x, y in enumerate(full[k]) if x == y) for k in range(aut.order)]


@pytest.mark.parametrize(
    "factors",
    [(2, 2, 2), (2, 4), (4, 8), (3, 9), (2, 4, 4), (6,), (2, 2, 4, 8), (3, 3), (3, 3, 3), (5, 5), (2,) * 6, ()],
)
def test_fixed_count_matches_enumeration(factors):
    # random endomorphisms of Z/d_1 + ... + Z/d_r, invertible or not,
    # their fixed elements counted one by one; (Z/p)^r takes the F_p rank
    group = FgAbGroup.from_cyclic_factors(list(factors))
    factors = group.invariant_factors
    strides = group.strides
    rng = random.Random(11)
    for _ in range(50):
        # a generator of order d goes to an element of order dividing d
        images = [[rng.randrange(gcd(m, d)) * (m // gcd(m, d)) for m in factors] for d in factors]
        fixed = 0
        for x in itertools.product(*(range(d) for d in factors)):
            y = [sum(k * image[i] for k, image in zip(x, images)) % m for i, m in enumerate(factors)]
            fixed += list(x) == y
        positions = tuple(sum(c * s for c, s in zip(image, strides)) for image in images)
        assert _fixed_count(positions, group) == fixed
        assert _fixed_counts([positions], group) == [fixed]


@pytest.mark.parametrize("p, r", [(2, 20), (3, 6), (5, 4), (7, 3)])
def test_rank_route_matches_the_gcd_fold(p, r):
    # Endomorphisms of (Z/p)^r too large to enumerate: invertible ones,
    # from the identity by column operations, and singular ones, a column
    # a combination of the others; the gcd fold is the reference.
    group = FgAbGroup.from_cyclic_factors([p] * r)
    strides = group.strides
    rng = random.Random(r)
    cases = []
    for t in range(50):
        cols = [[int(i == j) for i in range(r)] for j in range(r)]
        for _ in range(rng.randrange(3 * r)):
            a, b, c = rng.randrange(r), rng.randrange(r), rng.randrange(1, p)
            if a != b:
                cols[a] = [(u + c * v) % p for u, v in zip(cols[a], cols[b])]
        if t % 2:
            a, b, c = rng.sample(range(r), 3)
            cols[a] = [(rng.randrange(p) * u + rng.randrange(p) * v) % p for u, v in zip(cols[b], cols[c])]
        cases.append(tuple(sum(x * s for x, s in zip(col, strides)) for col in cols))
    assert _fixed_counts(cases, group) == [_fixed_count(i, group) for i in cases]
    assert len(set(_fixed_counts(cases, group))) > 2


# (Z/2)^r acting trivially on (Z/2)^s: H^3 is the cubic part of
# F_2[x_1..x_r] tensored with F_2^s, with GL_r x GL_s acting by
# substitution; helpers.polynomial_orbit_sizes counts its orbits without
# the bar complex or the transport.
@pytest.mark.parametrize("r, s", [(1, 1), (2, 1), (2, 2), (3, 1), (2, 3)])
def test_orbits_match_the_polynomial_model(r, s):
    doc = {
        "case": "A",
        "n": 2,
        "group": {"cyclic_factors": [2] * r},
        "module": {"coefficients": {"cyclic_factors": [2] * s}, "action": "trivial"},
    }
    algebra, _ = parse_input(json.dumps(doc))
    report = moduli_case_a(algebra)
    sizes = polynomial_orbit_sizes(r, s, 3)
    assert report.pi0 == len(sizes)
    assert sorted(o.size for o in report.orbit_decomposition.orbits) == sizes


def test_coprime_orders_give_single_type():
    report = moduli_case_a(case_a(2, 3, n=3))
    assert report.pi0 == 1
    assert all(row.group.normal_form == (0, ()) for row in report.pi_rows)
    [block] = report.basepoints
    assert block.pi1.kernel.normal_form == (0, ())
    assert block.pi1.order == report.aut_order == 2


def test_zero_coefficients_leave_only_group_automorphisms():
    alg = TwoStageDim1N(2, GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.trivial()))
    report = moduli_case_a(alg)
    assert report.pi0 == 1
    assert report.basepoints[0].pi1.order == 2  # |Aut(Z/4)|
    assert report.basepoints[0].pi1.kernel.normal_form == (0, ())


def test_higher_dimension_rows():
    report = moduli_case_a(case_a(2, 2, n=3))
    rows = {row.index: row for row in report.pi_rows}
    assert set(rows) == {2, 3}
    assert rows[3].group.invariant_factors == (2,)  # derivations
    assert rows[2].group.invariant_factors == (2,)  # H^2
    assert rows[2].provenance == "H^2(A_1; A_n)"
    # pi_1 kernel is H^3
    assert report.basepoints[0].pi1.kernel_provenance == "H^3(A_1; A_n)"


def test_realization_tree_shape():
    report = moduli_case_a(case_a(2, 2))
    assert report.tree is not None
    lines = report.tree.splitlines()
    assert "stage 0" in lines[1]
    assert sum(1 for line in lines if "+--" in line) == report.pi0
    assert "(split)" in report.tree

    deeper = moduli_case_a(case_a(2, 2, n=3))
    assert "stage 0 -- stage 1" in deeper.tree


def test_case_a_relabel_invariance():
    alg = case_a(3, 3)
    report = moduli_case_a(alg)

    perm = (0, 2, 1)
    group = relabel(alg.a1, perm)
    action = [None] * group.order
    for g in range(group.order):
        action[perm[g]] = alg.an.action[g]
    relabeled = TwoStageDim1N(2, GModule(group, alg.an.base, action))
    other = moduli_case_a(relabeled)

    assert other.pi0 == report.pi0
    assert other.aut_order == report.aut_order
    assert sorted(o.size for o in other.orbit_decomposition.orbits) == sorted(
        o.size for o in report.orbit_decomposition.orbits
    )
    assert [r.group.normal_form for r in other.pi_rows] == [
        r.group.normal_form for r in report.pi_rows
    ]


def test_size_bound_propagates():
    with pytest.raises(SizeBoundError):
        moduli_case_a(case_a(3, 3), max_rank=5)


# -- dimensions (n, n+1) ----------------------------------------------------


def test_stable_report_z4_z2():
    report = moduli_case_b(TwoStageDimNN1(3, FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)))
    assert report.case == "B"
    assert report.pi0 == 1
    [pi2] = report.pi_rows
    assert pi2.group.invariant_factors == (2,)
    pointed, full = report.basepoints
    assert pointed.pi1.kernel.invariant_factors == (2,)
    assert pointed.pi1.order == 2
    assert full.pi1.order == 4
    assert report.aut_order == 2
    assert any("realizable" in note for note in report.notes)
    assert any("unique" in note for note in report.notes)


def test_stable_report_identity_q():
    z2 = FgAbGroup.cyclic(2)
    q = AbHom(z2.modulo(2), z2, IntMatrix.from_rows([[1]]))
    report = moduli_case_b(TwoStageDimNN1(3, z2, z2, q))
    assert report.pi_rows[0].group.invariant_factors == (2,)
    assert report.basepoints[0].pi1.order == 2
    assert report.aut_order == 1
    assert report.basepoints[1].pi1.order == 2


def test_stable_report_free_groups_symbolic():
    report = moduli_case_b(TwoStageDimNN1(3, FgAbGroup.free(1), FgAbGroup.free(1)))
    assert report.pi0 == 1
    assert report.pi_rows[0].group.normal_form == (1, ())  # Hom(Z, Z) = Z
    pointed, full = report.basepoints
    assert pointed.pi1.kernel.normal_form == (0, ())
    assert pointed.pi1.order == 1
    assert full.pi1.order is None
    assert report.aut_order is None
    assert report.aut_description == "GL_1(Z) x GL_1(Z)"


def test_stable_reports_always_connected():
    cases = [
        TwoStageDimNN1(3, FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)),
        TwoStageDimNN1(4, FgAbGroup.from_cyclic_factors([2, 4]), FgAbGroup.cyclic(2)),
        TwoStageDimNN1(2, FgAbGroup.cyclic(2), FgAbGroup.cyclic(4),
                       QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,), (1,)])),
        TwoStageDimNN1(3, FgAbGroup.free(2), FgAbGroup.cyclic(3)),
    ]
    for alg in cases:
        report = moduli_case_b(alg)
        assert report.pi0 == 1
        assert all(row.index == 2 for row in report.pi_rows)
        assert any("pi_i = 0 for i >= 3" in note for note in report.notes)


def test_stable_hom_ext_values():
    report = moduli_case_b(TwoStageDimNN1(3, FgAbGroup.cyclic(6), FgAbGroup.cyclic(4)))
    assert report.pi_rows[0].group.invariant_factors == (2,)  # Hom(Z/6, Z/4) = Z/2
    assert report.basepoints[0].pi1.kernel.invariant_factors == (2,)  # Ext too


def test_case_b_conjugated_q_gives_same_report():
    z4, z2 = FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)
    q = AbHom(z4.modulo(2), z2, IntMatrix.from_rows([[1]]))
    base = moduli_case_b(TwoStageDimNN1(3, z4, z2, q))
    for f, _ in abelian_automorphisms(z4):
        f_bar = AbHom(z4.modulo(2), z4.modulo(2), hom_inverse(f).matrix)
        for g, _ in abelian_automorphisms(z2):
            other = moduli_case_b(TwoStageDimNN1(3, z4, z2, g @ q @ f_bar))
            assert other.pi0 == base.pi0
            assert other.aut_order == base.aut_order
            assert [r.group.normal_form for r in other.pi_rows] == [
                r.group.normal_form for r in base.pi_rows
            ]
            assert other.basepoints[1].pi1.order == base.basepoints[1].pi1.order


# Inputs that hung, (C6, Z/2) and (C4, (Z/2)^2) on a non-diagonal relation
# basis, or took 23 s, (S3, Z/2), while cohomology kernels went through a
# Smith form over Z, and (C8, Z/2), which took 20 s while every cochain
# group had a dense Smith form of its own.  Closed forms: a cyclic group
# C_m acting trivially on M has H^0 = M, H^odd = M[m] and H^even = M/mM
# (Brown, GTM 87, III.1), so every degree is M when m is even and M has
# exponent 2.  H^k(S3; Z/2) restricts isomorphically to a Sylow
# 2-subgroup C2, so it is Z/2 in every degree.  Aut(A) fixes the zero class and acts transitively on the
# nonzero classes of H^3, so pi_0 = 2 in each.
@pytest.mark.parametrize(
    "group, coefficients, symbol",
    [
        ({"cyclic_factors": [6]}, {"cyclic_factors": [2]}, "C2"),
        ({"cyclic_factors": [4]}, {"generators": 2, "relations": [[-2, 0], [2, 2]]}, "C2 x C2"),
        ({"permutations": [[1, 0, 2], [0, 2, 1]]}, {"cyclic_factors": [2]}, "C2"),
        ({"cyclic_factors": [8]}, {"cyclic_factors": [2]}, "C2"),
    ],
    ids=["c6_z2", "c4_z2z2_rebased", "s3_z2", "c8_z2"],
)
def test_north_star_inputs_match_closed_forms(group, coefficients, symbol):
    doc = {"case": "A", "n": 2, "group": group, "module": {"coefficients": coefficients, "action": "trivial"}}
    algebra, _ = parse_input(json.dumps(doc))
    report = moduli_case_a(algebra)
    assert report.cohomology_table == tuple((k, symbol) for k in range(4))
    assert report.pi0 == 2
