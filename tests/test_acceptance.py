"""Acceptance gate: six criteria, one pass/fail line each.

Every test prints ``[criterion N] <label>: PASS/FAIL`` (visible with
``pytest -s``) and enforces its runtime budget, so a regression in either
correctness or speed fails the gate.  Expected values are frozen classical
facts or cross-checks between independent routes; nothing here is derived
from the implementation under test.
"""

import random
import time
from contextlib import contextmanager
from math import gcd

from helpers import composition_table, det_leibniz, inverse_index, module_structures, relabel

from twostage.abelian import FgAbGroup, ext_group, hom_group
from twostage.cohomology import (
    bar_complex,
    cohomology_range,
    oracle_cohomology,
)
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix, smith_normal_form
from twostage.moduli import moduli_case_a, moduli_case_b
from twostage.pialgebra import (
    TwoStageDim1N,
    TwoStageDimNN1,
    act_on_kinvariants,
    pi_aut,
)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget is {budget_seconds:.0f}s"
        )
        status = f"PASS ({elapsed:.2f}s)"
    finally:
        print(f"\n[criterion {number}] {label}: {status}")


def trivial_algebra(group_factors, base_factors, n=2):
    group = FiniteGroup.from_cyclic_factors(group_factors)
    base = FgAbGroup.from_cyclic_factors(base_factors)
    return TwoStageDim1N(n, GModule.trivial(group, base))


def relabel_module(module, perm):
    group = relabel(module.group, perm)
    action = [None] * group.order
    for g in range(group.order):
        action[perm[g]] = module.action[g]
    return GModule(group, module.base, action)


def identity_fixing_perm(rng, order):
    rest = list(range(1, order))
    rng.shuffle(rest)
    return tuple([0] + rest)


# -- criterion 1 ---------------------------------------------------------


def test_criterion_1_classical_cohomology_regression():
    with criterion(1, "classical cohomology regression", 30.0):
        mod2 = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2))
        ladder = cohomology_range(mod2, 5)
        for k in range(6):
            assert ladder[k].group.normal_form == (0, (2,)), f"H^{k} for Z/2"
            assert oracle_cohomology(mod2, k) == (2,), f"oracle H^{k} for Z/2"

        mod3 = GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(3))
        ladder = cohomology_range(mod3, 3)
        for k in range(4):
            assert ladder[k].group.normal_form == (0, (3,)), f"H^{k} for Z/3"
            assert oracle_cohomology(mod3, k) == (3,), f"oracle H^{k} for Z/3"


# -- criterion 2 ---------------------------------------------------------


def test_criterion_2_oracle_equivalence_sweep():
    with criterion(2, "oracle equivalence sweep", 120.0):
        compared = 0
        # every group of order at most 3 is cyclic
        groups = [FiniteGroup.from_cyclic_factors(f) for f in ([], [2], [3])]
        bases = [FgAbGroup.from_cyclic_factors(f) for f in ([], [2], [3])]
        for group in groups:
            for base in bases:
                for module in module_structures(group, base):
                    for k, h in enumerate(cohomology_range(module, 2)):
                        matrix_route = h.group.invariant_factors
                        enumerated = oracle_cohomology(module, k)
                        assert matrix_route == enumerated, (
                            group.order,
                            base.symbol(),
                            k,
                        )
                        compared += 1
        assert compared == 30  # 10 module structures, 3 degrees each

        two = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2))
        ladder = cohomology_range(two, 4)
        for k in (3, 4):
            assert ladder[k].group.invariant_factors == oracle_cohomology(two, k)


# -- criterion 3 ---------------------------------------------------------


def test_criterion_3_classic_2type_count():
    with criterion(3, "2-type count for (Z/2, Z/2 trivial, n=2)", 5.0):
        report = moduli_case_a(trivial_algebra([2], [2], n=2))
        assert report.pi0 == 2
        (pi2_row,) = report.pi_rows
        assert pi2_row.index == 2
        assert pi2_row.group.normal_form == (0, (2,))
        split = report.basepoints[0]
        assert "split" in split.label
        assert split.pi1.kernel.normal_form == (0, (2,))
        assert "H^2" in split.pi1.kernel_provenance
        assert split.pi1.quotient_order == 1
        assert split.pi1.order == 2


# -- criterion 4 ---------------------------------------------------------


def test_criterion_4_stable_moduli_report():
    with criterion(4, "stable report for (Z/4, Z/2, q=0, n=3)", 1.0):
        an = FgAbGroup.cyclic(4)
        an1 = FgAbGroup.cyclic(2)
        report = moduli_case_b(TwoStageDimNN1(3, an, an1, None))
        assert report.pi0 == 1
        (pi2_row,) = report.pi_rows
        assert pi2_row.index == 2
        assert pi2_row.group.normal_form == (0, (2,))  # Hom(Z/4, Z/2)
        pointed, full = report.basepoints
        assert "pointed" in pointed.label
        assert pointed.pi1.kernel.normal_form == (0, (2,))  # Ext(Z/4, Z/2)
        assert pointed.pi1.order == 2
        assert report.aut_order == 2
        assert full.pi1.order == 4
        assert full.pi1.quotient_order == report.aut_order


# -- criterion 5: six property suites ------------------------------------


def suite_snf_contract():
    rng = random.Random(501)
    cases = 0
    for _ in range(240):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(0, 6)
        bound = 99 if rng.random() < 0.2 else 9
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        m = IntMatrix.from_rows(data, cols=cols)
        dec = smith_normal_form(m)
        assert dec.u @ m @ dec.v == dec.s
        assert abs(det_leibniz(dec.u)) == 1
        assert abs(det_leibniz(dec.v)) == 1
        assert dec.u @ dec.u_inv == IntMatrix.identity(rows)
        for i in range(dec.s.rows):
            for j in range(dec.s.cols):
                if i != j:
                    assert dec.s[i, j] == 0
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        cases += 1
    return cases


def suite_differential_squares_to_zero():
    rng = random.Random(502)
    factor_pool = [[1], [2], [3], [4], [2, 2]]
    cases = 0
    for _ in range(200):
        if cases >= 200:
            break
        group = FiniteGroup.from_cyclic_factors(rng.choice(factor_pool))
        base = FgAbGroup.from_cyclic_factors(rng.choice(factor_pool))
        module = rng.choice(module_structures(group, base))
        kmax = rng.choice([2, 3]) if group.order <= 3 else 2
        cx = bar_complex(module, kmax)
        for k in range(len(cx.maps) - 1):
            assert (cx.maps[k + 1] @ cx.maps[k]).is_zero_map(), (
                group.order,
                base.symbol(),
                k,
            )
            cases += 1
    return cases


def suite_hom_ext_gcd():
    pairs = [(a, b) for a in range(2, 13) for b in range(2, 13)]
    random.Random(503).shuffle(pairs)
    cases = 0
    for a, b in pairs:
        za = FgAbGroup.cyclic(a)
        zb = FgAbGroup.cyclic(b)
        expected = gcd(a, b)
        assert hom_group(za, zb).order == expected, (a, b)
        cases += 1
        assert ext_group(za, zb).order == expected, (a, b)
        cases += 1
    return cases


def suite_orbit_stabilizer():
    rng = random.Random(504)
    pool = [
        ([2], [2], 2),
        ([2], [2], 3),
        ([3], [3], 2),
        ([3], [3], 3),
        ([2], [3], 2),
        ([3], [2], 2),
        ([4], [2], 2),
        ([4], [4], 2),
        ([2, 2], [2], 2),
        ([2], [4], 2),
        ([2], [2, 2], 2),
    ]
    cases = 0
    for _ in range(400):
        if cases >= 200:
            break
        gf, mf, n = rng.choice(pool)
        group = FiniteGroup.from_cyclic_factors(gf)
        if group.order > 2 and rng.random() < 0.5:
            group = relabel(group, identity_fixing_perm(rng, group.order))
        base = FgAbGroup.from_cyclic_factors(mf)
        module = rng.choice(module_structures(group, base))
        report = moduli_case_a(TwoStageDim1N(n, module))
        dec = report.orbit_decomposition
        assert sum(o.size for o in dec.orbits) == len(dec.classes)
        assert report.pi0 == len(dec.orbits)
        for orbit in dec.orbits:
            assert orbit.size * orbit.stabilizer_order == report.aut_order, (gf, mf, n)
            cases += 1
    return cases


def suite_relabel_invariance():
    rng = random.Random(505)
    factor_pool = [[2], [3], [4], [5], [2, 2]]
    cases = 0
    for _ in range(200):
        if cases >= 200:
            break
        group = FiniteGroup.from_cyclic_factors(rng.choice(factor_pool))
        base = FgAbGroup.from_cyclic_factors(rng.choice(factor_pool))
        module = rng.choice(module_structures(group, base))
        perm = identity_fixing_perm(rng, group.order)
        twin = relabel_module(module, perm)
        k = rng.randrange(0, 3)
        assert (
            cohomology_range(module, k)[k].group.normal_form
            == cohomology_range(twin, k)[k].group.normal_form
        ), (group.order, base.symbol(), k, perm)
        cases += 1
    return cases


def suite_action_laws():
    algebras = [
        trivial_algebra([3], [3], n=2),
        trivial_algebra([3], [3], n=3),
        trivial_algebra([4], [4], n=2),
        trivial_algebra([2, 2], [2], n=2),
        trivial_algebra([4], [2], n=2),
        trivial_algebra([5], [5], n=2),
        TwoStageDim1N(
            2,
            GModule(
                FiniteGroup.cyclic(2),
                FgAbGroup.cyclic(3),
                [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])],
            ),
        ),
    ]
    cases = 0
    for algebra in algebras:
        aut = pi_aut(algebra)
        coh = cohomology_range(algebra.an, algebra.n + 1)[-1]
        perms = [act_on_kinvariants(algebra, p, coh) for p in aut.elements]
        table = composition_table(aut)
        width = len(perms[0])
        ident = tuple(range(width))
        assert perms[aut.identity_index] == ident
        cases += 1
        for i in range(aut.order):
            inv = inverse_index(table, aut.identity_index, i)
            assert tuple(perms[i][perms[inv][x]] for x in range(width)) == ident
            assert perms[i][0] == 0  # the split class is fixed
            cases += 1
        for i in range(aut.order):
            for j in range(aut.order):
                composed = tuple(perms[i][perms[j][x]] for x in range(width))
                assert composed == perms[table[i][j]]
                cases += 1
    return cases


def test_criterion_5_property_suites():
    with criterion(5, "six property suites, 200+ cases each", 180.0):
        results = [
            ("snf contract", suite_snf_contract()),
            ("d after d is zero", suite_differential_squares_to_zero()),
            ("hom/ext gcd", suite_hom_ext_gcd()),
            ("orbit-stabilizer", suite_orbit_stabilizer()),
            ("relabeling invariance", suite_relabel_invariance()),
            ("action laws", suite_action_laws()),
        ]
        for name, cases in results:
            assert cases >= 200, f"suite '{name}' ran only {cases} cases"


# -- criterion 6 ---------------------------------------------------------


def test_criterion_6_coprime_vanishing():
    with criterion(6, "coprime orders: connected and rigid", 5.0):
        inputs = [
            ([2], [3], 2),
            ([3], [2], 2),
            ([2], [3], 3),
            ([4], [3], 2),
            ([2, 2], [3], 2),
        ]
        for gf, mf, n in inputs:
            report = moduli_case_a(trivial_algebra(gf, mf, n))
            assert report.pi0 == 1, (gf, mf, n)
            assert len(report.basepoints) == 1
            for row in report.pi_rows:
                assert row.group.normal_form == (0, ()), (gf, mf, n, row.index)
