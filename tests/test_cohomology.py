"""Group cohomology: classical values, pointwise cocycle identities, and
agreement between the matrix route and the enumeration oracle."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from twostage.abelian import FgAbGroup, _preimage_basis, hom_group, homology_at, kernel_subgroup
from twostage.cohomology import (
    Cocycle,
    Derivations,
    _differential_columns,
    bar_complex,
    cohomology_range,
    derivations,
    oracle_cohomology,
    _coboundary_stencil,
    _cocycle_search,
    _invariant_factors_by_counting,
    _PackedArithmetic,
)
from twostage.errors import SizeBoundError
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix

from helpers import (
    abelianization,
    cyclic_periodic_cohomology,
    divisibility_chains,
    module_structures,
    monomials,
    quaternion_group,
    reference_cocycle_filter,
    reference_congruence_kernel,
    reference_differential_columns,
    reference_oracle_cohomology,
    reference_slot_values,
    relabel,
)


def cyclic_module(group, size, multiplier):
    """Z/size with a chosen generator of the group acting by multiplication.

    The action list is built by powering the multiplier along element
    indices, which is valid for cyclic groups with their standard table.
    """
    mats = [IntMatrix.from_rows([[pow(multiplier, g, size)]]) for g in range(group.order)]
    return GModule(group, FgAbGroup.cyclic(size), mats)


def s3():
    return FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)])


def relabel_module(module, perm):
    group = relabel(module.group, perm)
    action = [None] * group.order
    for g in range(group.order):
        action[perm[g]] = module.action[g]
    return GModule(group, module.base, action)


# -- frozen classical values --------------------------------------------


def test_z2_with_z2_coefficients_all_degrees():
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2))
    for h in cohomology_range(m, 5):
        assert h.group.invariant_factors == (2,)


def test_z3_with_z3_coefficients():
    m = GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(3))
    for h in cohomology_range(m, 3):
        assert h.group.invariant_factors == (3,)


def test_coprime_coefficients_vanish_above_degree_zero():
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(3))
    ladder = cohomology_range(m, 4)
    assert ladder[0].group.invariant_factors == (3,)
    for h in ladder[1:]:
        assert h.group.normal_form == (0, ())


@pytest.mark.parametrize(
    "group, dims",
    [
        (FiniteGroup.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)]), (1, 2, 3, 4)),
        (quaternion_group(), (1, 2, 2, 1)),
    ],
    ids=["d4", "q8"],
)
def test_order_eight_groups_with_z2_coefficients(group, dims):
    """H^k(G; F_2) has dimension k + 1 for the dihedral group of order 8
    and 1, 2, 2, 1, repeating with period 4, for the quaternion group
    (Brown, GTM 87, VI.9; Adem and Milgram, IV.2)."""
    assert group.order == 8
    m = GModule.trivial(group, FgAbGroup.cyclic(2))
    got = [h.group.invariant_factors for h in cohomology_range(m, 3)]
    assert got == [(2,) * d for d in dims]


def test_sign_action_kills_cohomology_but_not_derivations():
    m = cyclic_module(FiniteGroup.cyclic(2), 3, -1)
    for h in cohomology_range(m, 2):
        assert h.group.normal_form == (0, ())
    der = derivations(m)
    assert der.group.invariant_factors == (3,)


def test_twisted_z4_coefficients():
    # multiplication by 3 is the sign action on Z/4
    m = cyclic_module(FiniteGroup.cyclic(2), 4, 3)
    for h in cohomology_range(m, 2):
        assert h.group.invariant_factors == (2,)


def test_degree_zero_is_fixed_submodule():
    cases = [
        GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(2)),
        cyclic_module(FiniteGroup.cyclic(2), 4, 3),
        cyclic_module(FiniteGroup.cyclic(3), 7, 2),
        GModule(
            FiniteGroup.from_cyclic_factors([2, 2]),
            FgAbGroup.from_cyclic_factors([2, 2]),
            [
                IntMatrix.identity(2),
                IntMatrix.from_rows([[0, 1], [1, 0]]),
                IntMatrix.from_rows([[0, 1], [1, 0]]),
                IntMatrix.identity(2),
            ],
        ),
    ]
    for m in cases:
        fixed = 0
        for vec in m.base.elements():
            if all(m.base.reduce(m.act(g, vec)) == m.base.reduce(vec) for g in range(m.group.order)):
                fixed += 1
        assert cohomology_range(m, 0)[0].group.order == fixed


# -- complex structure ----------------------------------------------------


def test_bar_complex_group_sizes():
    m = GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(2))
    complex_ = bar_complex(m, 2)
    assert [g.order for g in complex_.groups] == [2, 4, 16]


def test_bar_complex_trivial_group():
    m = GModule.trivial(FiniteGroup.trivial(), FgAbGroup.cyclic(5))
    complex_ = bar_complex(m, 3)
    assert complex_.groups[0].order == 5
    assert all(g.normal_form == (0, ()) for g in complex_.groups[1:])
    assert [h.group.order for h in cohomology_range(m, 3)] == [5, 1, 1, 1]


def test_differentials_compose_to_zero_on_random_modules():
    rng = random.Random(20260814)
    groups = [
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.from_cyclic_factors([2, 2]),
        s3(),
    ]
    bases = [FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), FgAbGroup.from_cyclic_factors([2, 2])]
    for _ in range(25):
        group = rng.choice(groups)
        base = rng.choice(bases)
        m = GModule.trivial(group, base)
        complex_ = bar_complex(m, 3)
        for k in range(len(complex_.maps) - 1):
            composite = complex_.maps[k + 1].matrix @ complex_.maps[k].matrix
            for j in range(composite.cols):
                assert complex_.groups[k + 2].is_zero(composite.column(j))


def test_differentials_are_built_as_sorted_sparse_columns():
    # C2 on Z/2, trivially: d0 m = g.m - m = 0 and d1 f (g, g) = g.f(g) - f(1) + f(g) = 2 f(g).
    complex_ = bar_complex(GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2)), 2)
    assert [f.columns for f in complex_.maps] == [((),), (((0, 2),),)]
    assert [f.matrix.to_rows() for f in complex_.maps] == [[[0]], [[2]]]
    for f in bar_complex(GModule.trivial(s3(), FgAbGroup.from_cyclic_factors([2, 2])), 3).maps:
        assert f.columns == f.matrix.nonzero_columns()


def test_row_order_stencil_matches_the_dict_and_sort_reference():
    # Column blocks come off the row index by mixed-radix arithmetic and
    # entries are appended in row order; the reference adds every term at
    # its tuple's index and sorts each column.
    for module, _ in oracle_pool():
        for k in range(5):
            assert _differential_columns(module, k) == reference_differential_columns(module, k), (module, k)


def test_bar_complex_size_bound():
    m = GModule.trivial(FiniteGroup.cyclic(5), FgAbGroup.cyclic(2))
    with pytest.raises(SizeBoundError):
        bar_complex(m, 6, max_rank=100)


# -- representatives are honest cocycles ----------------------------------


def pointwise_two_cocycle_holds(module, z):
    group, base = module.group, module.base
    n = group.order
    for g in range(n):
        for h in range(n):
            for k in range(n):
                lhs = list(module.act(g, z.value((h, k))))
                gh, hk = group.table[g][h], group.table[h][k]
                total = [
                    a - b + c - d
                    for a, b, c, d in zip(
                        lhs, z.value((gh, k)), z.value((g, hk)), z.value((g, h))
                    )
                ]
                if not base.is_zero(total):
                    return False
    return True


def test_degree_two_representatives_satisfy_cocycle_identity():
    cases = [
        GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(2)),
        GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2)),
        cyclic_module(FiniteGroup.cyclic(2), 4, 3),
        GModule.trivial(s3(), FgAbGroup.cyclic(6)),
    ]
    for m in cases:
        H = cohomology_range(m, 2)[2]
        for rep in H.representatives:
            assert H.is_cocycle(rep)
            assert pointwise_two_cocycle_holds(m, rep)


def test_derivation_representatives_satisfy_crossed_homomorphism_law():
    cases = [
        cyclic_module(FiniteGroup.cyclic(2), 3, -1),
        GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(2)),
        cyclic_module(FiniteGroup.cyclic(3), 7, 2),
    ]
    for m in cases:
        der = derivations(m)
        for d in der.representatives:
            for g in range(m.group.order):
                for h in range(m.group.order):
                    gh = m.group.table[g][h]
                    rhs = [a + b for a, b in zip(m.act(g, d.value((h,))), d.value((g,)))]
                    diff = [a - b for a, b in zip(d.value((gh,)), rhs)]
                    assert m.base.is_zero(diff)


def test_trivial_action_derivations_are_homs_from_group():
    m = GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(2))
    der = derivations(m)
    homs = hom_group(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2))
    assert der.group.normal_form == homs.normal_form


# -- class arithmetic ------------------------------------------------------


def test_class_of_inverts_representatives():
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(4))
    H = cohomology_range(m, 2)[2]
    for coords in H.classes():
        assert H.class_of(H.cocycle_at(coords)) == coords


def test_class_of_is_additive_and_kills_scaled_classes():
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2))
    H = cohomology_range(m, 2)[2]
    rep = H.representatives[0]
    assert H.class_of(rep) == (1,)
    assert H.class_of(Cocycle(m, 2, [a + b for a, b in zip(rep.vector, rep.vector)])) == (0,)


def test_class_of_rejects_non_cocycles():
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(4))
    H = cohomology_range(m, 1)[1]
    bad = Cocycle(m, 1, [1])
    assert not H.is_cocycle(bad)
    with pytest.raises(ValueError):
        H.class_of(bad)


def test_cocycle_value_normalization_and_validation():
    m = GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(5))
    z = Cocycle(m, 2, [1, 2, 3, 4])
    assert z.value((0, 1)) == (0,)
    assert z.value((1, 0)) == (0,)
    assert z.value((1, 2)) == (2,)
    assert [z.value((a, b)) for a in (1, 2) for b in (1, 2)] == [(1,), (2,), (3,), (4,)]
    with pytest.raises(ValueError):
        z.value((1,))
    with pytest.raises(ValueError):
        z.value((1, 3))
    with pytest.raises(ValueError):
        Cocycle(m, 2, [1, 2, 3])


def test_h1_with_trivial_action_is_homs_from_abelianization():
    pairs = [
        (s3(), FgAbGroup.cyclic(6)),
        (s3(), FgAbGroup.cyclic(3)),
        (FiniteGroup.from_cyclic_factors([2, 2]), FgAbGroup.cyclic(2)),
        (FiniteGroup.cyclic(6), FgAbGroup.cyclic(4)),
    ]
    for group, base in pairs:
        H = cohomology_range(GModule.trivial(group, base), 1)[1]
        expected = hom_group(abelianization(group), base)
        assert H.group.normal_form == expected.normal_form


# -- oracle agreement ------------------------------------------------------


def oracle_pool():
    v4_swap = GModule(
        FiniteGroup.from_cyclic_factors([2, 2]),
        FgAbGroup.from_cyclic_factors([2, 2]),
        [
            IntMatrix.identity(2),
            IntMatrix.from_rows([[0, 1], [1, 0]]),
            IntMatrix.from_rows([[0, 1], [1, 0]]),
            IntMatrix.identity(2),
        ],
    )
    c3_on_klein = GModule(
        FiniteGroup.cyclic(3),
        FgAbGroup.from_cyclic_factors([2, 2]),
        [
            IntMatrix.identity(2),
            IntMatrix.from_rows([[0, 1], [1, 1]]),
            IntMatrix.from_rows([[1, 1], [1, 0]]),
        ],
    )
    # coefficients with two coordinates of different or odd moduli
    c2_swap_z3z3 = GModule(
        FiniteGroup.cyclic(2),
        FgAbGroup.from_cyclic_factors([3, 3]),
        [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])],
    )
    c2_on_z2z4 = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.from_cyclic_factors([2, 4]))
    return [
        (GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2)), 3),
        (GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(3)), 2),
        (GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(3)), 2),
        (cyclic_module(FiniteGroup.cyclic(2), 3, -1), 2),
        (cyclic_module(FiniteGroup.cyclic(2), 4, 3), 2),
        (cyclic_module(FiniteGroup.cyclic(3), 4, 1), 2),
        (GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(2)), 2),
        (v4_swap, 1),
        (c3_on_klein, 2),
        (c2_swap_z3z3, 2),
        (c2_on_z2z4, 2),
    ]


# -- the F_p rank route against the Smith route -----------------------------

# Coefficients of prime exponent, every degree's type by F_p ranks; the
# (Z/2)^2 of c6_z2z2_rebased on its non-diagonal relation basis, and M = 0.
ELEMENTARY_COEFFICIENTS = [
    FgAbGroup.cyclic(2),
    FgAbGroup.cyclic(3),
    FgAbGroup(IntMatrix.from_columns([[-2, 0], [2, 2]])),
    FgAbGroup.trivial(),
]
ELEMENTARY_GROUPS = [
    *[FiniteGroup.cyclic(m) for m in range(2, 9)],
    FiniteGroup.from_cyclic_factors([2, 2]),
    FiniteGroup.from_cyclic_factors([2, 2, 2]),
    s3(),
]


def elementary_modules():
    trivial = [GModule.trivial(g, m) for g in ELEMENTARY_GROUPS for m in ELEMENTARY_COEFFICIENTS]
    klein = FgAbGroup.from_cyclic_factors([2, 2])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    order_three = IntMatrix.from_rows([[0, 1], [1, 1]])
    acting = [
        cyclic_module(FiniteGroup.cyclic(2), 3, -1),
        GModule(FiniteGroup.cyclic(2), klein, [IntMatrix.identity(2), swap]),
        GModule(FiniteGroup.cyclic(3), klein, [IntMatrix.identity(2), order_three, order_three @ order_three]),
    ]
    return trivial + acting


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(elementary_modules()), st.integers(0, 4), st.randoms(use_true_random=False))
def test_rank_route_matches_the_subquotient_route(module, kmax, rng):
    # The Smith route's degree kmax has (|G|-1)^kmax base generators; past
    # a few hundred it takes seconds, and the closed-form tests below
    # reach degree 4 of C8 and C2^3 on the rank route alone.
    n = module.group.order
    assume((n - 1) ** kmax * module.base.ngens <= 625)
    module = relabel_module(module, [0, *rng.sample(range(1, n), n - 1)])
    ladder = cohomology_range(module, kmax)
    complex_ = bar_complex(module, kmax + 1)
    for k, h in enumerate(ladder):
        assert h._sub is None
        assert h.group.normal_form == homology_at(complex_, k).group.normal_form, (module, k)
    if kmax >= 1:
        der = kernel_subgroup(complex_.maps[1]).group
        assert ladder[1].cocycle_group().normal_form == der.normal_form
    # Reading coordinates builds the subquotient, checked against the ranks.
    assert len(ladder[kmax].classes()) == ladder[kmax].group.order


def test_kunneth_dimensions_of_elementary_abelian_groups():
    # H*((Z/2)^r; F_2) = F_2[x_1..x_r] with deg x_i = 1, so dim H^k counts
    # the monomials of degree k, C(k + r - 1, r - 1) of them.
    for r in (1, 2, 3):
        module = GModule.trivial(FiniteGroup.from_cyclic_factors([2] * r), FgAbGroup.cyclic(2))
        for k, h in enumerate(cohomology_range(module, 4)):
            dimension = len(monomials(r, k))
            assert dimension == math.comb(k + r - 1, r - 1)
            assert h.group.normal_form == (0, (2,) * dimension), (r, k)


def test_preimage_bases_match_the_congruence_reference():
    # Every d_k of the pool maps into a finite cochain group, so the
    # numerator of its kernel is a congruence lattice; the [C; I] route the
    # mod p reduction replaced gives it entry for entry.
    for module, kmax in oracle_pool():
        for h in cohomology_range(module, kmax):
            f, target = h.differential, h.differential.target
            want = reference_congruence_kernel([reference_slot_values(target, col) for col in f.columns], target._diag)
            assert _preimage_basis(f) == want, (module, h.degree)


def test_matrix_route_matches_enumeration_oracle():
    for module, kmax in oracle_pool():
        for k, h in enumerate(cohomology_range(module, kmax)):
            got = h.group
            want = oracle_cohomology(module, k)
            assert got.free_rank == 0
            assert got.invariant_factors == want, (module, k)


def test_oracle_normalized_and_unnormalized_agree():
    # The oracle enumerates normalized cochains only; the reference's
    # unnormalized enumeration (functions on all tuples) gives the same groups.
    m2 = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(2))
    neg = cyclic_module(FiniteGroup.cyclic(2), 3, -1)
    for module in (m2, neg):
        for k in range(3):
            assert oracle_cohomology(module, k) == reference_oracle_cohomology(module, k, normalized=False)


def test_oracle_size_bound():
    m = GModule.trivial(FiniteGroup.cyclic(4), FgAbGroup.cyclic(4))
    with pytest.raises(SizeBoundError):
        oracle_cohomology(m, 3, max_enumeration=1000)


def test_oracle_refuses_before_enumerating(monkeypatch):
    import itertools

    import twostage.cohomology

    def no_product(*args, **kwargs):
        raise AssertionError("enumeration started before the size check")

    monkeypatch.setattr(itertools, "product", no_product)
    monkeypatch.setattr(twostage.cohomology, "_cocycle_search", no_product)
    monkeypatch.setattr(twostage.cohomology, "_coboundary_stencil", no_product)
    m = GModule.trivial(FiniteGroup.cyclic(3), FgAbGroup.cyclic(2))
    with pytest.raises(SizeBoundError) as info:
        oracle_cohomology(m, 12, max_enumeration=2 ** 20)
    assert info.value.requested == 2 ** (2 ** 12)
    # Degree 1 of the trivial group has one cochain, but 5 in degree 0.
    trivial = GModule.trivial(FiniteGroup.trivial(), FgAbGroup.cyclic(5))
    with pytest.raises(SizeBoundError) as info:
        oracle_cohomology(trivial, 1, max_enumeration=3)
    assert info.value.requested == 5


def test_cocycle_search_lists_the_full_products_cocycles_in_order():
    for module, kmax in oracle_pool():
        group, base = module.group, module.base
        act = [base.element_map(images) for images in module.canonical_action]
        for k in range(kmax + 1):
            arith = _PackedArithmetic(base.invariant_factors, k + 2)
            checks = _coboundary_stencil(group.table, k, act, arith)
            args = (base.order, (group.order - 1) ** k, checks, arith.decode)
            assert _cocycle_search(*args) == reference_cocycle_filter(*args), (module, k)


def test_cocycle_search_runs_without_recursion():
    # With M = 0 every prefix passes, so the search goes all the way down
    # (C8, degree 4): 7^4 = 2401 slots.
    zero = GModule.trivial(FiniteGroup.cyclic(8), FgAbGroup.trivial())
    for k in (3, 4):
        assert oracle_cohomology(zero, k) == ()
    # The trivial group has no normalized slots above degree 0: its one
    # cochain there is the empty one.
    trivial = GModule.trivial(FiniteGroup.trivial(), FgAbGroup.cyclic(5))
    for k in range(3):
        want = (5,) if k == 0 else ()
        assert oracle_cohomology(trivial, k) == want
        assert reference_oracle_cohomology(trivial, k) == want
        assert reference_oracle_cohomology(trivial, k, normalized=False) == want


@pytest.mark.parametrize(
    "group,k",
    [
        (s3(), 2),
        (FiniteGroup.cyclic(6), 2),
        (FiniteGroup.from_cyclic_factors([2, 2]), 3),
    ],
    ids=["s3_degree2", "c6_degree2", "c2c2_degree3"],
)
def test_oracle_past_the_full_products_reach(group, k):
    # 2^25, 2^25 and 2^27 cochains: far more than the full product could
    # list, but the search only extends prefixes that pass their rows.
    module = GModule.trivial(group, FgAbGroup.cyclic(2))
    count = 2 ** ((group.order - 1) ** k)
    with pytest.raises(SizeBoundError):
        oracle_cohomology(module, k)
    want = cohomology_range(module, k)[k].group
    assert oracle_cohomology(module, k, max_enumeration=count) == want.invariant_factors


# The dict-based reference is slow on large unnormalized enumerations
# (about a minute for 4^9 cochains on a shared 2-core VM), so it runs
# unnormalized only up to this many cochains.
REFERENCE_UNNORMALIZED_LIMIT = 2 ** 10


def test_oracle_matches_reference_oracle():
    # The oracle's normalized cochains against the reference's normalized
    # and, where it is small enough, unnormalized enumeration.
    for module, kmax in oracle_pool():
        for k in range(kmax + 1):
            got = oracle_cohomology(module, k)
            assert got == reference_oracle_cohomology(module, k), (module, k)
            if module.base.order ** (module.group.order ** k) <= REFERENCE_UNNORMALIZED_LIMIT:
                assert got == reference_oracle_cohomology(module, k, normalized=False), (module, k)


@pytest.mark.parametrize(
    "group,base,k,bound",
    [
        (FiniteGroup.cyclic(4), FgAbGroup.cyclic(4), 3, 1000),
        (FiniteGroup.cyclic(3), FgAbGroup.cyclic(2), 12, 2 ** 20),
        (FiniteGroup.trivial(), FgAbGroup.cyclic(5), 1, 3),
    ],
    ids=["c4_z4_degree3", "c3_z2_degree12", "trivial_z5_degree1"],
)
def test_oracle_refuses_like_the_reference(group, base, k, bound):
    m = GModule.trivial(group, base)
    with pytest.raises(SizeBoundError) as info:
        oracle_cohomology(m, k, max_enumeration=bound)
    with pytest.raises(SizeBoundError) as reference:
        reference_oracle_cohomology(m, k, max_enumeration=bound)
    assert info.value.requested == reference.value.requested
    assert info.value.bound == reference.value.bound == bound


def test_coboundary_stencil_matches_the_definition():
    # The oracle's action lists, the element maps of the canonical action,
    # match lift/act/reduce element by element, and each stencil row,
    # summed over a random normalized cochain and decoded, is df(s)
    # computed straight from the definition on lifted coordinates:
    # s0.f(s1..) + sum_i (-1)^(i+1) f(..s_i s_(i+1)..) + (-1)^(deg+1) f(..s_(deg-1)).
    rng = random.Random(8)
    for module, kmax in oracle_pool():
        group, base = module.group, module.base
        n = group.order
        domain = range(1, n)
        elems = base.element_coords()
        position = {e: i for i, e in enumerate(elems)}
        act = [[position[base.reduce(module.act(g, base.lift(e)))] for e in elems] for g in range(n)]
        assert [list(base.element_map(images)) for images in module.canonical_action] == act
        arith = _PackedArithmetic(base.invariant_factors, kmax + 2)
        zero = [0] * base.ngens
        for deg in range(kmax + 1):
            rows = _coboundary_stencil(group.table, deg, act, arith)
            slots = list(itertools.product(domain, repeat=deg))
            for _ in range(3):
                f = [rng.randrange(len(elems)) for _ in slots]
                lifted = {t: base.lift(elems[i]) for t, i in zip(slots, f)}

                def value(t):
                    return zero if 0 in t else lifted[t]

                for s, row in zip(itertools.product(domain, repeat=deg + 1), rows):
                    terms = [(1, module.act(s[0], value(s[1:])))]
                    for i in range(deg):
                        merged = group.table[s[i]][s[i + 1]]
                        terms.append(((-1) ** (i + 1), value(s[:i] + (merged,) + s[i + 2 :])))
                    terms.append(((-1) ** (deg + 1), value(s[:-1])))
                    want = base.reduce([sum(c * v[j] for c, v in terms) for j in range(base.ngens)])
                    got = arith.decode(sum(table[f[slot]] for table, slot in row))
                    assert elems[got] == want, (module, deg, s)


def test_oracle_on_large_coefficients_matches_periodic_closed_form():
    # C2 acting trivially on M = Z/4096, by the periodic resolution:
    # H^0 = M^G = M, H^(2i) = M^G/NM = M/2M and H^(2i+1) = ker N/(g-1)M
    # = M[2].  An |M| x |M| addition table would have 2^24 cells.
    m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(4096))
    assert [oracle_cohomology(m, k) for k in range(4)] == [(4096,), (2,), (2,), (2,)]


# (order of the cyclic group, coefficient moduli, matrix of the generator)
PERIODIC_CASES = [
    *[(m, [2], [[1]]) for m in range(2, 9)],
    *[(m, [3], [[1]]) for m in (3, 6, 8, 9)],
    *[(m, [3], [[-1]]) for m in (2, 4, 6)],
    # Z/p with p dividing m or not, acting trivially or by a unit of order m
    *[(m, [5], [[1]]) for m in (2, 4, 5)],
    (4, [5], [[2]]),
    *[(m, [7], [[1]]) for m in (3, 7)],
    (3, [7], [[2]]),
    *[(m, [4], [[-1]]) for m in (2, 4, 6, 8)],
    (8, [4], [[1]]),
    *[(m, [2, 2], [[0, 1], [1, 0]]) for m in (2, 4, 6, 8)],
    # C4 through C2 on Z/2 x Z/4, where H^odd and H^even differ
    (4, [2, 4], [[1, 0], [2, 1]]),
    (4, [2, 4], [[1, 1], [0, 1]]),
]


@pytest.mark.parametrize(
    "order,moduli,generator", PERIODIC_CASES, ids=[f"C{m} on {d} by {g}" for m, d, g in PERIODIC_CASES]
)
def test_cyclic_groups_match_the_periodic_resolution(order, moduli, generator):
    # g^i acts by the i-th power of the generator's matrix; C_m's table
    # multiplies element indices mod m
    power = [IntMatrix.identity(len(moduli))]
    for _ in range(order - 1):
        power.append(IntMatrix.from_rows(generator) @ power[-1])
    module = GModule(FiniteGroup.cyclic(order), FgAbGroup.from_cyclic_factors(moduli), power)
    got = [h.group.invariant_factors for h in cohomology_range(module, 3)]
    assert got == cyclic_periodic_cohomology(order, moduli, generator, 3)


def test_periodic_resolution_oracle_closed_forms():
    # C2 on Z/4 by negation: M^G = M[2], NM = 0, ker N = M, (g-1)M = 2M
    assert cyclic_periodic_cohomology(2, [4], [[-1]], 3) == [(2,), (2,), (2,), (2,)]
    # C4 swapping (Z/2)^2: N = 2(1 + g) = 0, and M^G = (g-1)M is the diagonal
    assert cyclic_periodic_cohomology(4, [2, 2], [[0, 1], [1, 0]], 2) == [(2,), (2,), (2,)]
    # C3 on Z/2, trivially: N = 3 is invertible, so H^k = 0 for k > 0
    assert cyclic_periodic_cohomology(3, [2], [[1]], 3) == [(2,), (), (), ()]
    # C4 on Z/2 x Z/4 by (x, y) -> (x, y + 2x): N = 2(1 + g) = 0, M^G = 0 x Z/4
    # and (g-1)M = 0 x 2Z/4, so H^1 = (Z/2)^2 but H^2 = Z/4
    assert cyclic_periodic_cohomology(4, [2, 4], [[1, 0], [2, 1]], 2) == [(4,), (2, 2), (4,)]


def test_counting_adds_linearly_in_the_group_order():
    # Z/2^16: one times-2 map is 2^16 additions; multiplying every element
    # by 2 again for each of the 16 kernel counts would be 2^20.
    order = 2 ** 16
    calls = 0

    def add(a, b):
        nonlocal calls
        calls += 1
        return (a + b) % order

    assert _invariant_factors_by_counting(list(range(order)), add, 0) == (order,)
    assert calls <= 2 * order


def test_counting_reads_every_divisibility_chain():
    # Each chain's group, its elements as coordinate tuples added
    # coordinatewise, counted back to the same invariant factors.
    for chain in divisibility_chains(64):
        elements = list(itertools.product(*(range(d) for d in chain)))

        def add(a, b):
            return tuple((x + y) % d for x, y, d in zip(a, b, chain))

        assert _invariant_factors_by_counting(elements, add, elements[0]) == chain


def test_matrix_route_matches_oracle_on_order_four_groups():
    modules = [
        module
        for group in (FiniteGroup.cyclic(4), FiniteGroup.from_cyclic_factors([2, 2]))
        for size in (2, 3)
        for module in module_structures(group, FgAbGroup.cyclic(size))
    ]
    on_z4 = module_structures(FiniteGroup.cyclic(4), FgAbGroup.cyclic(4))
    # one action each on Z/2; C4 has 2 on Z/3 and on Z/4, C2 x C2 has 4 on Z/3
    assert len(modules) == 8 and len(on_z4) == 2
    for module in modules + on_z4:
        for k, h in enumerate(cohomology_range(module, 2)):
            assert h.group.invariant_factors == oracle_cohomology(module, k), (module, k)


# -- invariance ------------------------------------------------------------


def test_cohomology_invariant_under_relabeling():
    c4 = FiniteGroup.cyclic(4)
    m = GModule.trivial(c4, FgAbGroup.cyclic(2))
    perm = (0, 3, 2, 1)
    m_rel = relabel_module(m, perm)
    assert _normal_forms(m, 3) == _normal_forms(m_rel, 3)

    tw = cyclic_module(FiniteGroup.cyclic(3), 7, 2)
    tw_rel = relabel_module(tw, (0, 2, 1))
    assert _normal_forms(tw, 2) == _normal_forms(tw_rel, 2)


def _normal_forms(module, kmax):
    return [h.group.normal_form for h in cohomology_range(module, kmax)]


def test_cocycles_off_the_ladder_match_kernel_subgroup():
    # Z^k from H^k's numerator is the kernel of d_k computed afresh: the
    # Hermite basis is unique, so group and representatives agree.
    for module, kmax in oracle_pool():
        for h in cohomology_range(module, kmax):
            got = h.cocycles()
            want = kernel_subgroup(h.differential)
            assert got.group.same_presentation(want.group), (module, h.degree)
            assert got.generator_representatives() == want.generator_representatives()


def test_derivations_from_a_ladder_differential_match_derivations():
    # derivations reads Z^1 off the ladder, as moduli_case_a does; the
    # kernel of d1 computed afresh, on the ladder's complex or on a
    # complex of its own, must come out the same.
    modules = [
        cyclic_module(FiniteGroup.cyclic(2), 3, 2),
        cyclic_module(FiniteGroup.cyclic(3), 3, 1),
        cyclic_module(FiniteGroup.cyclic(4), 5, 2),
        GModule.trivial(FiniteGroup.from_cyclic_factors([2, 2]), FgAbGroup.from_cyclic_factors([2, 2])),
    ]
    for m in modules:
        ladder = cohomology_range(m, 3)
        want = derivations(m)
        for sub in (kernel_subgroup(ladder[1].differential), kernel_subgroup(bar_complex(m, 2).maps[1])):
            got = Derivations(m, sub)
            assert got.group.same_presentation(want.group)
            assert [z.vector for z in got.representatives] == [z.vector for z in want.representatives]
