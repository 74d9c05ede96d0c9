"""Two-stage data validation, automorphism pairs, and the action on
k-invariant classes."""

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from twostage import pialgebra
from twostage.abelian import AbHom, FgAbGroup, hom_group
from twostage.cli import parse_input
from twostage.cohomology import Cocycle, cohomology_range
from twostage.errors import InternalConsistencyError, SizeBoundError, ValidationError
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix
from twostage.pialgebra import (
    AutPairA,
    AutPairB,
    PiAut,
    QuadraticMap,
    SymbolicAut,
    TwoStageDim1N,
    TwoStageDimNN1,
    abelian_automorphisms,
    act_on_kinvariants,
    pi_aut,
)

from helpers import (
    aut_order,
    composition_table,
    divisibility_chains,
    element_map,
    element_maps,
    hom_equals,
    hom_inverse,
    inverse_index,
    random_unimodular,
    reference_abelian_automorphisms,
    reference_act_on_kinvariants,
    reference_cross_effect_witness,
    reference_pi_aut,
    reference_transport_cocycle,
    transport_quadratic,
    violations_of,
)


def trivial_alg(group_order, base_order, n=2):
    g = FiniteGroup.cyclic(group_order)
    return TwoStageDim1N(n, GModule.trivial(g, FgAbGroup.cyclic(base_order)))


def negation_alg(n=2):
    c2 = FiniteGroup.cyclic(2)
    m = GModule(c2, FgAbGroup.cyclic(3), [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    return TwoStageDim1N(n, m)


# -- validation -------------------------------------------------------------


def test_dimension_must_be_at_least_two():
    g = FiniteGroup.cyclic(2)
    m = GModule.trivial(g, FgAbGroup.cyclic(2))
    with pytest.raises(ValidationError):
        TwoStageDim1N(1, m)
    with pytest.raises(ValidationError):
        TwoStageDimNN1(1, FgAbGroup.cyclic(2), FgAbGroup.cyclic(2))


def test_stable_q_must_factor_through_mod_two():
    z4 = FgAbGroup.cyclic(4)
    # reduction Z/4 -> Z/2 kills 2A, fine
    TwoStageDimNN1(3, z4, FgAbGroup.cyclic(2), AbHom(z4.modulo(2), FgAbGroup.cyclic(2), IntMatrix.from_rows([[1]])))
    # the "identity" Z/4 -> Z/4 does not kill 2A
    with pytest.raises(ValidationError):
        AbHom(z4.modulo(2), z4, IntMatrix.from_rows([[1]]))


def test_stable_q_source_and_target_checked():
    z4, z2 = FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)
    q_wrong = AbHom(z2.modulo(2), z2, IntMatrix.from_rows([[1]]))
    with pytest.raises(ValidationError):
        TwoStageDimNN1(3, z4, z2, q_wrong)
    with pytest.raises(ValidationError):
        TwoStageDimNN1(3, z4, z2, q="not a map")


def test_dimension_two_requires_finite_an():
    with pytest.raises(ValidationError):
        TwoStageDimNN1(2, FgAbGroup.free(1), FgAbGroup.cyclic(2))


def test_dimension_two_accepts_quadratic_table():
    q = QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,), (1,)])
    alg = TwoStageDimNN1(2, FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), q)
    assert not alg.q_is_zero()
    # q(1) = 1 forces psi_n1(1) = 1, so only the identity pair survives
    assert pi_aut(alg).order == 1


def test_non_bilinear_table_rejected_with_witness():
    with pytest.raises(ValidationError) as info:
        QuadraticMap(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2), [(0,), (1,), (0,), (0,)])
    violation = info.value.violations[0]
    assert violation.field == "q.values"
    assert "y" in violation.witness


@st.composite
def quadratic_tables(draw):
    """(A, B, table) with |A| <= 16 and |B| <= 8: a valid table (zero, a
    homomorphism, or a sum of products of two characters A -> Z/m times
    an element of B of order dividing m), or the same with one value
    changed."""
    source = FgAbGroup.from_cyclic_factors(draw(st.sampled_from(divisibility_chains(16))))
    target_chain = draw(st.sampled_from(divisibility_chains(8)))
    target = FgAbGroup.from_cyclic_factors(target_chain)
    coords = source.element_coords()

    def character(m):
        # a homomorphism A -> Z/m: e_i goes to a multiple of m / gcd(m, d_i)
        images = [draw(st.integers(0, m - 1)) * (m // math.gcd(m, d)) for d in source.invariant_factors]
        return [sum(c * a for c, a in zip(x, images)) % m for x in coords]

    table = [[0] * len(target_chain) for _ in coords]
    kind = draw(st.sampled_from(["zero", "homomorphism", "products"]))
    for l, m in enumerate(target_chain):
        if kind == "homomorphism":
            for x, value in zip(table, character(m)):
                x[l] += value
        elif kind == "products":
            for _ in range(draw(st.integers(1, 2))):
                scale = draw(st.integers(1, m - 1))
                for x, u, v in zip(table, character(m), character(m)):
                    x[l] = (x[l] + u * v * scale) % m
    if draw(st.booleans()):
        i = draw(st.integers(0, len(coords) - 1))
        table[i] = [draw(st.integers(0, m - 1)) for m in target_chain]
    return source, target, [target.lift(x) for x in table]


@settings(max_examples=80, deadline=None)
@given(quadratic_tables())
# On the trivial group only x2 = 0 sees q(0) != 0: there are no generators.
@example((FgAbGroup.trivial(), FgAbGroup.cyclic(2), [(1,)]))
def test_cross_effect_check_matches_the_check_over_every_triple(case):
    source, target, values = case
    try:
        QuadraticMap(source, target, values)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == (reference_cross_effect_witness(source, target, values) is None)


def test_quadratic_map_evaluation_and_zero():
    q = QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,), (1,)])
    assert q((0,)) == (0,)
    assert q((1,)) == (1,)
    assert q((3,)) == (1,)  # reduced mod 2 first
    z = QuadraticMap.zero(FgAbGroup.cyclic(6), FgAbGroup.cyclic(3))
    assert z.is_zero_map()


def test_quadratic_map_size_bound():
    # the module's bound, checked before a value is listed or read
    with pytest.raises(SizeBoundError) as exc:
        QuadraticMap.zero(FgAbGroup.cyclic(100), FgAbGroup.cyclic(2))
    assert (exc.value.requested, exc.value.bound) == (100, 64)
    with pytest.raises(SizeBoundError):
        QuadraticMap(FgAbGroup.cyclic(65), FgAbGroup.cyclic(2), [])
    assert QuadraticMap.zero(FgAbGroup.cyclic(64), FgAbGroup.cyclic(2)).is_zero_map()


def test_quadratic_value_table_shape_checked():
    with pytest.raises(ValidationError):
        QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,)])
    with pytest.raises(ValidationError):
        QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,), (1, 2)])


# -- abelian automorphisms --------------------------------------------------


def test_abelian_automorphism_counts():
    assert len(abelian_automorphisms(FgAbGroup.cyclic(2))) == 1
    assert len(abelian_automorphisms(FgAbGroup.cyclic(4))) == 2
    assert len(abelian_automorphisms(FgAbGroup.cyclic(5))) == 4
    # GL_2(F_2) has order 6
    assert len(abelian_automorphisms(FgAbGroup.from_cyclic_factors([2, 2]))) == 6
    with pytest.raises(SizeBoundError):
        abelian_automorphisms(FgAbGroup.free(1))


def test_hom_inverse_roundtrip():
    z5 = FgAbGroup.cyclic(5)
    double = AbHom(z5, z5, IntMatrix.from_rows([[2]]))
    inv = hom_inverse(double)
    assert hom_equals(inv @ double, AbHom.identity(z5))
    assert hom_equals(double @ inv, AbHom.identity(z5))


# -- pi_aut -----------------------------------------------------------------


def test_pi_aut_trivial_action_is_product():
    aut = pi_aut(trivial_alg(3, 3))
    assert aut.order == 4  # Aut(Z/3) x Aut(Z/3)


def test_pi_aut_negation_action():
    aut = pi_aut(negation_alg())
    assert aut.order == 2
    # both pairs have the identity group automorphism
    assert all(pair.phi == (0, 1) for pair in aut.elements)


def test_pi_aut_group_laws():
    for alg in (trivial_alg(3, 3), negation_alg(), trivial_alg(4, 2)):
        aut = pi_aut(alg)
        table = composition_table(aut)
        n = aut.order
        ident = aut.identity_index
        for i in range(n):
            row = [table[i][j] for j in range(n)]
            col = [table[j][i] for j in range(n)]
            assert sorted(row) == list(range(n))
            assert sorted(col) == list(range(n))
            j = inverse_index(table, ident, i)
            assert table[i][j] == ident
            assert table[j][i] == ident
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert table[table[i][j]][k] == table[i][table[j][k]]


def test_pi_aut_case_b_examples():
    z2 = FgAbGroup.cyclic(2)
    q_id = AbHom(z2.modulo(2), z2, IntMatrix.from_rows([[1]]))
    assert pi_aut(TwoStageDimNN1(3, z2, z2, q_id)).order == 1
    assert pi_aut(TwoStageDimNN1(3, FgAbGroup.cyclic(4), z2)).order == 2
    # q = reduction Z/4 -> Z/2: psi_n1 is forced to the identity anyway,
    # and any automorphism of Z/4 fixes the mod-2 reduction
    z4 = FgAbGroup.cyclic(4)
    q_red = AbHom(z4.modulo(2), z2, IntMatrix.from_rows([[1]]))
    assert pi_aut(TwoStageDimNN1(3, z4, z2, q_red)).order == 2


def test_pi_aut_symbolic_for_infinite_groups():
    aut = pi_aut(TwoStageDimNN1(3, FgAbGroup.free(1), FgAbGroup.free(1)))
    assert isinstance(aut, SymbolicAut)
    assert aut.description == "GL_1(Z) x GL_1(Z)"

    mixed = pi_aut(TwoStageDimNN1(3, FgAbGroup.free(1), FgAbGroup.cyclic(2)))
    assert isinstance(mixed, SymbolicAut)
    assert "GL_1(Z)" in mixed.description and "Aut(C2)" in mixed.description

    z = FgAbGroup.free(1)
    q = AbHom(z.modulo(2), FgAbGroup.cyclic(2), IntMatrix.from_rows([[1]]))
    sym = pi_aut(TwoStageDimNN1(3, z, FgAbGroup.cyclic(2), q))
    assert isinstance(sym, SymbolicAut)
    assert sym.description.startswith("stabilizer of q")


def test_case_b_conjugation_preserves_aut_order():
    # n >= 3: conjugate q by every automorphism pair of the stages
    z4, z2 = FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)
    q = AbHom(z4.modulo(2), z2, IntMatrix.from_rows([[1]]))
    base_order = pi_aut(TwoStageDimNN1(3, z4, z2, q)).order
    for f, _ in abelian_automorphisms(z4):
        f_bar = AbHom(z4.modulo(2), z4.modulo(2), hom_inverse(f).matrix)
        for g, _ in abelian_automorphisms(z2):
            q_conj = g @ q @ f_bar
            assert pi_aut(TwoStageDimNN1(3, z4, z2, q_conj)).order == base_order

    # n = 2: same through the element-table transport
    q2 = QuadraticMap(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [(0,), (1,)])
    alg2 = TwoStageDimNN1(2, FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), q2)
    base2 = pi_aut(alg2).order
    for f, _ in abelian_automorphisms(FgAbGroup.cyclic(2)):
        for g, _ in abelian_automorphisms(FgAbGroup.cyclic(4)):
            moved = transport_quadratic(q2, f, g)
            assert pi_aut(TwoStageDimNN1(2, FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), moved)).order == base2


# -- action on k-invariants -------------------------------------------------


def test_identity_pair_acts_trivially():
    alg = trivial_alg(3, 3)
    H = cohomology_range(alg.an, 3)[3]
    aut = pi_aut(alg)
    perm = act_on_kinvariants(alg, aut.elements[aut.identity_index], H)
    assert perm == tuple(range(H.group.order))


def test_action_fixes_zero_and_is_compatible_with_composition():
    for alg in (trivial_alg(3, 3), trivial_alg(2, 2), negation_alg()):
        H = cohomology_range(alg.an, alg.n + 1)[-1]
        aut = pi_aut(alg)
        perms = [act_on_kinvariants(alg, pair, H) for pair in aut.elements]
        table = composition_table(aut)
        size = H.group.order
        for p in perms:
            assert p[0] == 0
            assert sorted(p) == list(range(size))
        for i in range(aut.order):
            for j in range(aut.order):
                composed = tuple(perms[i][perms[j][x]] for x in range(size))
                assert composed == perms[table[i][j]]


def test_action_on_z3_matches_multiplication():
    # On H^3(Z/3; Z/3) the pair (phi: x -> 2x, psi = id) acts trivially
    # because the class scales by 2^{-2} = 1 mod 3, while (id, psi: m -> 2m)
    # scales classes by 2.
    alg = trivial_alg(3, 3)
    H = cohomology_range(alg.an, 3)[3]
    aut = pi_aut(alg)
    by_key = {pair.key(): pair for pair in aut.elements}
    ident_phi = (0, 1, 2)
    square_phi = (0, 2, 1)
    psi_id = ((1,),)
    psi_two = ((2,),)
    assert act_on_kinvariants(alg, by_key[(square_phi, psi_id)], H) == (0, 1, 2)
    assert act_on_kinvariants(alg, by_key[(ident_phi, psi_two)], H) == (0, 2, 1)


def test_action_requires_matching_module():
    alg = trivial_alg(2, 2)
    other = trivial_alg(2, 2)
    H_other = cohomology_range(other.an, 3)[3]
    aut = pi_aut(alg)
    with pytest.raises(ValueError):
        act_on_kinvariants(alg, aut.elements[0], H_other)


# -- pairs as permutations of elements ----------------------------------------


def klein_alg(base_factors, action=None):
    """C2 x C2 over a module; ``action`` maps an element to its matrix."""
    group = FiniteGroup.from_cyclic_factors([2, 2])
    base = FgAbGroup.from_cyclic_factors(base_factors)
    if action is None:
        return TwoStageDim1N(2, GModule.trivial(group, base))
    return TwoStageDim1N(2, GModule(group, base, [action(g) for g in range(group.order)]))


def swap_outside(h):
    """C2 x C2 on (Z/2)^2: the elements outside {0, h} swap the factors."""
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    return lambda g: IntMatrix.identity(2) if g in (0, h) else swap


def power_action_alg():
    """C4 on Z/5, the generator acting by 2, a faithful action."""
    return TwoStageDim1N(
        2, GModule(FiniteGroup.cyclic(4), FgAbGroup.cyclic(5), [IntMatrix.from_rows([[2**k]]) for k in range(4)])
    )


def swap_two_alg():
    """C2 on (Z/2)^3 swapping the first two factors; the centralizer of
    the swap in GL_3(F_2) is not abelian."""
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return TwoStageDim1N(
        2, GModule(FiniteGroup.cyclic(2), FgAbGroup.from_cyclic_factors([2, 2, 2]), [IntMatrix.identity(3), swap])
    )


def stable_alg(n, an, an1, q=None):
    an, an1 = FgAbGroup.from_cyclic_factors(an), FgAbGroup.from_cyclic_factors(an1)
    if q is not None:
        q = QuadraticMap(an, an1, q) if n == 2 else AbHom(an.modulo(2), an1, IntMatrix.from_rows(q))
    return TwoStageDimNN1(n, an, an1, q)


PAIR_CASES = {
    "A trivial C3 Z/3": lambda: trivial_alg(3, 3),
    "A trivial C4 Z/2": lambda: trivial_alg(4, 2),
    "A negation C2 Z/3": negation_alg,
    "A trivial C2xC2 (Z/2)^2": lambda: klein_alg([2, 2]),
    "A swap C2xC2 (Z/2)^2": lambda: klein_alg([2, 2], swap_outside(1)),
    "A power C4 Z/5": power_action_alg,
    "A swap C2 (Z/2)^3": swap_two_alg,
    "A trivial C2 Z/4xZ/2": lambda: TwoStageDim1N(
        2, GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.from_cyclic_factors([4, 2]))
    ),
    # a matrix that is not symmetric: (x, y) -> (x, y + 2x)
    "A shear C2 Z/2xZ/4": lambda: TwoStageDim1N(
        2,
        GModule(
            FiniteGroup.cyclic(2),
            FgAbGroup.from_cyclic_factors([2, 4]),
            [IntMatrix.identity(2), IntMatrix.from_rows([[1, 0], [2, 1]])],
        ),
    ),
    "B n=2 q on Z/2 into Z/4": lambda: stable_alg(2, [2], [4], [(0,), (1,)]),
    "B n=2 q = xy on (Z/2)^2": lambda: stable_alg(2, [2, 2], [2], [(0,), (0,), (0,), (1,)]),
    "B n=2 zero q on Z/4": lambda: stable_alg(2, [4], [2]),
    "B n=3 reduction Z/4 to Z/2": lambda: stable_alg(3, [4], [2], [[1]]),
    "B n=3 first coordinate of (Z/2)^3": lambda: stable_alg(3, [2, 2, 2], [2], [[1, 0, 0]]),
    "B n=3 identity on (Z/2)^2": lambda: stable_alg(3, [2, 2], [2, 2], [[1, 0], [0, 1]]),
}


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_pi_aut_matches_the_homomorphism_reference(name):
    alg = PAIR_CASES[name]()
    aut = pi_aut(alg)
    keys, table, identity = reference_pi_aut(alg)
    assert [p.key() for p in aut.elements] == keys
    assert composition_table(aut) == table
    assert aut.identity_index == identity


def element_positions(group, f):
    """Where f sends each element of a finite abelian group, found by
    lifting, mapping and reducing every element."""
    coords = group.element_coords()
    position = {c: i for i, c in enumerate(coords)}
    return [position[group.reduce(f(group.lift(c)))] for c in coords]


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_points_are_the_pairs_on_elements(name):
    alg = PAIR_CASES[name]()
    aut = pi_aut(alg)
    for pair in aut.elements:
        if isinstance(pair, AutPairA):
            first, second = list(pair.phi), element_positions(alg.an.base, pair.psi)
        else:
            first, second = element_positions(alg.an, pair.psi_n), element_positions(alg.an1, pair.psi_n1)
        assert pair.points == tuple(first + [len(first) + y for y in second])
        assert sorted(pair.points) == list(range(len(pair.points)))
    table = composition_table(aut)
    for i, p in enumerate(aut.elements):
        for j, s in enumerate(aut.elements):
            composite = tuple(p.points[x] for x in s.points)
            assert aut.elements[table[i][j]].points == composite


def test_pi_aut_composes_in_order_where_it_is_not_abelian():
    # Aut(C2 x C2) x GL_2(F_2) = S3 x S3, a centralizer in GL_3(F_2) and
    # the stabilizer GL_2(F_2) of q = identity: reading the table with the
    # composition order swapped gives a different table.
    for alg in (klein_alg([2, 2]), swap_two_alg(), stable_alg(3, [2, 2], [2, 2], [[1, 0], [0, 1]])):
        aut = pi_aut(alg)
        table = composition_table(aut)
        swapped = [[table[j][i] for j in range(aut.order)] for i in range(aut.order)]
        assert swapped != table
        assert table == reference_pi_aut(alg)[1]
    assert pi_aut(klein_alg([2, 2])).order == 36


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_schreier_tree_reaches_every_pair_from_a_greedy_generating_set(name):
    aut = pi_aut(PAIR_CASES[name]())
    table = composition_table(aut)
    everything = set(range(aut.order))
    # each generator is the first pair, in sorted order, outside the
    # subgroup the earlier ones generate, so each at least doubles it
    subgroup = {aut.identity_index}
    for g in aut.generators:
        assert g == min(everything - subgroup)
        subgroup.add(g)
        while True:
            grown = subgroup | {table[a][b] for a in subgroup for b in subgroup}
            if grown == subgroup:
                break
            subgroup = grown
    assert subgroup == everything
    assert 2 ** len(aut.generators) <= aut.order
    for g, step in zip(aut.generators, aut.step):
        assert list(step) == table[g]
    reached = {aut.identity_index}
    for k, g, j in aut.tree:
        assert j in reached and k not in reached
        assert table[aut.generators[g]][j] == k
        reached.add(k)
    assert reached == everything


@pytest.mark.parametrize(
    "group",
    [
        FgAbGroup.cyclic(12),
        FgAbGroup.from_cyclic_factors([4, 2]),
        FgAbGroup.from_cyclic_factors([2, 2, 2]),
        FgAbGroup(IntMatrix.from_rows([[-2, 0], [2, 2]])),
        FgAbGroup.cyclic(4096),
        FgAbGroup.from_cyclic_factors([2, 6]),
        FgAbGroup.from_cyclic_factors([3, 3]),
        FgAbGroup.from_cyclic_factors([4, 4]),
        FgAbGroup.from_cyclic_factors([2, 8]),
        FgAbGroup.from_cyclic_factors([2, 2, 4]),
        FgAbGroup(IntMatrix.from_columns([[4, 2], [0, 2]], rows=2)),
    ],
    ids=[
        "Z/12",
        "Z/4xZ/2",
        "(Z/2)^3",
        "relations [[-2, 0], [2, 2]]",
        "Z/4096",
        "Z/2xZ/6",
        "(Z/3)^2",
        "Z/4xZ/4",
        "Z/2xZ/8",
        "Z/2xZ/2xZ/4",
        "Z/2xZ/4 on relations [[4, 2], [0, 2]]",
    ],
)
def test_abelian_automorphisms_match_the_smith_form_filter(group):
    autos = abelian_automorphisms(group)
    expected = reference_abelian_automorphisms(group)
    # the keys set from the built images are those of the lifted matrices
    assert [f.canonical_key() for f, _ in autos] == [f.canonical_key() for f in expected]
    assert all(hom_equals(f, g) for (f, _), g in zip(autos, expected))
    # the element maps read off the built images are those of the lifted maps
    assert [points for _, points in autos] == element_maps([f for f, _ in autos])


def random_presentation(chain, ones, rng) -> FgAbGroup:
    """U diag(1, ..., 1, d_1, ..., d_k) V: new generators (U) and a new
    basis of the relation lattice (V), with ``ones`` generators of order 1."""
    n = ones + len(chain)
    diag = [1] * ones + list(chain)
    d = IntMatrix.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)
    group = FgAbGroup(random_unimodular(rng, n) @ d @ random_unimodular(rng, n))
    assert group.invariant_factors == chain
    return group


def lifted_hom(source, target, key):
    """The map with canonical key ``key`` by the matrix route: its
    generator matrix lifted from the key and validated by ``AbHom``."""
    return AbHom(source, target, IntMatrix.from_columns([target.lift(y) for y in key], rows=target.ngens))


# Chains of order at most 32 whose End has at most 4096 elements.
SMALL_CHAINS = [
    c for c in divisibility_chains(32) if math.prod(math.gcd(a, b) for a in c for b in c) <= 4096
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_CHAINS), st.integers(0, 2), st.randoms(use_true_random=False))
def test_abelian_automorphisms_match_the_reference_on_random_presentations(chain, ones, rng):
    group = random_presentation(chain, ones, rng)
    autos = abelian_automorphisms(group)
    expected = reference_abelian_automorphisms(group)
    assert [f.canonical_key() for f, _ in autos] == [f.canonical_key() for f in expected]
    assert all(hom_equals(f, g) for (f, _), g in zip(autos, expected))
    assert [points for _, points in autos] == element_maps([f for f, _ in autos])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_CHAINS),
    st.sampled_from(SMALL_CHAINS),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_from_key_matches_the_lifted_matrix_on_random_presentations(chain, target_chain, ones, rng):
    source = random_presentation(chain, ones, rng)
    target = random_presentation(target_chain, 1, rng)
    # every automorphism's key, and random keys that mostly break a relation
    keys = [f.canonical_key() for f, _ in abelian_automorphisms(source)][:50]
    keys = [(source, source, key) for key in keys]
    for b in (source, target):
        for _ in range(20):
            key = [tuple(rng.randrange(d) for d in b.invariant_factors) for _ in range(source.ngens)]
            keys.append((source, b, key))
    for a, b, key in keys:
        want = violations_of(lambda: lifted_hom(a, b, key))
        assert violations_of(lambda: AbHom.from_keys(a, b, [key])[0]) == want
        if want is not None:
            assert want[0][0] == "hom.matrix" and "relation_column" in want[0][2]
            continue
        lazy, eager = AbHom.from_keys(a, b, [key])[0], lifted_hom(a, b, key)
        assert lazy._matrix is None and lazy._columns is None
        assert lazy.canonical_key() == eager.canonical_key() == tuple(map(tuple, key))
        assert lazy.columns == eager.columns
        assert lazy.matrix == eager.matrix
    # as batches, in random order: refused as the first invalid key alone
    # is, and otherwise key by key the maps of batches of one and of the
    # lifted route
    for b in (source, target):
        batch = [key for _, b_, key in keys if b_ is b]
        rng.shuffle(batch)
        wants = [violations_of(lambda: lifted_hom(source, b, key)) for key in batch]
        first = next((want for want in wants if want is not None), None)
        assert violations_of(lambda: AbHom.from_keys(source, b, batch)) == first
        valid = [key for key, want in zip(batch, wants) if want is None]
        lazy = AbHom.from_keys(source, b, valid)
        assert len(lazy) == len(valid)
        for f, key in zip(lazy, valid):
            one, eager = AbHom.from_keys(source, b, [key])[0], lifted_hom(source, b, key)
            assert f._matrix is None and f._columns is None
            assert f.canonical_key() == one.canonical_key() == eager.canonical_key()
            assert f.columns == one.columns == eager.columns
            assert f.matrix == eager.matrix


def test_from_keys_refuses_at_the_first_invalid_key_not_the_first_relation():
    # on Z/2 x Z/2 -> Z/4, key 0 breaks only relation 1 (2 x_1) and key 1
    # only relation 0 (2 x_0): the batch is refused as key 0 is, at relation 1
    source, target = FgAbGroup(IntMatrix.from_rows([[2, 0], [0, 2]])), FgAbGroup.cyclic(4)
    batch = [[(0,), (1,)], [(1,), (0,)]]
    want = [
        (
            "hom.matrix",
            "matrix does not send source relations into target relations",
            {"relation_column": 1, "relation": (0, 2)},
        )
    ]
    assert violations_of(lambda: lifted_hom(source, target, batch[0])) == want
    assert violations_of(lambda: lifted_hom(source, target, batch[1]))[0][2]["relation_column"] == 0
    assert violations_of(lambda: AbHom.from_keys(source, target, batch)) == want
    assert AbHom.from_keys(source, target, []) == []
    with pytest.raises(ValueError, match="does not match map"):
        AbHom.from_keys(source, target, [[(0,), (2,)], [(0,)]])
    with pytest.raises(ValueError, match="expected 1 coordinates"):
        AbHom.from_keys(source, target, [[(0,), (2,)], [(0,), (1, 0)]])


def test_from_key_refuses_a_relation_sent_outside_the_lattice():
    # Z/2 x Z/4 on relations [[4, 2], [0, 2]]: x_0 -> (0, 1), x_1 -> 0
    # sends the second relation 2 x_0 + 2 x_1 to (0, 2), not 0
    group = FgAbGroup(IntMatrix.from_rows([[4, 2], [0, 2]]))
    key = [(0, 1), (0, 0)]
    want = violations_of(lambda: lifted_hom(group, group, key))
    assert want == [
        (
            "hom.matrix",
            "matrix does not send source relations into target relations",
            {"relation_column": 1, "relation": (2, 2)},
        )
    ]
    assert violations_of(lambda: AbHom.from_keys(group, group, [key])[0]) == want
    with pytest.raises(ValueError, match="does not match map"):
        AbHom.from_keys(group, group, [key[:1]])
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        AbHom.from_keys(group, group, [[(0,), (1,)]])


def test_automorphism_counts_match_the_closed_form():
    assert [aut_order(c) for c in [(8,), (2, 4), (2, 2, 2), (4, 4), (3, 3), (2, 6)]] == [4, 8, 168, 96, 48, 12]
    checked = 0
    for chain in divisibility_chains(64):
        if math.prod(math.gcd(a, b) for a in chain for b in chain) > 4096:
            continue
        assert len(abelian_automorphisms(FgAbGroup.from_cyclic_factors(chain))) == aut_order(chain), chain
        checked += 1
    assert checked == 104


def test_the_bound_counts_endomorphisms_in_closed_form():
    group = FgAbGroup.from_cyclic_factors([2, 2, 2, 2])
    with pytest.raises(SizeBoundError) as refused:
        abelian_automorphisms(group)
    assert refused.value.requested == 65536 == hom_group(group, group).order
    assert refused.value.bound == 4096
    # A raised bound lets it through: GL_4(F_2)
    assert len(abelian_automorphisms(group, max_endos=65536)) == aut_order((2, 2, 2, 2)) == 20160


def test_pi_aut_rejects_duplicate_pairs():
    a = pi_aut(trivial_alg(3, 3)).elements
    with pytest.raises(InternalConsistencyError, match="^duplicate automorphism pairs$"):
        PiAut("A", list(a) + [AutPairA(a[1].phi, a[1].psi, element_map(a[1].psi))])
    b = pi_aut(stable_alg(3, [4], [2])).elements
    maps = [element_map(f) for f in (b[1].psi_n, b[1].psi_n1)]
    with pytest.raises(InternalConsistencyError, match="^duplicate automorphism pairs$"):
        PiAut("B", list(b) + [AutPairB(b[1].psi_n, b[1].psi_n1, *maps)])


def test_pi_aut_rejects_pairs_not_closed_under_composition():
    # The identity and a pair p with p p != 1: Aut(Z/5) is cyclic of
    # order 4, and the stabilizer of the identity q is GL_2(F_2) = S3.
    for case, alg in (("A", trivial_alg(1, 5)), ("B", stable_alg(3, [2, 2], [2, 2], [[1, 0], [0, 1]]))):
        aut = pi_aut(alg)
        table = composition_table(aut)
        p = next(i for i in range(aut.order) if table[i][i] != aut.identity_index)
        with pytest.raises(InternalConsistencyError, match="^automorphism pairs are not closed under composition$"):
            PiAut(case, [aut.elements[aut.identity_index], aut.elements[p]])


def test_pi_aut_without_pairs_has_no_identity():
    with pytest.raises(InternalConsistencyError, match="^no identity among the automorphism pairs$"):
        PiAut("A", [])


def test_transport_to_a_non_cocycle_is_an_internal_error(monkeypatch):
    alg = trivial_alg(3, 3)
    H = cohomology_range(alg.an, 3)[3]
    width = len(H.cocycle_at((0,)).vector)
    units = (Cocycle(alg.an, 3, [int(i == j) for j in range(width)]) for i in range(width))
    broken = next(z for z in units if not H.is_cocycle(z))
    monkeypatch.setattr(pialgebra, "_transport_cocycle", lambda *args: broken)
    aut = pi_aut(alg)
    with pytest.raises(
        InternalConsistencyError, match="^transported representative is not a cocycle; transport is broken$"
    ):
        act_on_kinvariants(alg, aut.elements[aut.identity_index], H)


def negation_z4_alg(n=2):
    """C2 on Z/4 by -1: H^3 = ker N / (g-1)M and H^4 = M^G / NM are Z/2."""
    c2 = FiniteGroup.cyclic(2)
    return TwoStageDim1N(n, GModule(c2, FgAbGroup.cyclic(4), [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])]))


def trivial_on(group_factors, base_factors, n=2):
    group = FiniteGroup.from_cyclic_factors(group_factors)
    return TwoStageDim1N(n, GModule.trivial(group, FgAbGroup.from_cyclic_factors(base_factors)))


KINV_CASES = {
    "trivial C3 Z/3": lambda: trivial_alg(3, 3),
    "trivial C3 Z/3 n=3": lambda: trivial_alg(3, 3, n=3),
    "trivial C4 Z/2": lambda: trivial_alg(4, 2),
    "trivial C2 Z/2 n=4": lambda: trivial_alg(2, 2, n=4),
    "negation C2 Z/4": negation_z4_alg,
    "negation C2 Z/4 n=3": lambda: negation_z4_alg(n=3),
    "swap C2xC2 (Z/2)^2": lambda: klein_alg([2, 2], swap_outside(1)),
    "swap C2 (Z/2)^3": swap_two_alg,
    "trivial C4 Z/4xZ/2": lambda: trivial_on([4], [4, 2]),
    "trivial C2xC2 Z/4": lambda: trivial_on([2, 2], [4]),
    "trivial C2xC2 (Z/2)^2": lambda: klein_alg([2, 2]),
}


@pytest.mark.parametrize("name", sorted(KINV_CASES))
def test_action_matches_the_per_class_reference(name):
    alg = KINV_CASES[name]()
    H = cohomology_range(alg.an, alg.n + 1)[-1]
    assert H.group.order > 1
    for pair in pi_aut(alg).elements:
        assert act_on_kinvariants(alg, pair, H) == reference_act_on_kinvariants(alg, pair, H)


@pytest.mark.parametrize("name", ["c2c2_z2x3_shear", "c2c2_z4z2_shear"])
def test_transport_by_block_index_matches_the_tuple_by_tuple_reference(name, monkeypatch):
    # Non-diagonal actions on coefficients with several generators: some
    # generating pair's psi mixes the coordinates of a block, and some
    # phi moves the tuples.
    alg, _ = parse_input((Path(__file__).resolve().parents[1] / "samples" / f"{name}.json").read_text())
    H = cohomology_range(alg.an, alg.n + 1)[-1]
    aut = pi_aut(alg)
    pairs = [aut.elements[g] for g in aut.generators]
    assert any(x for p in pairs for i, row in enumerate(p.psi.matrix.data) for j, x in enumerate(row) if i != j)
    assert any(p.phi != tuple(range(len(p.phi))) for p in pairs)
    transport = pialgebra._transport_cocycle
    moved = []

    def recording(z, *args):
        moved.append((z, transport(z, *args)))
        return moved[-1][1]

    monkeypatch.setattr(pialgebra, "_transport_cocycle", recording)
    for pair in pairs:
        moved.clear()
        act_on_kinvariants(alg, pair, H)
        assert [z for z, _ in moved] == list(H.representatives)
        for z, got in moved:
            assert got.vector == reference_transport_cocycle(z, pair.phi, pair.psi).vector


def test_generator_images_are_checked(monkeypatch):
    # H^3(C4; Z/4 x Z/2) = Z/2 x Z/4.  Sending both generators to the
    # order-4 one gives the order-2 generator an image of larger order;
    # sending both to the order-2 one is a homomorphism, not a permutation.
    alg = trivial_on([4], [4, 2])
    H = cohomology_range(alg.an, 3)[3]
    assert H.group.invariant_factors == (2, 4)
    aut = pi_aut(alg)
    identity = aut.elements[aut.identity_index]
    monkeypatch.setattr(pialgebra, "_transport_cocycle", lambda *args: H.representatives[1])
    with pytest.raises(
        InternalConsistencyError, match=r"^transport sends a generator of H\^\(n\+1\) to an element of larger order$"
    ):
        act_on_kinvariants(alg, identity, H)
    monkeypatch.setattr(pialgebra, "_transport_cocycle", lambda *args: H.representatives[0])
    with pytest.raises(InternalConsistencyError, match="^transport did not permute the classes$"):
        act_on_kinvariants(alg, identity, H)


@pytest.mark.parametrize(
    "alg",
    [
        TwoStageDimNN1(3, FgAbGroup.cyclic(10**6), FgAbGroup.cyclic(2)),
        TwoStageDim1N(2, GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(10**6))),
    ],
    ids=["B", "A"],
)
def test_pi_aut_refuses_a_large_stage_before_listing_its_elements(alg, monkeypatch):
    def refuse(*args):
        raise AssertionError("listed the elements of a stage before the max_endos bound")

    monkeypatch.setattr(pialgebra, "_automorphism_maps", refuse)
    monkeypatch.setattr(FgAbGroup, "elements", refuse)
    monkeypatch.setattr(FgAbGroup, "element_coords", refuse)
    with pytest.raises(SizeBoundError):
        pi_aut(alg)
