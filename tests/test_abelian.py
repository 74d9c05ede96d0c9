import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import twostage.abelian
from twostage.abelian import (
    AbHom,
    CochainComplex,
    FgAbGroup,
    direct_sum,
    ext_group,
    hom_group,
    homology_at,
    kernel_subgroup,
)
from twostage.cohomology import bar_complex
from twostage.errors import SizeBoundError, ValidationError
from twostage.groups import FiniteGroup, GModule
from twostage.linalg import IntMatrix, block_diag, hstack, smith_normal_form

from helpers import (
    all_homs,
    divisibility_chains,
    element_map,
    enumerate_homs_bruteforce,
    hom_at,
    hom_generators,
    hom_equals,
    hom_inverse,
    homology_bruteforce,
    is_bijective,
    is_injective,
    is_isomorphic,
    is_surjective,
    random_unimodular,
    reference_column_hermite,
    reference_ext,
    reference_hom,
    reference_first_nonzero,
    reference_integer_kernel,
    reference_smith_normal_form,
)


def test_snf_permutation_fast_path():
    m = IntMatrix.from_rows([[4, 0, 0], [0, 2, 0], [0, 0, 4]])
    dec = smith_normal_form(m)
    assert dec.diagonal == (2, 4, 4)
    assert dec.u @ m @ dec.v == dec.s
    assert dec.u @ dec.u_inv == IntMatrix.identity(3)


class TestNormalForm:
    def test_cyclic(self):
        g = FgAbGroup.cyclic(4)
        assert g.normal_form == (0, (4,))
        assert g.order == 4
        assert g.symbol() == "C4"

    def test_factors_merge(self):
        # C2 + C3 is cyclic of order 6
        g = FgAbGroup.from_cyclic_factors([2, 3])
        assert g.normal_form == (0, (6,))
        assert g.symbol() == "C6"

    def test_free_and_mixed(self):
        assert FgAbGroup.free(2).normal_form == (2, ())
        g = FgAbGroup.from_cyclic_factors([0, 2])
        assert g.normal_form == (1, (2,))
        assert g.symbol() == "Z x C2"
        assert g.order is None
        assert not g.is_finite

    def test_trivial(self):
        assert FgAbGroup.trivial().normal_form == (0, ())
        assert FgAbGroup.cyclic(1).normal_form == (0, ())
        assert FgAbGroup.trivial().symbol() == "0"

    def test_cyclic_free_and_trivial_match_the_smith_route(self, monkeypatch):
        # each is given by its Smith data, with no elimination; that data,
        # and the coordinates read off it, are the Smith form's
        cases = [(lambda d=d: FgAbGroup.cyclic(d), IntMatrix.from_rows([[d]])) for d in range(1, 65)]
        cases += [(lambda r=r: FgAbGroup.free(r), IntMatrix.zeros(r, 0)) for r in range(4)]
        cases.append((FgAbGroup.trivial, IntMatrix.zeros(0, 0)))
        rng = random.Random(5)
        for build, presentation in cases:
            want = FgAbGroup(presentation)
            with monkeypatch.context() as m:
                m.setattr(twostage.abelian, "smith_normal_form", None)
                got = build()
            for name in ("_diag", "_u_rows", "_uinv_rows", "invariant_factors", "relation_columns", "presentation"):
                assert getattr(got, name) == getattr(want, name), (presentation, name)
            for _ in range(5):
                v = [rng.randint(-200, 200) for _ in range(got.ngens)]
                assert got.reduce(v) == want.reduce(v)
                c = [rng.randint(-200, 200) for _ in got.coordinate_moduli()]
                assert got.lift(c) == want.lift(c)

    def test_presentation_invariance(self):
        # same quotient of Z^2, redundant and shuffled relations
        g1 = FgAbGroup(IntMatrix.from_columns([[2, 0], [0, 4]], rows=2))
        g2 = FgAbGroup(IntMatrix.from_columns([[0, 4], [2, 0], [2, 4]], rows=2))
        assert g1.normal_form == g2.normal_form == (0, (2, 4))
        assert is_isomorphic(g1, g2)

    def test_divisibility_chain(self):
        rng = random.Random(19)
        for _ in range(120):
            m = rng.randint(0, 3)
            r = rng.randint(0, 4)
            pres = IntMatrix(m, r, [rng.randint(-6, 6) for _ in range(m * r)])
            g = FgAbGroup(pres)
            for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
                assert b % a == 0
            assert all(d >= 2 for d in g.invariant_factors)


class TestElements:
    def test_enumeration_count_and_distinctness(self):
        g = FgAbGroup.from_cyclic_factors([2, 4])
        elems = g.elements()
        assert len(elems) == 8 == g.order
        assert len({g.reduce(e) for e in elems}) == 8

    def test_reduce_lift_roundtrip(self):
        g = FgAbGroup(IntMatrix.from_columns([[2, 2], [0, 4]], rows=2))
        for coords in g.element_coords():
            assert g.reduce(g.lift(coords)) == coords

    def test_reduce_is_additive(self):
        g = FgAbGroup.from_cyclic_factors([6])
        a, b = (4,), (5,)
        s = g.reduce([a[0] + b[0]])
        assert s == g.reduce([int(g.reduce(a)[0]) + int(g.reduce(b)[0])])

    def test_infinite_enumeration_refused(self):
        with pytest.raises(SizeBoundError):
            FgAbGroup.free(1).elements()

    def test_limit_enforced(self):
        with pytest.raises(SizeBoundError):
            FgAbGroup.cyclic(100).element_coords(limit=10)

    def test_trivial_group_has_one_element(self):
        assert FgAbGroup.trivial().elements() == [()]

    def test_positions_and_strides_follow_the_element_order(self):
        for chain in divisibility_chains(64):
            g = FgAbGroup.from_cyclic_factors(chain)
            coords = g.element_coords()
            assert [g.position(c) for c in coords] == list(range(g.order)), chain
            units = [tuple(int(i == j) for j in range(len(chain))) for i in range(len(chain))]
            assert list(g.strides) == [coords.index(e) for e in units], chain

    @pytest.mark.parametrize("factors", [(2,) * r for r in range(13)] + [(2, 4), (3, 3)])
    def test_element_map_matches_the_definition(self, factors):
        # (Z/2)^r doubles by XOR; Z/2 + Z/4 and (Z/3)^2 take the
        # per-coordinate pass.  Zero, repeated (non-injective), random and
        # unreduced images, each against helpers.element_map.
        g = FgAbGroup.from_cyclic_factors(list(factors))
        rng = random.Random(len(factors))
        # a generator of order d goes to an element of order dividing d
        randoms = [[[rng.randrange(gcd(m, d)) * (m // gcd(m, d)) for m in factors] for d in factors] for _ in range(3)]
        cases = [
            [[0] * len(factors) for _ in factors],
            randoms[0][:1] * len(factors),
            *randoms,
            [[c + m * rng.randrange(-2, 3) for c, m in zip(image, factors)] for image in randoms[0]],
        ]
        for images in cases:
            f = AbHom.from_keys(g, g, [images])[0]
            assert g.element_map(images) == element_map(f), images


@st.composite
def presentations(draw):
    """Relation matrices 0..6 x 0..6 with small entries times a common
    factor: rows beyond the rank give free slots, the factor torsion ones."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    factor = draw(st.sampled_from([1, 2, 3, 4]))
    flat = draw(st.lists(st.integers(-5, 5), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, [factor * x for x in flat])


def dense_reference_group(presentation):
    """The group on every row of the reference Smith form's u and u^-1."""
    dec = reference_smith_normal_form(presentation)
    g = FgAbGroup.__new__(FgAbGroup)
    diag = list(dec.diagonal) + [0] * (presentation.rows - len(dec.diagonal))
    g._set_smith(diag, presentation, ())
    g._u_rows, g._uinv_rows = dec.u.nonzero_rows(), dec.u_inv.nonzero_rows()
    return g


class TestReplayedCoordinates:
    """A group replays only its coordinate slots' u rows and u^-1 columns;
    its coordinates must be those of the full dense transforms."""

    @settings(max_examples=200, deadline=None)
    @given(presentations(), presentations(), st.randoms(use_true_random=False))
    @example(IntMatrix.zeros(3, 0), IntMatrix.from_rows([[2, 0], [0, 4]]), random.Random(1))
    @example(IntMatrix.from_rows([[0, 0], [3, 6]]), IntMatrix.zeros(0, 2), random.Random(2))
    def test_reduce_and_lift_match_the_dense_reference(self, first, second, rng):
        for got, want in (
            (FgAbGroup(first), dense_reference_group(first)),
            (
                direct_sum([FgAbGroup(first), FgAbGroup(second)]),
                direct_sum([dense_reference_group(first), dense_reference_group(second)]),
            ),
        ):
            assert got.coordinate_moduli() == want.coordinate_moduli()
            for _ in range(5):
                v = [rng.randint(-20, 20) for _ in range(got.ngens)]
                assert got.reduce(v) == want.reduce(v)
                c = [rng.randint(-20, 20) for _ in got.coordinate_moduli()]
                assert got.lift(c) == want.lift(c)

    def test_building_a_group_builds_no_whole_transform(self, monkeypatch):
        seen = []

        def recording(m):
            seen.append(smith_normal_form(m))
            return seen[-1]

        monkeypatch.setattr(twostage.abelian, "smith_normal_form", recording)
        g = FgAbGroup(IntMatrix.from_rows([[2, 4, 0], [6, 8, 0], [0, 0, 0]]))
        assert g.reduce(g.lift((1, 1, 5))) == (1, 1, 5)
        reference_hom(g, FgAbGroup.cyclic(4))
        assert len(seen) > 1
        for dec in seen:
            assert not {"s", "u", "v", "u_inv"} & vars(dec).keys()


class TestAbHom:
    def test_rejects_ill_defined(self):
        # Z/2 -> Z/3 sending the generator to a generator kills nothing
        with pytest.raises(ValidationError):
            AbHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3), IntMatrix.from_rows([[1]]))

    def test_composition_and_equality(self):
        g4 = FgAbGroup.cyclic(4)
        doubling = AbHom(g4, g4, IntMatrix.from_rows([[2]]))
        sq = doubling @ doubling
        assert sq.is_zero_map()
        assert not doubling.is_zero_map()
        five = AbHom(g4, g4, IntMatrix.from_rows([[5]]))
        assert hom_equals(five, AbHom.identity(g4))

    def test_bijectivity(self):
        g = FgAbGroup.from_cyclic_factors([2, 2])
        swap = AbHom(g, g, IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert is_bijective(swap)
        proj = AbHom(g, g, IntMatrix.from_rows([[1, 0], [0, 0]]))
        assert not is_injective(proj)
        assert not is_surjective(proj)

    def test_kernel_of_doubling_on_z4(self):
        g4 = FgAbGroup.cyclic(4)
        doubling = AbHom(g4, g4, IntMatrix.from_rows([[2]]))
        ker = kernel_subgroup(doubling)
        assert ker.group.normal_form == (0, (2,))
        # the representative of the nonzero kernel class is killed by f
        rep = ker.representative((1,))
        assert g4.is_zero(doubling(rep))


    def test_a_refused_map_reads_its_relation_off_the_sparse_columns(self):
        # three copies of Z/2 x Z/2 on the relation basis [[-2, 0], [2, 2]]
        # into Z/4: generator 4 -> 1 sends relation column 4 to -2, not 0;
        # the detail is that column of the block diagonal, which the
        # direct sum never builds
        base = FgAbGroup(IntMatrix.from_rows([[-2, 0], [2, 2]]))
        source = direct_sum([base] * 3)
        with pytest.raises(ValidationError) as info:
            AbHom(source, FgAbGroup.cyclic(4), IntMatrix.from_rows([[0, 0, 0, 0, 1, 0]]))
        (violation,) = info.value.violations
        assert violation.field == "hom.matrix"
        assert violation.witness == {"relation_column": 4, "relation": (0, 0, 0, 0, -2, 2)}
        assert violation.witness["relation"] == block_diag([base.presentation] * 3).column(4)
        assert source._presentation is None


@st.composite
def maps_and_vectors(draw):
    """A map and a list of vectors, as ``(generator, value)`` pairs, some of
    them killed.  The target is a random presentation, cyclic factors (0 for
    Z) on a scrambled basis, a zero group, or a sum of two copies of one;
    the map goes from a free group by any matrix, or from the target to
    itself by k + R A, R its relations, which sends relations into them."""
    rng = draw(st.randoms(use_true_random=False))
    factors = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6]), min_size=1, max_size=3))
    scrambled = random_unimodular(rng, len(factors)) @ IntMatrix.from_rows(
        [[d * (i == j) for j in range(len(factors))] for i, d in enumerate(factors)]
    ) @ random_unimodular(rng, len(factors))
    relations = draw(st.one_of(presentations(), st.just(scrambled), st.integers(0, 2).map(IntMatrix.identity)))
    target = direct_sum([FgAbGroup(relations)] * draw(st.integers(1, 2)))
    relations, m = target.presentation, target.ngens
    if draw(st.booleans()):
        a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)] for _ in range(relations.cols)], cols=m)
        k, ra = rng.randint(-3, 3), (relations @ a).data
        matrix = IntMatrix.from_rows([[k * (i == j) + ra[i][j] for j in range(m)] for i in range(m)], cols=m)
        f = AbHom(target, target, matrix)
    else:
        n = rng.randint(0, 4)
        matrix = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], cols=n)
        f = AbHom(FgAbGroup.free(n), target, matrix)
    exponent = 1
    for d in target.invariant_factors:
        exponent = exponent * d // gcd(exponent, d)
    vectors = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.randrange(3)
        if kind == 2 and f.source.relation_columns:
            rel = rng.choice(f.source.relation_columns)
            vectors.append([(j, rng.randint(-2, 2) * x) for j, x in rel])
            continue
        scale = exponent if kind == 1 and target.is_finite else 1
        size = rng.randint(0, 4) if f.source.ngens else 0
        vectors.append([(rng.randrange(f.source.ngens), scale * rng.randint(-4, 4)) for _ in range(size)])
    return f, vectors


class TestFirstNonzero:
    """``AbHom.first_nonzero`` is the one check behind relations, d∘d and
    cocycles; ``kills`` is a batch of one."""

    @settings(max_examples=80, deadline=None)
    @given(maps_and_vectors())
    @example((AbHom.zero(FgAbGroup.free(2), FgAbGroup.trivial()), [[(0, 1)], [(1, -3), (0, 2)]]))
    # a free slot's nonzero value is not killed: Z -> Z + Z/2, 1 -> (1, 1), on 2
    @example(
        (AbHom(FgAbGroup.free(1), FgAbGroup.from_cyclic_factors([0, 2]), IntMatrix.from_rows([[1], [1]])), [[(0, 2)]])
    )
    def test_first_nonzero_matches_the_dense_reference(self, case):
        f, vectors = case
        want = reference_first_nonzero(f, vectors)
        assert f.first_nonzero(vectors) == want
        assert [f.kills(v) for v in vectors] == [reference_first_nonzero(f, [v]) is None for v in vectors]
        assert (want is None) == all(f.kills(v) for v in vectors)


class TestHomGroup:
    def test_hom_z4_z2(self):
        a, b = FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)
        assert hom_group(a, b).normal_form == (0, (2,))
        assert reference_hom(a, b).group.normal_form == (0, (2,))
        homs = all_homs(a, b)
        assert len(homs) == 2
        keys = {f.canonical_key() for f in homs}
        assert keys == enumerate_homs_bruteforce(a, b)

    def test_hom_from_free(self):
        for a, b, expected in [
            (FgAbGroup.free(1), FgAbGroup.cyclic(3), (0, (3,))),
            (FgAbGroup.free(2), FgAbGroup.free(1), (2, ())),
        ]:
            assert hom_group(a, b).normal_form == expected
            assert reference_hom(a, b).group.normal_form == expected

    def test_hom_into_free_from_torsion(self):
        a, b = FgAbGroup.cyclic(3), FgAbGroup.free(1)
        assert hom_group(a, b).normal_form == (0, ())
        assert reference_hom(a, b).group.normal_form == (0, ())

    def test_hom_from_trivial(self):
        a, b = FgAbGroup.trivial(), FgAbGroup.cyclic(5)
        assert hom_group(a, b).normal_form == (0, ())
        assert reference_hom(a, b).group.normal_form == (0, ())
        assert hom_at(a, b, ()).is_zero_map()

    def test_matches_bruteforce_on_small_pairs(self):
        pool = [
            FgAbGroup.cyclic(2),
            FgAbGroup.cyclic(4),
            FgAbGroup.from_cyclic_factors([2, 2]),
            FgAbGroup.from_cyclic_factors([2, 4]),
            FgAbGroup.cyclic(3),
            FgAbGroup(IntMatrix.from_columns([[2, 2], [0, 2]], rows=2)),
        ]
        for a, b in itertools.product(pool, repeat=2):
            expected = enumerate_homs_bruteforce(a, b)
            got = {f.canonical_key() for f in all_homs(a, b)}
            assert got == expected, (a.symbol(), b.symbol())

    def test_generators_generate(self):
        a = FgAbGroup.from_cyclic_factors([2, 4])
        b = FgAbGroup.from_cyclic_factors([4])
        h = reference_hom(a, b)
        moduli = h.group.coordinate_moduli()
        generators = hom_generators(a, b)
        for coords in h.group.element_coords():
            f = hom_at(a, b, coords)
            acc = IntMatrix.zeros(b.ngens, a.ngens)
            for c, gen in zip(coords, generators):
                acc = IntMatrix(acc.rows, acc.cols, [x + c * y for ra, rb in zip(acc.data, gen.matrix.data) for x, y in zip(ra, rb)])
            assert hom_equals(f, AbHom(a, b, acc))
        assert len(moduli) == len(generators)


def closed_form_pool() -> list[FgAbGroup]:
    """Every divisibility chain of order at most 16, with 0, 1 or 2 free
    summands in turn, on its diagonal presentation and on a random
    unimodular change of generators and of relation basis."""
    rng = random.Random(29)
    pool = []
    for k, chain in enumerate(divisibility_chains(16)):
        group = FgAbGroup.from_cyclic_factors(chain + (0,) * (k % 3))
        rels = group.presentation
        pool.append(group)
        pool.append(FgAbGroup(random_unimodular(rng, rels.rows) @ rels @ random_unimodular(rng, rels.cols)))
    return pool


class TestClosedForms:
    """``hom_group`` and ``ext_group`` read the type off invariant factors;
    the references compute each from presentations."""

    def test_hom_and_ext_match_the_presentation_references(self):
        for a, b in itertools.product(closed_form_pool(), repeat=2):
            assert hom_group(a, b).normal_form == reference_hom(a, b).group.normal_form, (a.symbol(), b.symbol())
            assert ext_group(a, b).normal_form == reference_ext(a, b).normal_form, (a.symbol(), b.symbol())

    def test_finite_hom_orders_match_the_bruteforce_count(self):
        pool = [g for g in closed_form_pool() if g.is_finite and g.order <= 8]
        for a, b in itertools.product(pool, repeat=2):
            assert hom_group(a, b).order == len(enumerate_homs_bruteforce(a, b)), (a.symbol(), b.symbol())


class TestExtGroup:
    def test_ext_z2_z4(self):
        assert ext_group(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)).normal_form == (0, (2,))

    def test_free_source_vanishes(self):
        assert ext_group(FgAbGroup.free(3), FgAbGroup.cyclic(8)).normal_form == (0, ())

    def test_mixed(self):
        a = FgAbGroup.from_cyclic_factors([2, 4])
        assert ext_group(a, FgAbGroup.cyclic(2)).normal_form == (0, (2, 2))
        assert ext_group(a, FgAbGroup.free(1)).normal_form == (0, (2, 4))

    def test_gcd_identity_spot_checks(self):
        for a, b in [(2, 2), (4, 6), (9, 12), (5, 7)]:
            h = hom_group(FgAbGroup.cyclic(a), FgAbGroup.cyclic(b))
            e = ext_group(FgAbGroup.cyclic(a), FgAbGroup.cyclic(b))
            assert h.order == gcd(a, b)
            assert e.order == gcd(a, b)


class TestModulo:
    def test_c6_mod_2(self):
        assert FgAbGroup.cyclic(6).modulo(2).normal_form == (0, (2,))

    def test_coprime_collapses(self):
        assert FgAbGroup.cyclic(3).modulo(2).normal_form == (0, ())

    def test_free_mod(self):
        assert FgAbGroup.free(2).modulo(3).normal_form == (0, (3, 3))


class TestCochainComplex:
    def test_rejects_nonzero_composite(self):
        z = FgAbGroup.free(1)
        ident = AbHom.identity(z)
        with pytest.raises(ValidationError):
            CochainComplex([z, z, z], [ident, ident])

    def test_nonzero_composite_names_its_position_and_generator(self):
        z2 = FgAbGroup.cyclic(2)
        z4 = FgAbGroup.cyclic(4)
        zero = AbHom.zero(z2, z2)
        double = AbHom(z2, z4, IntMatrix.from_rows([[2]]))
        ident = AbHom.identity(z4)
        with pytest.raises(ValidationError) as info:
            CochainComplex([z2, z2, z4, z4], [zero, double, ident])
        violation = info.value.violations[0]
        assert violation.field == "complex.maps"
        assert violation.message == "d2 after d1 is nonzero"
        assert violation.witness == {"position": 1, "generator": 0}

    def test_multiplication_by_two(self):
        z = FgAbGroup.free(1)
        doubling = AbHom(z, z, IntMatrix.from_rows([[2]]))
        c = CochainComplex([z, z], [doubling])
        assert homology_at(c, 1).group.normal_form == (0, (2,))
        assert homology_at(c, 0).group.normal_form == (0, ())

    def test_section_properties(self):
        g8 = FgAbGroup.cyclic(8)
        doubling = AbHom(g8, g8, IntMatrix.from_rows([[2]]))
        quadrupling = AbHom(g8, g8, IntMatrix.from_rows([[4]]))
        c = CochainComplex([g8, g8, g8], [quadrupling, doubling])
        h = homology_at(c, 1)
        # ker(x2) = {0, 4}, im(x4) = {0, 4}: middle homology vanishes
        assert h.group.normal_form == (0, ())
        c2 = CochainComplex([g8, g8, g8], [doubling, quadrupling])
        h2 = homology_at(c2, 1)
        # ker(x4) = {0, 2, 4, 6}, im(x2) = {0, 2, 4, 6}
        assert h2.group.normal_form == (0, ())

    def test_class_coords_and_representatives(self):
        z = FgAbGroup.free(1)
        g4 = FgAbGroup.cyclic(4)
        to_g4 = AbHom(z, g4, IntMatrix.from_rows([[2]]))
        c = CochainComplex([z, g4], [to_g4])
        h = homology_at(c, 1)
        assert h.group.normal_form == (0, (2,))
        for coords in h.group.element_coords():
            rep = h.representative(coords)
            assert h.class_coords(rep) == coords
        # additivity of the section
        reps = [h.representative(c_) for c_ in h.group.element_coords()]
        for r1 in reps:
            for r2 in reps:
                s = [x + y for x, y in zip(r1, r2)]
                lhs = h.class_coords(s)
                expected = h.group.reduce(
                    [a + b for a, b in zip(h.group.lift(h.class_coords(r1)), h.group.lift(h.class_coords(r2)))]
                )
                assert lhs == expected

    def test_matches_bruteforce_on_random_finite_complexes(self):
        rng = random.Random(23)
        pool = [
            FgAbGroup.cyclic(2),
            FgAbGroup.cyclic(4),
            FgAbGroup.from_cyclic_factors([2, 2]),
            FgAbGroup.cyclic(3),
            FgAbGroup.cyclic(6),
        ]
        built = 0
        while built < 40:
            g0, g1, g2 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            d0 = rng.choice(all_homs(g0, g1))
            candidates = [f for f in all_homs(g1, g2) if (f @ d0).is_zero_map()]
            d1 = rng.choice(candidates)
            c = CochainComplex([g0, g1, g2], [d0, d1])
            for k in range(3):
                fast = homology_at(c, k).group
                assert fast.invariant_factors == homology_bruteforce(c, k), (
                    k,
                    g0.symbol(),
                    g1.symbol(),
                    g2.symbol(),
                )
                assert fast.free_rank == 0
            built += 1


def _numerator_over_z(f: AbHom) -> IntMatrix:
    """The preimage lattice by the dense Z route: project ker [F | -R], then Hermite."""
    full = reference_integer_kernel(hstack(f.matrix, -f.target.presentation))
    return reference_column_hermite(IntMatrix.from_rows(full.to_rows()[: f.source.ngens], cols=full.cols))


def _finite_target(rng, exponent):
    """A finite group of the given exponent on a random, mostly non-diagonal, relation basis."""
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    factors = sorted([exponent] + [rng.choice(divisors) for _ in range(rng.randint(0, 2))])
    n = len(factors)
    diag = IntMatrix.from_rows([[factors[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)
    return FgAbGroup(random_unimodular(rng, n) @ diag @ random_unimodular(rng, n))


class TestModularNumerator:
    """The numerator of kernels and homology, computed mod the target's
    exponent, is the Hermite basis the Z route gives, entry for entry, and
    its forward substitution agrees with a Smith solve."""

    def _check(self, f: AbHom, rng) -> None:
        sub = kernel_subgroup(f)
        assert sub.basis == _numerator_over_z(f)
        dec = smith_normal_form(sub.basis)
        m = f.source.ngens
        vectors = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(4)]
        vectors += [sub.basis.apply([rng.randint(-3, 3) for _ in range(sub.basis.cols)]) for _ in range(2)]
        for v in vectors:
            expected = dec.solve(v)
            got = sub.coefficients(v)
            assert (got is None) == (expected is None), v
            if got is not None:
                assert got == expected

    def test_matches_the_integer_route(self):
        rng = random.Random(7)
        cases = 0
        for exponent in (2, 4, 8, 6, 12):
            for trial in range(44):
                target = _finite_target(rng, exponent)
                m = rng.randint(0, 5)
                if trial % 6 == 0:
                    matrix = IntMatrix.zeros(target.ngens, m)
                else:
                    matrix = IntMatrix(target.ngens, m, [rng.randint(-exponent, exponent) for _ in range(target.ngens * m)])
                self._check(AbHom(FgAbGroup.free(m), target, matrix), rng)
                cases += 1
        rebased = FgAbGroup(IntMatrix.from_columns([[-2, 0], [2, 2]]))
        trivial_targets = [FgAbGroup.trivial(), FgAbGroup(IntMatrix.from_rows([[1, 1], [0, 1]]))]
        # Z summands take the integer route; its bases are not of full rank.
        infinite_targets = [FgAbGroup.from_cyclic_factors([0, 4]), FgAbGroup.free(1)]
        for trial in range(24):
            m = trial % 4
            for target in [rebased, *trivial_targets, *infinite_targets]:
                matrix = IntMatrix(target.ngens, m, [rng.randint(-3, 3) for _ in range(target.ngens * m)])
                self._check(AbHom(FgAbGroup.free(m), target, matrix), rng)
                cases += 1
        assert cases >= 200

    def test_edge_shapes(self):
        rng = random.Random(0)
        z2 = FgAbGroup.cyclic(2)
        sub = kernel_subgroup(AbHom(FgAbGroup.free(0), z2, IntMatrix.zeros(1, 0)))
        assert sub.basis.shape == (0, 0) and sub.group.normal_form == (0, ())
        sub = kernel_subgroup(AbHom(FgAbGroup.free(3), FgAbGroup.trivial(), IntMatrix.zeros(0, 3)))
        assert sub.basis == IntMatrix.identity(3)
        sub = kernel_subgroup(AbHom.zero(FgAbGroup.free(2), FgAbGroup.cyclic(12)))
        assert sub.basis == IntMatrix.identity(2)
        self._check(AbHom(FgAbGroup.free(2), z2, IntMatrix.from_rows([[1, 1]])), rng)


class TestDirectSum:
    def test_block_layout(self):
        g = direct_sum([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)])
        assert g.normal_form == (0, (6,))
        assert g.ngens == 2

    def test_empty(self):
        assert direct_sum([]).normal_form == (0, ())

    @staticmethod
    def _random_summand(rng):
        """Up to three cyclic or free factors, often on a non-diagonal basis."""
        factors = [rng.choice([0, 1, 2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
        n = len(factors)
        rels = [[d if i == j else 0 for i in range(n)] for j, d in enumerate(factors) if d]
        g = FgAbGroup(IntMatrix.from_columns(rels, rows=n))
        if rng.random() < 0.6:
            g = FgAbGroup(random_unimodular(rng, n) @ g.presentation @ random_unimodular(rng, g.presentation.cols))
        return g

    def test_matches_the_smith_form_of_the_block_diagonal(self):
        """Merged Smith data presents the same group as the Smith form of
        the block diagonal, on copies of one group and on mixed summands,
        and its coordinates reduce and lift exactly."""
        rng = random.Random(11)
        for trial in range(120):
            first = self._random_summand(rng)
            if trial % 2:
                groups = [first] * rng.randint(1, 4)
            else:
                groups = [first] + [self._random_summand(rng) for _ in range(rng.randint(0, 2))]
            total = direct_sum(groups)
            relations = block_diag([g.presentation for g in groups])
            reference = FgAbGroup(relations)
            assert total.ngens == reference.ngens
            assert total.invariant_factors == reference.invariant_factors
            assert total.free_rank == reference.free_rank
            in_lattice = smith_normal_form(relations)
            for _ in range(6):
                v = [rng.randint(-9, 9) for _ in range(total.ngens)]
                if rng.random() < 0.5:
                    # A relation combination, so that the zero class is hit.
                    combination = [rng.randint(-3, 3) for _ in range(relations.cols)]
                    v = [rng.randint(-2, 2) * x for x in relations.apply(combination)]
                assert total.is_zero(v) == (in_lattice.solve(v) is not None)
                back = total.lift(total.reduce(v))
                assert in_lattice.solve([a - b for a, b in zip(back, v)]) is not None

    def test_cyclic_factor_coordinates_keep_their_order(self):
        """Tied slots keep their argument order, so a factor list's canonical
        coordinates, and with them the element order of case B's q tables,
        follow the list.  A Smith form of the block diagonal would order
        them otherwise."""
        g = FgAbGroup.from_cyclic_factors([4, 4, 2])
        assert g.coordinate_moduli() == (2, 4, 4)
        assert [g.reduce(e) for e in IntMatrix.identity(3).data] == [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
        assert [g.lift(e) for e in IntMatrix.identity(3).data] == [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
        g = FgAbGroup.from_cyclic_factors([2, 2, 1])
        assert g.coordinate_moduli() == (2, 2)
        assert [g.reduce(e) for e in IntMatrix.identity(3).data] == [(1, 0), (0, 1), (0, 0)]
        assert [g.lift(e) for e in IntMatrix.identity(2).data] == [(1, 0, 0), (0, 1, 0)]

    @pytest.mark.parametrize(
        "relations",
        [[[2, 0], [0, 4]], [[-2, 0], [2, 2]], [[4, 0, 0], [2, 2, 0], [0, 2, 4]]],
        ids=["z2z4", "z2z2_rebased", "three_generators"],
    )
    def test_bar_complex_runs_no_smith_form(self, monkeypatch, relations):
        """Every cochain group takes its Smith data from the coefficients':
        once M is built, building the bar complex eliminates nothing."""
        base = FgAbGroup(IntMatrix.from_columns(relations, rows=len(relations[0])))
        module = GModule.trivial(FiniteGroup.cyclic(4), base)

        def refuse(m):
            raise AssertionError(f"Smith form of a {m.rows}x{m.cols} matrix")

        monkeypatch.setattr(twostage.abelian, "smith_normal_form", refuse)
        complex_ = bar_complex(module, 3)
        top = complex_.groups[-1]
        assert top.invariant_factors == tuple(sorted(base.invariant_factors * 27))
        assert top.free_rank == 27 * base.free_rank
        assert top._presentation is None


class TestInverse:
    def test_self_inverse_on_z4(self):
        z4 = FgAbGroup.cyclic(4)
        f = AbHom(z4, z4, IntMatrix.from_rows([[3]]))
        assert hom_equals(hom_inverse(f), f)

    def test_multiplicative_inverse_mod_five(self):
        z5 = FgAbGroup.cyclic(5)
        f = AbHom(z5, z5, IntMatrix.from_rows([[2]]))
        g = hom_inverse(f)
        assert z5.reduce(g.matrix.column(0)) == (3,)
        assert hom_equals(g @ f, AbHom.identity(z5))

    def test_swap_on_klein_four(self):
        v = FgAbGroup.from_cyclic_factors([2, 2])
        swap = AbHom(v, v, IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert hom_equals(hom_inverse(swap), swap)

    def test_negation_on_free_group(self):
        z = FgAbGroup.free(1)
        f = AbHom(z, z, IntMatrix.from_rows([[-1]]))
        assert hom_equals(hom_inverse(f), f)

    def test_non_invertible_rejected(self):
        z4 = FgAbGroup.cyclic(4)
        f = AbHom(z4, z4, IntMatrix.from_rows([[2]]))
        with pytest.raises(ValueError):
            hom_inverse(f)
