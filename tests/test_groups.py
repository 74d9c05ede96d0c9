import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from twostage import pialgebra
from twostage.abelian import AbHom, FgAbGroup
from twostage.errors import SizeBoundError, ValidationError
from twostage.groups import FiniteGroup, GModule, _greedy_generators, automorphism_group
from twostage.linalg import IntMatrix

from helpers import (
    abelianization,
    brute_force_automorphisms,
    candidate_actions,
    direct_product,
    divisibility_chains,
    element_map,
    hom_equals,
    is_abelian,
    quaternion_group,
    reference_automorphism_group,
    reference_gmodule_violations,
    relabel,
    totient,
    violations_of,
)


def gmodule_violations(group, base, action) -> list:
    """The violations GModule reports, as ``(field, message, witness)``."""
    return violations_of(lambda: GModule(group, base, action)) or []


class TestFiniteGroupValidation:
    def test_identity_must_be_zero(self):
        with pytest.raises(ValidationError) as exc:
            FiniteGroup([[1, 0], [0, 1]])
        assert any(v.field == "group.identity" for v in exc.value.violations)

    def test_latin_square_required(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_nonassociative_loop_rejected_with_witness(self):
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError) as exc:
            FiniteGroup(loop)
        v = next(v for v in exc.value.violations if v.field == "group.associativity")
        a, g, b = v.witness["triple"]
        t = loop
        assert t[t[a][g]][b] != t[a][t[g][b]]

    def test_valid_cyclic(self):
        g = FiniteGroup.cyclic(6)
        assert g.order == 6
        assert g.element_order(1) == 6
        assert g.element_order(2) == 3
        assert g.inverse[1] == 5


class TestFromPermutations:
    def test_symmetric_group_order_and_determinism(self):
        g = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
        assert g.order == 6
        assert not is_abelian(g)
        again = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
        assert g.table == again.table

    def test_identity_first(self):
        g = FiniteGroup.from_permutations([(1, 2, 3, 0)])
        assert g.order == 4
        assert g.table[0] == (0, 1, 2, 3)

    def test_empty_generators_give_trivial_group(self):
        assert FiniteGroup.from_permutations([]).order == 1

    def test_order_bound(self):
        with pytest.raises(SizeBoundError):
            FiniteGroup.from_permutations([(1, 2, 3, 4, 0)], max_order=4)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            FiniteGroup.from_permutations([(0, 0, 1)])


class TestRelabelAndAbelianization:
    def test_relabel_is_isomorphic(self):
        g = FiniteGroup.cyclic(4)
        h = relabel(g, (0, 2, 1, 3))
        assert h.order == 4
        assert sorted(h.element_order(i) for i in range(4)) == sorted(g.element_order(i) for i in range(4))

    def test_relabel_must_fix_identity(self):
        with pytest.raises(ValueError):
            relabel(FiniteGroup.cyclic(3), (1, 0, 2))

    def test_abelianization_of_s3(self):
        s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
        assert abelianization(s3).normal_form == (0, (2,))

    def test_abelianization_of_abelian_group(self):
        assert abelianization(FiniteGroup.cyclic(4)).normal_form == (0, (4,))
        assert abelianization(FiniteGroup.from_cyclic_factors([2, 2])).normal_form == (0, (2, 2))

    def test_abelianization_of_quaternions(self):
        assert abelianization(quaternion_group()).normal_form == (0, (2, 2))


S3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
D4 = FiniteGroup.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)])
C2 = FiniteGroup.cyclic(2)
REFERENCE_GROUPS = [
    *[("x".join(map(str, chain)) or "1", FiniteGroup.from_cyclic_factors(chain)) for chain in divisibility_chains(16)],
    ("S3", S3),
    ("D4", D4),
    ("Q8", quaternion_group()),
    ("D5", FiniteGroup.from_permutations([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])),
    ("D6", FiniteGroup.from_permutations([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)])),
    ("A4", FiniteGroup.from_permutations([(1, 2, 0, 3), (0, 2, 3, 1)])),
    ("D8", FiniteGroup.from_permutations([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])),
    ("S3xC2", direct_product(S3, C2)),
    ("D4xC2", direct_product(D4, C2)),
    ("Q8xC2", direct_product(quaternion_group(), C2)),
]


def generated_subgroup(table, gens) -> set[int]:
    """The subgroup ``gens`` generate: the identity and ``gens`` closed
    under products of any two elements reached."""
    closure = {0, *gens}
    while True:
        new = {table[x][y] for x in closure for y in closure} - closure
        if not new:
            return closure
        closure |= new


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_GROUPS), st.randoms(use_true_random=False))
def test_greedy_generators_are_the_lowest_elements_outside_the_span_so_far(named, rng):
    _, group = named
    g = relabel(group, [0] + rng.sample(range(1, group.order), group.order - 1))
    gens = _greedy_generators(g.table)
    for k, x in enumerate(gens):
        assert x == min(set(range(g.order)) - generated_subgroup(g.table, gens[:k]))
    assert generated_subgroup(g.table, gens) == set(range(g.order))


class TestAutomorphismGroup:
    def test_matches_bruteforce(self):
        cases = [
            FiniteGroup.trivial(),
            FiniteGroup.cyclic(2),
            FiniteGroup.cyclic(3),
            FiniteGroup.cyclic(4),
            FiniteGroup.cyclic(6),
            FiniteGroup.from_cyclic_factors([2, 2]),
            FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)]),
            FiniteGroup.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)]),
            FiniteGroup.from_cyclic_factors([2, 4]),
            FiniteGroup.from_cyclic_factors([2, 2, 2]),
        ]
        for g in cases:
            assert set(automorphism_group(g)) == brute_force_automorphisms(g)
        # D4, C2 x C4 and C2^3
        assert [len(automorphism_group(g)) for g in cases[-3:]] == [8, 8, 168]

    def test_every_automorphism_is_a_homomorphism(self):
        # On D4 x C2 (greedy generators 1, 2, 3), 64 of the 128 generator
        # images that extend to a bijection along the search's spanning
        # tree are not homomorphisms; only the edge checks reject them.
        g = FiniteGroup.from_permutations([(1, 2, 3, 0, 4, 5), (0, 3, 2, 1, 4, 5), (0, 1, 2, 3, 5, 4)])
        auts = automorphism_group(g)
        assert len(auts) == 64
        t = g.table
        for p in auts:
            assert all(p[t[x][y]] == t[p[x]][p[y]] for x in range(g.order) for y in range(g.order))

    @pytest.mark.parametrize("name,group", REFERENCE_GROUPS, ids=[name for name, _ in REFERENCE_GROUPS])
    def test_matches_the_pairwise_reference(self, name, group):
        # C2^4 has 20160 automorphisms, so it is checked in its given labeling alone.
        rng = random.Random(name)
        for _ in range(1 if name == "2x2x2x2" else 3):
            perm = [0] + rng.sample(range(1, group.order), group.order - 1)
            g = relabel(group, perm)
            auts = automorphism_group(g)
            assert auts == reference_automorphism_group(g)
            if g.order <= 8:
                assert set(auts) == brute_force_automorphisms(g)

    def test_klein_four_has_six(self):
        assert len(automorphism_group(FiniteGroup.from_cyclic_factors([2, 2]))) == 6

    def test_quaternion_group_has_24(self):
        assert len(automorphism_group(quaternion_group())) == 24

    def test_cyclic_totient(self):
        for n in range(1, 17):
            auts = automorphism_group(FiniteGroup.cyclic(n))
            assert len(auts) == totient(n), n

    def test_closed_under_composition_and_inverse(self):
        for g in [FiniteGroup.from_cyclic_factors([2, 4]), quaternion_group()]:
            auts = set(automorphism_group(g))
            assert tuple(range(g.order)) in auts
            for p in auts:
                inv = [0] * g.order
                for i, x in enumerate(p):
                    inv[x] = i
                assert tuple(inv) in auts
                for q in auts:
                    assert tuple(p[q[i]] for i in range(g.order)) in auts

    def test_size_bound(self):
        with pytest.raises(SizeBoundError):
            automorphism_group(FiniteGroup.cyclic(100), max_order=64)


class TestGModule:
    def test_trivial_action(self):
        m = GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.cyclic(3))
        assert m.is_trivial_action()
        assert m.act(1, (2,)) == (2,)

    def test_negation_action(self):
        g = FiniteGroup.cyclic(2)
        base = FgAbGroup.cyclic(3)
        m = GModule(g, base, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
        assert not m.is_trivial_action()
        assert base.reduce(m.act(1, (1,))) == (2,)

    def test_rejects_non_multiplicative_action_with_witness(self):
        g = FiniteGroup.cyclic(2)
        base = FgAbGroup.cyclic(4)
        with pytest.raises(ValidationError) as exc:
            GModule(g, base, [IntMatrix.identity(1), IntMatrix.from_rows([[2]])])
        v = exc.value.violations[0]
        assert v.witness == {"g": 1, "h": 1, "gh": 0}

    def test_rejects_wrong_identity(self):
        g = FiniteGroup.cyclic(2)
        base = FgAbGroup.cyclic(5)
        with pytest.raises(ValidationError):
            GModule(g, base, [IntMatrix.from_rows([[2]]), IntMatrix.identity(1)])

    def test_rejects_infinite_base(self):
        with pytest.raises(ValidationError):
            GModule.trivial(FiniteGroup.cyclic(2), FgAbGroup.free(1))

    def test_rejects_non_endomorphism(self):
        g = FiniteGroup.cyclic(3)
        base = FgAbGroup.from_cyclic_factors([2, 4])
        bad = IntMatrix.from_rows([[0, 1], [1, 0]])  # sends C4 generator into C2 slot
        with pytest.raises(ValidationError):
            GModule(g, base, [IntMatrix.identity(2), bad, bad])


REBASED_Z2_Z4 = FgAbGroup(IntMatrix.from_rows([[4, 2], [0, 2]]))
# an automorphism of it whose square is not the identity
NOT_AN_INVOLUTION = next(
    f.matrix
    for f, _ in pialgebra.abelian_automorphisms(REBASED_Z2_Z4)
    if not hom_equals(f @ f, AbHom.identity(REBASED_Z2_Z4))
)


@pytest.mark.parametrize(
    "group,base",
    [
        (FiniteGroup.cyclic(2), FgAbGroup.cyclic(3)),
        (FiniteGroup.cyclic(3), FgAbGroup.cyclic(7)),
        (FiniteGroup.cyclic(4), FgAbGroup.cyclic(5)),
        (FiniteGroup.cyclic(4), FgAbGroup.from_cyclic_factors([2, 2])),
        (FiniteGroup.from_cyclic_factors([2, 2]), FgAbGroup.from_cyclic_factors([2, 2])),
        (FiniteGroup.cyclic(3), FgAbGroup.from_cyclic_factors([2, 2])),
        (FiniteGroup.from_cyclic_factors([2, 2]), REBASED_Z2_Z4),
        (FiniteGroup.cyclic(2), FgAbGroup.from_cyclic_factors([3, 3])),
    ],
    ids=["C2 on Z/3", "C3 on Z/7", "C4 on Z/5", "C4 on (Z/2)^2", "C2xC2 on (Z/2)^2", "C3 on (Z/2)^2",
         "C2xC2 on Z/2xZ/4 rebased", "C2 on (Z/3)^2"],
)
def test_action_checks_match_the_matrix_route(group, base):
    # Every assignment of automorphisms to the elements, the module
    # structures and the assignments breaking the action law alike.
    accepted = 0
    for action in candidate_actions(group, base):
        want = reference_gmodule_violations(group, base, action)
        assert gmodule_violations(group, base, action) == want
        if want:
            continue
        accepted += 1
        module = GModule(group, base, action)
        homs = [AbHom(base, base, m) for m in action]
        assert module.is_trivial_action() == all(hom_equals(h, AbHom.identity(base)) for h in homs)
        # the stored canonical matrices give the element maps pi_aut reads
        for h, images in zip(homs, module.canonical_action):
            assert base.element_map(images) == element_map(h)
    assert accepted


def s3_on_klein_four():
    """S3 acting faithfully on (Z/2)^2 (S3 = GL_2(F_2)), found from the
    images of its two generators, elements 1 and 2 of its table."""
    group = FiniteGroup.from_permutations([(1, 0, 2), (0, 2, 1)])
    base = FgAbGroup.from_cyclic_factors([2, 2])
    auts = [f.matrix for f, _ in pialgebra.abelian_automorphisms(base)]
    for a, b in itertools.product(auts, repeat=2):
        mats, frontier = {0: IntMatrix.identity(2)}, [0]
        while frontier:
            x = frontier.pop()
            for g, m in ((1, a), (2, b)):
                y = group.table[x][g]
                if y not in mats:
                    mats[y] = mats[x] @ m
                    frontier.append(y)
        action = [mats[g] for g in range(group.order)]
        if not reference_gmodule_violations(group, base, action):
            if len(set(GModule(group, base, action).canonical_action)) == group.order:
                return group, base, action
    raise AssertionError("no faithful action found")


S3, KLEIN_FOUR, FAITHFUL = s3_on_klein_four()


def test_a_faithful_nonabelian_action_is_accepted():
    assert gmodule_violations(S3, KLEIN_FOUR, FAITHFUL) == []


@pytest.mark.parametrize(
    "group,base,action",
    [
        # g -> action(g^-1) reverses products, so it breaks the law unless
        # composition is read in the wrong order
        (S3, KLEIN_FOUR, [FAITHFUL[S3.inverse[g]] for g in range(S3.order)]),
        # not an endomorphism: sends the C4 generator into the C2 slot
        (
            FiniteGroup.cyclic(3),
            FgAbGroup.from_cyclic_factors([2, 4]),
            [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.from_rows([[0, 1], [1, 0]])],
        ),
        # the identity element acts by 2, and the law breaks too
        (FiniteGroup.cyclic(2), FgAbGroup.cyclic(5), [IntMatrix.from_rows([[2]]), IntMatrix.identity(1)]),
        # a law-breaking pair past the first: g g = g^2 holds, g g^2 = g^3 does not
        (
            FiniteGroup.cyclic(4),
            FgAbGroup.cyclic(5),
            [IntMatrix.from_rows([[x]]) for x in (1, 2, 4, 2)],
        ),
        # on a rebased presentation, through lifts and reductions: g g = e
        # fails for an automorphism of order 4
        (FiniteGroup.cyclic(2), REBASED_Z2_Z4, [IntMatrix.identity(2), NOT_AN_INVOLUTION]),
    ],
    ids=["anti-homomorphism", "non-endomorphism", "identity", "law", "law rebased"],
)
def test_corrupted_actions_are_refused_like_the_matrix_route(group, base, action):
    want = reference_gmodule_violations(group, base, action)
    assert want
    assert gmodule_violations(group, base, action) == want
