import random

import pytest
from hypothesis import example, given, settings, strategies as st

from twostage.linalg import (
    IntMatrix,
    _kernel_mod_2,
    _kernel_mod_p,
    block_diag,
    column_hermite,
    congruence_kernel,
    hstack,
    integer_kernel,
    smith_normal_form,
)

from helpers import (
    det_leibniz,
    in_span_small,
    kernel_vectors_in_box,
    kronecker,
    minor_gcd_diagonal,
    random_unimodular,
    rank_fraction_free,
    reference_column_hermite,
    reference_congruence_kernel,
    reference_integer_kernel,
    reference_smith_normal_form,
)


def small_matrices(max_dim=5, lo=-9, hi=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.integers(lo, hi), min_size=r * c, max_size=r * c).map(
                lambda flat: IntMatrix(r, c, flat)
            )
        )
    )


@st.composite
def smith_inputs(draw):
    """Shapes 0..12 x 0..12, sparse or dense, small or large entries of
    either sign, a common factor (so no unit entry) and whole zero rows and
    columns, each by chance."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**6), 10**6))
    flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    factor = draw(st.sampled_from([1, 1, -1, 2, 3, -4, 6]))
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    zero_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    return IntMatrix.from_rows(
        [[0 if zero_rows[i] or zero_cols[j] else factor * flat[i * cols + j] for j in range(cols)] for i in range(rows)],
        cols=cols,
    )


class TestIntMatrix:
    def test_construction_rejects_floats(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [1.5])

    def test_construction_rejects_bad_count(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])

    def test_matmul_and_apply_agree(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        x = (7, -1)
        col = IntMatrix.from_columns([x])
        assert (a @ col).column(0) == a.apply(x)

    def test_empty_shapes(self):
        z = IntMatrix.zeros(0, 3)
        assert z.transpose().shape == (3, 0)
        assert (z @ IntMatrix.zeros(3, 2)).shape == (0, 2)
        assert IntMatrix.identity(0).shape == (0, 0)

    def test_stacking(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[3, 4]])
        assert hstack(a, b).row(0) == (1, 2, 3, 4)

    def test_kronecker_shape_and_values(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[1, 0], [0, 1]])
        k = kronecker(a, b)
        assert k.shape == (2, 4)
        assert k.to_rows() == [[1, 0, 2, 0], [0, 1, 0, 2]]

    def test_block_diag(self):
        d = block_diag([IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])])
        assert d.to_rows() == [[2, 0], [0, 3]]


class TestSmithNormalForm:
    def test_worked_example(self):
        # diag(2, 4): first divisor gcd(2,4,6,8)=2, product |det| = 8.
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        dec = smith_normal_form(m)
        assert dec.diagonal == (2, 4)
        assert dec.u @ m @ dec.v == dec.s

    def test_divisibility_fixup(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert smith_normal_form(m).diagonal == (1, 6)

    def test_zero_matrix(self):
        dec = smith_normal_form(IntMatrix.zeros(2, 3))
        assert dec.diagonal == (0, 0)
        assert dec.rank == 0

    def test_empty_matrix(self):
        dec = smith_normal_form(IntMatrix.zeros(0, 4))
        assert dec.diagonal == ()
        assert dec.s.shape == (0, 4)

    @settings(max_examples=250, deadline=None)
    @given(small_matrices())
    def test_contract(self, m):
        dec = smith_normal_form(m)
        # u m v = s with u, v unimodular
        assert dec.u @ m @ dec.v == dec.s
        assert dec.u.rows == m.rows and dec.v.rows == m.cols
        assert abs(det_leibniz(dec.u)) == 1
        assert abs(det_leibniz(dec.v)) == 1
        # tracked inverses really invert
        assert dec.u @ dec.u_inv == IntMatrix.identity(m.rows)
        # s diagonal, non-negative, divisibility chain, zeros trailing
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
        # diagonal pinned by determinantal divisors, independent oracle
        assert list(diag) == minor_gcd_diagonal(m)
        assert dec.rank == rank_fraction_free(m)

    @settings(max_examples=300, deadline=None)
    @given(smith_inputs())
    @example(IntMatrix.from_rows([[2, 0], [0, 3]]))
    @example(IntMatrix.from_rows([[-4, 6, 0], [0, 0, 0], [10, -14, 0]]))
    @example(IntMatrix.zeros(0, 5))
    def test_matches_the_reference_entry_for_entry(self, m):
        got, want = smith_normal_form(m), reference_smith_normal_form(m)
        assert (got.s, got.u, got.v, got.u_inv) == (want.s, want.u, want.v, want.u_inv)

    @settings(max_examples=300, deadline=None)
    @given(smith_inputs())
    @example(IntMatrix.zeros(0, 3))
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.from_rows([[2, 4], [6, 8], [0, 0], [-3, 5], [1, 0]]))
    @example(IntMatrix.from_rows([[-4, 6, 0], [0, 0, 0], [10, -14, 0]]))
    def test_replayed_rows_and_columns_match_the_reference(self, m):
        """The rows of u and columns of u^-1 at a set of slots, replayed
        from the log, are the reference's entry for entry, and replaying
        builds neither matrix."""
        got, want = smith_normal_form(m), reference_smith_normal_form(m)
        for slots in (range(m.rows), range(0, m.rows, 2)):
            rows, columns = got.slot_transforms(slots)
            for i in slots:
                assert tuple(entries.get(i, 0) for entries in rows) == want.u.row(i)
                assert tuple(entries.get(i, 0) for entries in columns) == want.u_inv.column(i)
            assert all(entries.keys() <= set(slots) for entries in rows + columns)
        assert not {"s", "u", "v", "u_inv"} & vars(got).keys()
        assert (got.diagonal, got.rank) == (want.diagonal, want.rank)

    def test_deterministic_repeat(self):
        m = IntMatrix.from_rows([[6, 4, 2], [2, 8, 10], [4, 2, 6]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.s == second.s and first.u == second.u and first.v == second.v


class TestIntegerKernel:
    def test_worked_example(self):
        # 2x - y = 0 forces (x, y) in Z*(1, 2).
        k = integer_kernel(IntMatrix.from_rows([[2, -1]]))
        assert k.to_rows() == [[1], [2]]

    def test_full_kernel_of_zero_map(self):
        k = integer_kernel(IntMatrix.zeros(1, 2))
        assert k == IntMatrix.identity(2)

    def test_trivial_kernel(self):
        k = integer_kernel(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert k.shape == (2, 0)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices(max_dim=4, lo=-4, hi=4))
    def test_contract(self, m):
        k = integer_kernel(m)
        assert k.rows == m.cols
        assert m @ k == IntMatrix.zeros(m.rows, k.cols)
        assert k.cols == m.cols - rank_fraction_free(m)
        # basis columns are primitive as a lattice: every small kernel
        # vector must be an integer combination of them
        if m.cols <= 3:
            basis = list(k.transpose().data)
            for vec in kernel_vectors_in_box(m, 2):
                assert in_span_small(basis, vec, 6)

    def test_invariant_under_row_operations(self):
        rng = random.Random(3)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
            p = random_unimodular(rng, r)
            assert integer_kernel(m) == integer_kernel(p @ m)


@st.composite
def lattice_inputs(draw):
    """Shapes 0..6 x 0..6, entries -6..6, with whole zero rows and columns
    and repeated columns (so rank-deficient matrices), each by chance."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    flat = draw(st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols))
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    zero_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    copies = draw(st.lists(st.integers(0, max(cols - 1, 0)), min_size=cols, max_size=cols))
    repeat = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    source = [copies[j] if repeat[j] else j for j in range(cols)]
    return IntMatrix.from_rows(
        [
            [0 if zero_rows[i] or zero_cols[source[j]] else flat[i * cols + source[j]] for j in range(cols)]
            for i in range(rows)
        ],
        cols=cols,
    )


class TestLatticeBases:
    """``column_hermite`` and ``integer_kernel`` run on the sparse echelon;
    the dense Hermite pass and the Smith-based kernel they replaced are
    the references, entry for entry."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_inputs())
    @example(IntMatrix.zeros(0, 0))
    @example(IntMatrix.zeros(3, 0))
    @example(IntMatrix.zeros(0, 4))
    @example(IntMatrix.zeros(2, 3))
    @example(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 0]]))
    @example(IntMatrix.from_rows([[-6, 4, 0], [6, -4, 0], [3, 3, 0]]))
    def test_match_the_dense_references(self, m):
        assert column_hermite(m) == reference_column_hermite(m)
        assert integer_kernel(m) == reference_integer_kernel(m)


# Moduli whose lcm reaches primes, prime powers up to 2^5 and 3^3, and
# composites; row scales that make a row vanish mod p but not mod p^a.
CONGRUENCE_MODULI = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 18, 27, 32, 36]
ROW_SCALES = [1, 1, 1, 2, 3, 4, 8, 9, 0]


@st.composite
def congruence_systems(draw):
    """Sparse congruence systems: per-row moduli, entries negative or past
    the modulus, rows scaled by a prime power or to zero, empty columns,
    and now and then a row listed twice in one column."""
    k = draw(st.integers(0, 6))
    moduli = draw(st.lists(st.sampled_from(CONGRUENCE_MODULI), min_size=k, max_size=k))
    scales = draw(st.lists(st.sampled_from(ROW_SCALES), min_size=k, max_size=k))
    entry = st.tuples(st.integers(0, max(k - 1, 0)), st.integers(-80, 80))
    columns = draw(st.lists(st.lists(entry, max_size=4 if k else 0), max_size=7))
    return [[(i, x * scales[i]) for i, x in col] for col in columns], moduli


class TestCongruenceKernel:
    """``congruence_kernel`` reduces mod each prime and lifts; the column
    operations on [C; I] mod E it replaced are the reference."""

    @settings(max_examples=400, deadline=None)
    @given(congruence_systems())
    @example(([[], [], []], []))
    @example(([[(0, 3)], [(0, 6)], [(1, 9)]], [27, 9]))
    @example(([[(0, 2), (0, 2)], [(0, -4)], [(0, 64)]], [32]))
    @example(([[(0, 6), (1, 2)], [(0, 4), (1, 3)], [], [(1, 12)]], [36, 12]))
    @example(([[(0, 1), (1, 0)], [(1, 18)], [(0, 0)]], [2, 1]))
    # E prime, two pivots and three free unknowns: no Hermite pass.
    @example(([[(0, 1), (1, 3)], [(0, 2)], [(1, 4)], [(0, 3), (1, 1)], [(0, 4), (1, 2)]], [5, 5]))
    def test_matches_the_echelon_reference(self, system):
        columns, moduli = system
        assert congruence_kernel(columns, moduli) == reference_congruence_kernel(columns, moduli)

    def test_worked_example(self):
        # x + y even and 3y = 0 mod 6 (y even) leave x and y both even.
        k = congruence_kernel([[(0, 1)], [(0, 1), (1, 3)]], [2, 6])
        assert k == IntMatrix.from_columns([[2, 0], [0, 2]])
        k = congruence_kernel([[(0, 1)], [(0, 1)]], [2])
        assert k == IntMatrix.from_columns([[1, 1], [0, 2]])

    def test_no_congruences_and_no_columns(self):
        assert congruence_kernel([[], [], []], []) == IntMatrix.identity(3)
        assert congruence_kernel([], [4]).shape == (0, 0)

    def test_rejects_bad_congruences(self):
        with pytest.raises(ValueError):
            congruence_kernel([[(0, 1)], [(0, 1)]], [0])
        for row in (1, -1):
            with pytest.raises(ValueError):
                congruence_kernel([[(0, 1)], [(row, 1)]], [2])


def test_kernel_mod_2_on_bit_rows_matches_the_dict_rows():
    # _kernel_mod_p takes dict rows and _kernel_mod_2 int rows, one bit per
    # unknown; odd entries, negative ones among them, set a bit.  Each
    # pivot row leads at its key, and no other pivot row has that bit.
    rng = random.Random(2)
    for _ in range(200):
        width = rng.randint(1, 12)
        rows = [{k: rng.randint(-3, 3) for k in rng.sample(range(width), rng.randint(0, width))} for _ in range(rng.randint(0, 10))]
        bits = [sum(1 << k for k, x in r.items() if x % 2) for r in rows]
        pivots = _kernel_mod_2(bits)
        assert pivots == _kernel_mod_p(rows, 2)
        for b, row in pivots.items():
            assert row.bit_length() - 1 == b
            assert all(s >> b & 1 == 0 for u, s in pivots.items() if u != b)


class TestHermite:
    def test_canonical_for_row_lattice(self):
        rng = random.Random(11)
        for _ in range(80):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix(r, c, [rng.randint(-6, 6) for _ in range(r * c)])
            p = random_unimodular(rng, r)
            assert column_hermite(m.transpose()) == column_hermite((p @ m).transpose())

    def test_known_form(self):
        h = column_hermite(IntMatrix.from_rows([[0, 2], [3, 1]]).transpose())
        assert h.transpose().to_rows() == [[3, 1], [0, 2]]

    def test_column_variant(self):
        h = column_hermite(IntMatrix.from_columns([[0, 2], [3, 1]]))
        assert list(h.transpose().data) == [(3, 1), (0, 2)]

    def test_drops_zero_rows(self):
        h = column_hermite(IntMatrix.from_rows([[1, 2], [2, 4], [0, 0]]).transpose())
        assert h.transpose().to_rows() == [[1, 2]]


class TestSolve:
    def test_consistent_system(self):
        rng = random.Random(5)
        for _ in range(100):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix(r, c, [rng.randint(-6, 6) for _ in range(r * c)])
            x0 = [rng.randint(-4, 4) for _ in range(c)]
            b = m.apply(x0)
            x = smith_normal_form(m).solve(b)
            assert x is not None
            assert m.apply(x) == b

    def test_unsolvable_by_divisibility(self):
        assert smith_normal_form(IntMatrix.from_rows([[2]])).solve([3]) is None

    def test_unsolvable_by_rank(self):
        assert smith_normal_form(IntMatrix.from_rows([[1], [1]])).solve([1, 2]) is None
