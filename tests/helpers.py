"""Independent brute-force oracles used to cross-check the fast paths.

Everything in here is deliberately naive: permutation-expansion
determinants, gcds of explicitly enumerated minors, box enumeration of
lattice points.  None of it shares code with the package internals it
checks, which is the point.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import NamedTuple

from twostage.abelian import AbHom, FgAbGroup, Subquotient, _preimage_basis, direct_sum, kernel_subgroup
from twostage.cohomology import DEFAULT_MAX_ENUMERATION, Cocycle
from twostage.errors import SizeBoundError, ValidationError
from twostage.groups import FiniteGroup, GModule, _greedy_generators, automorphism_group
from twostage.linalg import IntMatrix, hstack, smith_normal_form
from twostage.pialgebra import QuadraticMap, TwoStageDim1N, abelian_automorphisms


def det_leibniz(m: IntMatrix) -> int:
    """Determinant by permutation expansion; only sane for n <= 6."""
    assert m.rows == m.cols
    n = m.rows
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def minor_gcd_diagonal(m: IntMatrix) -> list[int]:
    """Expected Smith diagonal from determinantal divisors.

    g_k = gcd of all k x k minors; the k-th Smith invariant is
    g_k / g_{k-1}.  This pins the diagonal down independently of any
    reduction strategy.
    """
    n = min(m.rows, m.cols)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows_idx in itertools.combinations(range(m.rows), k):
            for cols_idx in itertools.combinations(range(m.cols), k):
                sub = IntMatrix(k, k, [m[i, j] for i in rows_idx for j in cols_idx])
                g = gcd(g, det_leibniz(sub))
        if g == 0:
            diag.extend([0] * (n - len(diag)))
            return diag
        diag.append(g // prev)
        prev = g
    return diag


def rank_fraction_free(m: IntMatrix) -> int:
    """Rank by fraction-free elimination with full pivot search."""
    a = m.to_rows()
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    for t in range(min(rows, cols)):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
        rank += 1
    return rank


def kernel_vectors_in_box(m: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """All x with m @ x = 0 and every coordinate in [-bound, bound]."""
    out = []
    for x in itertools.product(range(-bound, bound + 1), repeat=m.cols):
        if all(v == 0 for v in m.apply(x)):
            out.append(x)
    return out


def in_span_small(basis_cols: list[tuple[int, ...]], target: tuple[int, ...], coeff_bound: int) -> bool:
    """Is target an integer combination of the basis columns, searching a box."""
    if not basis_cols:
        return all(v == 0 for v in target)
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis_cols)):
        vec = [0] * len(target)
        for c, col in zip(coeffs, basis_cols):
            for i, v in enumerate(col):
                vec[i] += c * v
        if tuple(vec) == target:
            return True
    return False


def random_unimodular(rng, n: int, steps: int = 12) -> IntMatrix:
    """Product of random elementary matrices; determinant is +-1."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            a[i], a[j] = a[j], a[i]
        elif kind == 1:
            q = rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        else:
            a[i] = [-x for x in a[i]]
    return IntMatrix.from_rows(a, cols=n)


def abelian_type_from_elements(elements, add, zero) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by explicit elements.

    Uses only order counting: for each prime p, the number of solutions of
    p^j * x = 0 determines the partition shape of the p-part.  No matrices.
    """
    n = len(elements)
    factors_by_prime = {}
    residue = n
    p = 2
    primes = []
    while p * p <= residue:
        if residue % p == 0:
            primes.append(p)
            while residue % p == 0:
                residue //= p
        p += 1
    if residue > 1:
        primes.append(residue)
    for p in primes:
        part_size = 1
        m = n
        while m % p == 0:
            part_size *= p
            m //= p
        counts = []
        multiples = list(elements)  # multiples[i] = p^j * elements[i]
        while True:
            for i, y in enumerate(multiples):
                acc = y
                for _ in range(p - 1):
                    acc = add(acc, y)
                multiples[i] = acc
            cnt = sum(1 for y in multiples if y == zero)
            e = 0
            c = cnt
            while c % p == 0:
                e += 1
                c //= p
            assert c == 1, "subgroup size must be a p-power"
            counts.append(e)
            if cnt == part_size:
                break
        conj = [counts[0]] + [counts[i] - counts[i - 1] for i in range(1, len(counts))]
        lam = []
        i = 1
        while True:
            parts_ge_i = sum(1 for c in conj if c >= i)
            if parts_ge_i == 0:
                break
            lam.append(parts_ge_i)
            i += 1
        factors_by_prime[p] = sorted(lam, reverse=True)
    width = max((len(v) for v in factors_by_prime.values()), default=0)
    invs = []
    for slot in range(width):
        d = 1
        for p, lam in factors_by_prime.items():
            if slot < len(lam):
                d *= p ** lam[slot]
        invs.append(d)
    return tuple(sorted(invs))


class ReferenceSnf(NamedTuple):
    """A Smith form ``u @ m @ v == s`` given by its four matrices."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s.data[i][i] for i in range(min(self.s.shape)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def reference_smith_normal_form(m: IntMatrix) -> ReferenceSnf:
    """Diagonalize ``m`` over Z by unimodular row and column operations:
    the package's Smith form as it was before it stopped its pivot search
    at a unit and moved to sparse rows, every row kept dense and every
    update a loop over all of it.  The package's form must match it entry
    for entry, in s, u, v and u_inv.

    Pivot selection is the nonzero entry of smallest absolute value in the
    remaining submatrix, ties broken by lowest (row, column), which makes
    the output reproducible run to run.  Before a pivot is accepted, every
    entry of the remaining submatrix is forced to be divisible by it (by
    folding an offending row into the pivot row), so the diagonal comes out
    in a divisibility chain without a separate fix-up pass.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    u_inv = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        # row i += q * row j; inverse transform tracked on u_inv columns.
        if q == 0:
            return
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= q * r[i]

    def col_addmul(j, k, q):
        # col j += q * col k
        if q == 0:
            return
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Deterministic pivot: minimal |entry|, ties by lowest (row, col).
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])

        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_addmul(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_addmul(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                # Some remainder survived; it is smaller than the pivot, so
                # re-picking the pivot strictly shrinks |pivot| and terminates.
                best = None
                for i in range(t, rows):
                    for j in range(t, cols):
                        x = a[i][j]
                        if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                            best = (i, j)
                if best[0] != t:
                    row_swap(t, best[0])
                if best[1] != t:
                    col_swap(t, best[1])
                continue
            # Column and row at t are clear; force pivot | submatrix.
            p = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            row_negate(i)

    return ReferenceSnf(
        IntMatrix.from_rows(a, cols=cols),
        IntMatrix.from_rows(u, cols=rows),
        IntMatrix.from_rows(v, cols=cols),
        IntMatrix.from_rows(u_inv, cols=rows),
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def reference_column_hermite(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of ``m``: the package's dense
    Hermite routine as it was before lattice bases moved to the sparse
    echelon, run as a row Hermite form of the transpose (pivots positive
    in strictly increasing columns, entries above each pivot reduced into
    [0, pivot), zero rows dropped)."""
    work = m.transpose().to_rows()
    nrows, ncols = len(work), m.rows
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, nrows):
            if work[i][c] == 0:
                continue
            g, x, y = _xgcd(work[r][c], work[i][c])
            p, q = work[r][c] // g, work[i][c] // g
            new_r = [x * rv + y * iv for rv, iv in zip(work[r], work[i])]
            new_i = [-q * rv + p * iv for rv, iv in zip(work[r], work[i])]
            work[r], work[i] = new_r, new_i
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q != 0:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == nrows:
            break
    return IntMatrix.from_rows(work[:r], cols=ncols).transpose()


def reference_integer_kernel(m: IntMatrix) -> IntMatrix:
    """Hermite basis of {x : m @ x = 0} the way the package found it before
    kernels moved to the sparse echelon: the columns of v beyond the rank of
    a Smith form u m v = s, made canonical by the dense Hermite pass."""
    dec = reference_smith_normal_form(m)
    basis = IntMatrix.from_columns([dec.v.column(j) for j in range(dec.rank, m.cols)], rows=m.cols)
    return reference_column_hermite(basis)


def reference_congruence_kernel(columns, moduli) -> IntMatrix:
    """Column Hermite basis of {x : sum_j x_j c_j = 0 mod d_i in every row i}
    the way the package found it before the mod p route: with E the lcm of
    the moduli and C the columns, each row scaled to modulus E, the lattice
    of [C; I] and E * Z^(k + n) is put in sparse lower echelon form by
    column operations mod E, and its columns pivoting below row k, cut to
    the last n rows and reduced, are the answer (Domich, Kannan and Trotter
    1987; Cohen, Alg. 2.4.8)."""
    exponent = 1
    for d in moduli:
        if d < 1:
            raise ValueError(f"congruence modulus must be positive, got {d}")
        exponent = lcm(exponent, d)
    top, e = len(moduli), exponent
    pending = [[] for _ in range(top + len(columns))]
    for j, col in enumerate(columns):
        g = {top + j: 1}
        for i, x in col:
            if not 0 <= i < top:
                raise ValueError(f"congruence row {i} outside the {top} moduli")
            g[i] = g.get(i, 0) + x * (exponent // moduli[i])
        g = _ref_scaled(g, 1, e)
        if g:
            pending[min(g)].append(g)
    basis = []
    for i, hits in enumerate(pending):
        # fold the columns whose first entry is in row i by gcd steps, then
        # adjoin e * e_i: the pivot is gcd(w_i, e), and (e / d) w goes down
        w = hits[0] if hits else {}
        for x in hits[1:]:
            a, b = w[i], x[i]
            if b % a == 0:
                _ref_axpy(x, -(b // a), w, e)
            else:
                g, s, t = _xgcd(a, b)
                w, x = _ref_combine(w, s, x, t, e), _ref_combine(w, -(b // g), x, a // g, e)
            if x:
                pending[min(x)].append(x)
        d, s, _ = _xgcd(w.get(i, 0), e)
        rest = _ref_scaled(w, e // d, e)
        if rest:
            pending[min(rest)].append(rest)
        w = _ref_scaled(w, s, e)
        w[i] = d
        basis.append(w)
    kernel = [{i - top: x for i, x in col.items()} for col in basis[top:]]
    for i, bi in enumerate(kernel):
        for bj in kernel[:i]:
            q = bj.get(i, 0) // bi[i]
            if q:
                _ref_axpy(bj, -q, bi, e)
    return IntMatrix.from_columns([[col.get(i, 0) for i in range(len(columns))] for col in kernel], rows=len(columns))


def reference_slot_values(group: FgAbGroup, vector) -> list[tuple[int, int]]:
    """A vector, given by ``(generator, value)`` pairs, in every coordinate
    slot i of ``group``: the pairs (i, u_i . x), zeros kept, with x the
    dense vector and u_i the slot's row of the group's Smith transform."""
    x = [0] * group.ngens
    for j, v in vector:
        x[j] += v
    return [(i, sum(c * x[j] for j, c in group._u_rows[i])) for i in group._coord_slots]


def reference_first_nonzero(f: AbHom, vectors) -> int | None:
    """The index of the first of ``vectors`` (``(generator, value)`` pairs)
    that f does not kill, or None: each vector made dense, multiplied by
    f's dense matrix, and reduced by the target, one vector at a time."""
    for t, vector in enumerate(vectors):
        x = [0] * f.source.ngens
        for j, v in vector:
            x[j] += v
        if any(f.target.reduce(f.matrix.apply(x))):
            return t
    return None


def reference_subquotient_presentation(complex_, k: int) -> IntMatrix:
    """The presentation of ``homology_at(complex_, k)``'s group, for k below
    the top of the complex, the way the package built it before the path
    from the kernel to the Smith form stayed sparse: the Hermite basis of
    ker d_k read as a dense matrix, each denominator column (the relations
    of C^k, then the columns of d_(k-1)) solved against it by forward
    substitution on dense vectors, and the solutions, one column each,
    transposed into the rows the Smith form eliminates."""
    group = complex_.groups[k]
    columns = _preimage_basis(complex_.maps[k]).transpose().to_rows()
    pivots = [next(i for i, x in enumerate(col) if x) for col in columns]
    denominator = list(group.relation_columns) + (list(complex_.maps[k - 1].columns) if k else [])
    solutions = []
    for sparse in denominator:
        v = [0] * group.ngens
        for i, x in sparse:
            v[i] = x
        c = []
        for p, col in zip(pivots, columns):
            q, r = divmod(v[p], col[p])
            assert r == 0, "denominator column outside the numerator lattice"
            if q:
                v = [a - q * b for a, b in zip(v, col)]
            c.append(q)
        assert not any(v), "denominator column outside the numerator lattice"
        solutions.append(c)
    return IntMatrix.from_rows(solutions, cols=len(columns)).transpose()


def _ref_axpy(target: dict, f: int, source: dict, e: int) -> None:
    for i, y in source.items():
        z = (target.get(i, 0) + f * y) % e
        if z:
            target[i] = z
        else:
            target.pop(i, None)


def _ref_scaled(a: dict, s: int, e: int) -> dict:
    return {i: s * x % e for i, x in a.items() if s * x % e}


def _ref_combine(a: dict, s: int, b: dict, t: int, e: int) -> dict:
    out = _ref_scaled(a, s, e)
    _ref_axpy(out, t, b, e)
    return out


def reference_oracle_cohomology(
    module: GModule,
    k: int,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
    normalized: bool = True,
) -> tuple[int, ...]:
    """H^k(G; M) as invariant factors, by sheer enumeration: the
    enumeration oracle as it was before it numbered elements by index,
    cochains as dicts from tuples to coordinate tuples and df built in
    full before it is tested.

    Enumerates every cochain function, filters cocycles pointwise, builds
    the coset space modulo coboundaries, and reads off the isomorphism
    type by counting element orders.  No matrices are involved at any
    point, which is what makes this an independent check on the Smith
    normal form route.  ``normalized=False`` enumerates unnormalized
    cochains (functions on all tuples, nothing dropped) as a debugging
    cross-check; the answer must be the same.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    group = module.group
    base = module.base
    n = group.order
    domain = list(range(1, n)) if normalized else list(range(n))
    # Size both enumerations, degree k and then k-1, before building any.
    for count in (base.order ** (len(domain) ** j) for j in (k, k - 1) if j >= 0):
        if count > max_enumeration:
            raise SizeBoundError("oracle enumeration too large", requested=count, bound=max_enumeration)

    elems = base.element_coords()
    moduli = base.coordinate_moduli()
    zero = tuple([0] * len(moduli))

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    def neg(a):
        return tuple((-x) % m for x, m in zip(a, moduli))

    act_table = []
    for g in range(n):
        mapping = {}
        for e in elems:
            mapping[e] = base.reduce(module.act(g, base.lift(e)))
        act_table.append(mapping)

    tuples_k = list(itertools.product(domain, repeat=k))
    tuples_km1 = list(itertools.product(domain, repeat=k - 1)) if k >= 1 else []

    def coboundary(f: dict, deg: int) -> tuple:
        """df as a tuple of values aligned with the (deg+1)-tuple list."""
        out = []
        for s in itertools.product(domain, repeat=deg + 1):
            tail_val = _lookup(f, s[1:], normalized, zero)
            acc = act_table[s[0]][tail_val]
            sign = -1
            for i in range(deg):
                merged = group.table[s[i]][s[i + 1]]
                t = s[:i] + (merged,) + s[i + 2 :]
                val = _lookup(f, t, normalized, zero)
                acc = add(acc, val if sign > 0 else neg(val))
                sign = -sign
            val = _lookup(f, s[:-1], normalized, zero)
            acc = add(acc, val if sign > 0 else neg(val))
            out.append(acc)
        return tuple(out)

    # all cocycles in degree k
    cocycles = []
    for values in itertools.product(elems, repeat=len(tuples_k)):
        f = dict(zip(tuples_k, values))
        if all(v == zero for v in coboundary(f, k)):
            cocycles.append(values)

    # all coboundaries from degree k-1
    if k == 0:
        boundaries = {tuple([zero] * len(tuples_k))}
    else:
        boundaries = set()
        for values in itertools.product(elems, repeat=len(tuples_km1)):
            f = dict(zip(tuples_km1, values))
            db = coboundary(f, k - 1)
            boundaries.add(tuple(db))

    # coset representatives, then isomorphism type by order counting
    rep_of = {}
    cosets = []
    for z in sorted(cocycles):
        if z in rep_of:
            continue
        cosets.append(z)
        for b in boundaries:
            shifted = tuple(add(zv, bv) for zv, bv in zip(z, b))
            rep_of[shifted] = z
    zero_fn = rep_of[tuple([zero] * len(tuples_k))]

    def add_cosets(c1, c2):
        return rep_of[tuple(add(a, b) for a, b in zip(c1, c2))]

    return abelian_type_from_elements(cosets, add_cosets, zero_fn)


def reference_cocycle_filter(size: int, slots: int, checks: list, decode) -> list[tuple[int, ...]]:
    """The enumeration oracle's cocycle filter as it was before the
    depth-first search: every cochain of ``itertools.product`` order is
    listed, and its stencil rows are evaluated in turn up to the first
    nonzero one."""
    cocycles = []
    for f in itertools.product(range(size), repeat=slots):
        for row in checks:
            total = 0
            for table, slot in row:
                total += table[f[slot]]
            if decode(total):
                break
        else:
            cocycles.append(f)
    return cocycles


def _lookup(f: dict, t: tuple, normalized: bool, zero):
    if normalized and any(g == 0 for g in t):
        return zero
    return f[t]


def candidate_actions(group, base) -> list:
    """Every assignment of coefficient automorphisms (as matrices on the
    generators) to the group elements, identity at element 0."""
    auts = [h.matrix for h, _ in abelian_automorphisms(base)]
    return [
        [IntMatrix.identity(base.ngens)] + [auts[i] for i in choice]
        for choice in itertools.product(range(len(auts)), repeat=group.order - 1)
    ]


def module_structures(group, base):
    """Every module structure on ``base``: all assignments of coefficient
    automorphisms to group elements that satisfy the action axioms."""
    found = []
    for mats in candidate_actions(group, base):
        try:
            found.append(GModule(group, base, mats))
        except ValidationError:
            continue
    return found


def violations_of(build) -> list | None:
    """The violations ``build()`` is refused with, as ``(field, message,
    witness)``, or None when it is not refused."""
    try:
        build()
    except ValidationError as e:
        assert e.code == "E_VALIDATION"
        return [(v.field, v.message, v.witness) for v in e.violations]
    return None


def reference_gmodule_violations(group, base, action) -> list:
    """The violations a module structure breaks, as ``(field, message,
    witness)``, by the matrix route: each matrix validated as an ``AbHom``,
    the identity compared with ``equals``, and all |G|^2 products
    ``action(g) @ action(h)`` compared with ``action(gh)``, stopping at the
    first failing pair in table order.  Empty when the action is valid."""
    violations = []
    homs = []
    for g, mat in enumerate(action):
        try:
            homs.append(AbHom(base, base, mat))
        except ValidationError:
            violations.append(("module.action", f"matrix for element {g} is not an endomorphism", {"element": g}))
    if violations:
        return violations
    if not hom_equals(homs[0], AbHom.identity(base)):
        violations.append(("module.action", "identity element must act as the identity", None))
    n = group.order
    failing = next(
        ((g, h) for g in range(n) for h in range(n) if not hom_equals(homs[g] @ homs[h], homs[group.table[g][h]])),
        None,
    )
    if failing is not None:
        g, h = failing
        witness = {"g": g, "h": h, "gh": group.table[g][h]}
        violations.append(("module.action", "action(g) after action(h) differs from action(g h)", witness))
    return violations


def cyclic_periodic_cohomology(order: int, moduli, generator, kmax: int) -> list[tuple[int, ...]]:
    """Invariant factors of H^k(C_order; M) for k = 0..kmax, by the periodic
    resolution of Z over Z[C_m] (Brown, *Cohomology of Groups*, GTM 87,
    III.1): H^0 = M^G, H^(2i) = M^G / NM and H^(2i+1) = ker N / (g-1)M,
    with N = 1 + g + ... + g^(m-1).

    M = Z/moduli[0] x Z/moduli[1] x ... on coordinate tuples, and the
    generator g acts by the integer matrix ``generator`` (a list of rows).
    Brute force over the elements of M, with subgroups, cosets and orders
    counted by hand; nothing from the package's cohomology, linear algebra
    or abelian groups."""
    elements = list(itertools.product(*(range(d) for d in moduli)))
    zero = tuple(0 for _ in moduli)

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, moduli))

    def act(x):
        return tuple(sum(c * a for c, a in zip(row, x)) % d for row, d in zip(generator, moduli))

    def norm(x):
        total = zero
        for _ in range(order):
            total = add(total, x)
            x = act(x)
        return total

    def quotient(numerator, denominator):
        # each class by its least element
        rep = {x: min(add(x, y) for y in denominator) for x in numerator}
        classes = sorted(set(rep.values()))
        return abelian_type_from_elements(classes, lambda a, b: rep[add(a, b)], rep[zero])

    fixed = [x for x in elements if act(x) == x]
    norms = {norm(x) for x in elements}
    kernel = [x for x in elements if norm(x) == zero]
    differences = {add(act(x), tuple(-a % d for a, d in zip(x, moduli))) for x in elements}
    out = []
    for k in range(kmax + 1):
        if k == 0:
            out.append(abelian_type_from_elements(fixed, add, zero))
        elif k % 2 == 0:
            out.append(quotient(fixed, norms))
        else:
            out.append(quotient(kernel, differences))
    return out


def enumerate_homs_bruteforce(a, b) -> set:
    """Canonical keys of all homomorphisms A -> B, both finite.

    Tries every assignment of generator images and keeps those that kill
    every relation of A.  Completely independent of the kernel-lattice
    route of ``reference_hom`` and of the closed form of ``hom_group``.
    """
    import itertools as _it

    b_elems = b.elements()
    keys = set()
    for images in _it.product(b_elems, repeat=a.ngens):
        ok = True
        for j in range(a.presentation.cols):
            rel = a.presentation.column(j)
            acc = [0] * b.ngens
            for coeff, img in zip(rel, images):
                for i, x in enumerate(img):
                    acc[i] += coeff * x
            if not b.is_zero(acc):
                ok = False
                break
        if ok:
            keys.add(tuple(b.reduce(img) for img in images))
    return keys


def homology_bruteforce(complex_, k) -> tuple[int, ...]:
    """Invariant factors of ker/im at slot k by explicit enumeration."""
    g = complex_.groups[k]
    elems = g.elements()
    if k < len(complex_.maps):
        d_out = complex_.maps[k]
        cocycles = [x for x in elems if d_out.target.is_zero(d_out(x))]
    else:
        cocycles = list(elems)
    if k > 0:
        d_in = complex_.maps[k - 1]
        boundaries = {g.reduce(d_in(y)) for y in complex_.groups[k - 1].elements()}
    else:
        boundaries = {g.reduce([0] * g.ngens)}
    # cosets of the boundary subgroup inside the cocycle subgroup
    cocycle_keys = {g.reduce(x) for x in cocycles}
    reps = {}
    for key in sorted(cocycle_keys):
        if key in reps:
            continue
        vec = g.lift(key)
        for b in boundaries:
            bv = g.lift(b)
            shifted = g.reduce([p + q for p, q in zip(vec, bv)])
            reps[shifted] = key
    cosets = sorted(set(reps.values()))
    index = {key: reps[key] for key in cocycle_keys}

    def add(c1, c2):
        v1, v2 = g.lift(c1), g.lift(c2)
        return index[g.reduce([p + q for p, q in zip(v1, v2)])]

    zero = index[g.reduce([0] * g.ngens)]
    return abelian_type_from_elements(cosets, add, zero)


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def brute_force_automorphisms(group) -> set:
    """All automorphisms by filtering every permutation fixing the identity."""
    n = group.order
    table = group.table
    out = set()
    for perm in itertools.permutations(range(1, n)):
        phi = (0,) + perm
        if all(phi[table[i][j]] == table[phi[i]][phi[j]] for i in range(n) for j in range(n)):
            out.add(phi)
    return out


def reference_automorphism_group(group) -> list[tuple[int, ...]]:
    """All automorphisms, sorted: images of the greedy generators, each
    prefix's candidate map closed over right multiplication on the subgroup
    the prefix generates, then checked on every pair of that subgroup's
    elements.  The package's search checks generator edges alone."""
    n = group.order
    table = group.table
    gens = _greedy_generators(table)
    if not gens:
        return [(0,)]
    orders = [group.element_order(i) for i in range(n)]
    prefix_subgroups = []
    for k in range(1, len(gens) + 1):
        closure = {0}
        frontier = [0]
        for g in gens[:k]:
            if g not in closure:
                closure.add(g)
                frontier.append(g)
        while frontier:
            x = frontier.pop()
            for y in list(closure):
                for z in (table[x][y], table[y][x]):
                    if z not in closure:
                        closure.add(z)
                        frontier.append(z)
        prefix_subgroups.append(sorted(closure))
    candidates_per_gen = [[i for i in range(n) if orders[i] == orders[g]] for g in gens]
    results = []

    def extend(k, images):
        for img in candidates_per_gen[k]:
            sub = prefix_subgroups[k]
            imgs = images + [img]
            partial = {0: 0}
            queue = [0]
            while queue:
                x = queue.pop()
                for pos in range(k + 1):
                    y = table[x][gens[pos]]
                    if y not in partial:
                        partial[y] = table[partial[x]][imgs[pos]]
                        queue.append(y)
            ok = len(set(partial.values())) == len(sub) and all(
                partial[table[x][y]] == table[partial[x]][partial[y]] for x in sub for y in sub
            )
            if ok and k + 1 == len(gens):
                results.append(tuple(partial[x] for x in range(n)))
            elif ok:
                extend(k + 1, imgs)

    extend(0, [])
    return sorted(results)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H, element (x, y) at index x |H| + y."""
    m = h.order
    return FiniteGroup(
        [
            [g.table[a // m][b // m] * m + h.table[a % m][b % m] for b in range(g.order * m)]
            for a in range(g.order * m)
        ]
    )


def is_abelian(group) -> bool:
    n = group.order
    table = group.table
    return all(table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n))


def abelianization(group) -> FgAbGroup:
    """G made abelian: generators are the non-identity elements, one
    relation g + h - gh per pair."""
    n = group.order
    if n == 1:
        return FgAbGroup.trivial()
    cols = []
    for i in range(1, n):
        for j in range(1, n):
            col = [0] * (n - 1)
            col[i - 1] += 1
            col[j - 1] += 1
            p = group.table[i][j]
            if p != 0:
                col[p - 1] -= 1
            cols.append(col)
    return FgAbGroup(IntMatrix.from_columns(cols, rows=n - 1))


def hom_equals(f: AbHom, g: AbHom) -> bool:
    """f and g have the same source and target presentations and agree on
    every generator, modulo the target's relations."""
    if not (f.source.same_presentation(g.source) and f.target.same_presentation(g.target)):
        return False
    columns = zip(f.matrix.transpose().data, g.matrix.transpose().data)
    return all(f.target.is_zero([x - y for x, y in zip(a, b)]) for a, b in columns)


def cokernel(f: AbHom) -> FgAbGroup:
    return FgAbGroup(hstack(f.target.presentation, f.matrix))


def is_surjective(f: AbHom) -> bool:
    return cokernel(f).normal_form == (0, ())


def is_injective(f: AbHom) -> bool:
    return kernel_subgroup(f).group.normal_form == (0, ())


def is_isomorphic(a: FgAbGroup, b: FgAbGroup) -> bool:
    return a.normal_form == b.normal_form


def is_bijective(f: AbHom) -> bool:
    """The Smith-form test: trivial cokernel and trivial kernel."""
    return is_surjective(f) and is_injective(f)


def relabel(group: FiniteGroup, perm) -> FiniteGroup:
    """The isomorphic group with element i renamed to perm[i]."""
    n = group.order
    perm = tuple(perm)
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        raise ValueError("relabeling must be a permutation fixing the identity")
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[group.table[i][j]]
    return FiniteGroup(new)


def element_map(f: AbHom) -> tuple[int, ...]:
    """A homomorphism of finite groups as the positions, in the target's
    ``element_coords()`` order, of the images of the source's elements in
    that order: the definition the package's element maps are checked
    against.  Every element is evaluated from the map's canonical key."""
    return element_maps([f])[0]


def element_maps(maps) -> list[tuple[int, ...]]:
    """``element_map`` of each of ``maps``, which share one source and one
    target.  Each element x, in the source's generator coordinates, is
    evaluated one target coordinate at a time from the images of the
    source's generators (the canonical key): f(x)_l = sum_j x_j key[j][l]
    mod d_l, times the stride of coordinate l."""
    source, target = maps[0].source, maps[0].target
    if not all(f.source.same_presentation(source) and f.target.same_presentation(target) for f in maps):
        raise ValueError("maps do not share one source and one target")
    elements = source.elements()
    columns = list(zip(*elements))  # x_j for every element x
    coordinates = list(enumerate(zip(target.invariant_factors, target.strides)))
    out = []
    for f in maps:
        key = f.canonical_key()
        points = [0] * len(elements)
        for l, (d, stride) in coordinates:
            terms = [[x * c for x in xs] for xs, c in zip(columns, [y[l] for y in key])] or [[0] * len(elements)]
            values = terms[0] if len(terms) == 1 else [sum(t) for t in zip(*terms)]
            coordinate = [v % d * stride for v in values]
            points = coordinate if l == 0 else [p + c for p, c in zip(points, coordinate)]
        out.append(tuple(points))
    return out


def hom_inverse(f: AbHom) -> AbHom:
    """The two-sided inverse of an isomorphism.

    Solves f(x_j) = e_j for each target generator over the lattice
    spanned by the matrix columns and the target relations; a right
    inverse of an injective map is automatically two-sided.
    """
    if not is_bijective(f):
        raise ValueError("homomorphism is not invertible")
    dec = smith_normal_form(hstack(f.matrix, f.target.presentation))
    cols = []
    for j in range(f.target.ngens):
        e = [0] * f.target.ngens
        e[j] = 1
        sol = dec.solve(e)
        if sol is None:
            raise ValueError("homomorphism is not invertible")
        cols.append(sol[: f.source.ngens])
    return AbHom(f.target, f.source, IntMatrix.from_columns(cols, rows=f.source.ngens))


def reference_cross_effect_witness(source: FgAbGroup, target: FgAbGroup, values) -> tuple | None:
    """The first triple (x1, x2, y) of elements, in ``elements()`` order,
    with b(x1 + x2, y) != b(x1, y) + b(x2, y) for the cross-effect
    b(x, y) = q(x + y) - q(x) - q(y) of the table ``values`` (target
    generator coordinates, one per element in ``element_coords()`` order),
    or None when b is bilinear: the check over every triple, which the
    package's check over x2 in {0} and the canonical generators is held to."""
    position = {c: i for i, c in enumerate(source.element_coords())}

    def q(x):
        return values[position[source.reduce(x)]]

    def b(x, y):
        s = [u + v for u, v in zip(x, y)]
        return [u - v - w for u, v, w in zip(q(s), q(x), q(y))]

    els = source.elements()
    for x1 in els:
        for x2 in els:
            x12 = [u + v for u, v in zip(x1, x2)]
            for y in els:
                diff = [u - v - w for u, v, w in zip(b(x12, y), b(x1, y), b(x2, y))]
                if not target.is_zero(diff):
                    return (x1, x2, y)
    return None


def transport_quadratic(q: QuadraticMap, psi_n: AbHom, psi_n1: AbHom) -> QuadraticMap:
    """The conjugate psi_n1 . q . psi_n^{-1}, for automorphisms of the
    source and target."""
    inv = hom_inverse(psi_n)
    values = [psi_n1(q(inv(q.source.lift(c)))) for c in q.source.element_coords()]
    return QuadraticMap(q.source, q.target, values)


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, blocks a[i][j] * b."""
    flat = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                flat.extend(a.data[i][j] * x for x in b.data[k])
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, flat)


def reference_hom(a: FgAbGroup, b: FgAbGroup) -> Subquotient:
    """Hom_Z(A, B) computed from presentations, the reference for the
    closed form of ``hom_group``: the kernel of the evaluation map
    B^m -> B^r (m generators and r relations of A), given by the Kronecker
    matrix of A's relation block.  A homomorphism is the class of its
    generator images, stacked column by column."""
    bm = direct_sum([b] * a.ngens)
    br = direct_sum([b] * a.presentation.cols)
    return kernel_subgroup(AbHom(bm, br, kronecker(a.presentation.transpose(), IntMatrix.identity(b.ngens))))


def reference_ext(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext_Z(A, B) by the invariant-factor decomposition of A: each torsion
    factor Z/d contributes B/dB, free summands nothing."""
    return direct_sum([b.modulo(d) for d in a.invariant_factors])


def _hom_of_images(a: FgAbGroup, b: FgAbGroup, flat) -> AbHom:
    # Column-stacked layout: entry (i, j) of the matrix sits at j*rows + i.
    return AbHom(a, b, IntMatrix(b.ngens, a.ngens, [flat[j * b.ngens + i] for i in range(b.ngens) for j in range(a.ngens)]))


def hom_at(a: FgAbGroup, b: FgAbGroup, coords) -> AbHom:
    """The homomorphism A -> B with canonical coordinates ``coords`` in
    ``reference_hom(a, b).group``: its generator images unstacked."""
    return _hom_of_images(a, b, reference_hom(a, b).representative(coords))


def all_homs(a: FgAbGroup, b: FgAbGroup, limit: int | None = None) -> list:
    """Every homomorphism A -> B, in the order of
    ``reference_hom(a, b).group.element_coords``; refused above ``limit``
    of them."""
    h = reference_hom(a, b)
    return [_hom_of_images(a, b, h.representative(c)) for c in h.group.element_coords(limit)]


def hom_generators(a: FgAbGroup, b: FgAbGroup) -> list:
    """The homomorphisms at the canonical generators of
    ``reference_hom(a, b).group``."""
    return [_hom_of_images(a, b, rep) for rep in reference_hom(a, b).generator_representatives()]


def reference_abelian_automorphisms(group, max_endos: int = 4096) -> list:
    """Automorphisms of a finite abelian group by the Smith-form test:
    the endomorphisms whose cokernel and kernel are trivial."""
    endos = all_homs(group, group, max_endos)
    return sorted((f for f in endos if is_bijective(f)), key=lambda f: f.canonical_key())


def divisibility_chains(max_order: int) -> list[tuple[int, ...]]:
    """Every chain d_1 | d_2 | ... | d_k with d_1 >= 2 and product at most
    ``max_order``, the empty chain (the trivial group) included."""

    def grow(chain, order):
        yield chain
        last = chain[-1] if chain else 1
        for d in range(max(2, last), max_order // order + 1, last):
            yield from grow(chain + (d,), order * d)

    return list(grow((), 1))


def aut_order(invariant_factors) -> int:
    """|Aut(Z/d_1 x ... x Z/d_k)| in closed form, the product over primes of
    the order for each p-primary part (Hillar and Rhea, "Automorphisms of
    finite abelian groups", Amer. Math. Monthly 114, 2007, Theorem 4.1).

    For the part Z/p^e_1 x ... x Z/p^e_n, e_1 <= ... <= e_n, with (1-based)
    a_k = max{l : e_l = e_k} and b_k = min{l : e_l = e_k}, the order is
    prod_k (p^a_k - p^(k-1)) . prod_j p^(e_j (n - a_j)) . prod_i p^((e_i - 1)(n - b_i + 1)).
    """
    total = 1
    exponent = max(invariant_factors, default=1)
    for p in range(2, exponent + 1):
        if exponent % p or any(p % q == 0 for q in range(2, p)):
            continue
        e = []
        for d in invariant_factors:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            if k:
                e.append(k)
        e.sort()
        n = len(e)
        a = [max(l for l in range(1, n + 1) if e[l - 1] == x) for x in e]
        b = [min(l for l in range(1, n + 1) if e[l - 1] == x) for x in e]
        for k in range(1, n + 1):
            total *= p ** a[k - 1] - p ** (k - 1)
            total *= p ** (e[k - 1] * (n - a[k - 1]))
            total *= p ** ((e[k - 1] - 1) * (n - b[k - 1] + 1))
    return total


def reference_act_on_kinvariants(algebra, pair, coh) -> tuple[int, ...]:
    """The permutation a pair (phi, psi) induces on the classes of
    H^(n+1), class by class: every class's representative z is moved to
    psi . z . phi^{-1} on each tuple and solved back to its class."""
    n = algebra.a1.order
    phi_inv = [0] * n
    for g, image in enumerate(pair.phi):
        phi_inv[image] = g
    classes = coh.classes()
    position = {c: i for i, c in enumerate(classes)}
    images = []
    for c in classes:
        z = coh.cocycle_at(c)
        values = []
        for t in itertools.product(range(1, n), repeat=coh.degree):
            values.extend(pair.psi(z.value(tuple(phi_inv[g] for g in t))))
        images.append(position[coh.class_of(Cocycle(z.module, coh.degree, values))])
    return tuple(images)


def reference_transport_cocycle(z, phi, psi) -> Cocycle:
    """psi . z . phi^{-1} tuple by tuple: each value read by
    ``Cocycle.value`` at phi^{-1}(t) and moved by psi's dense matrix."""
    n = len(phi)
    phi_inv = [0] * n
    for g, image in enumerate(phi):
        phi_inv[image] = g
    out = []
    for t in itertools.product(range(1, n), repeat=z.degree):
        out.extend(psi.matrix.apply(z.value(tuple(phi_inv[g] for g in t))))
    return Cocycle(z.module, z.degree, out)


def reference_differential_columns(module, k: int) -> tuple:
    """The bar differential d: C^k -> C^(k+1) as its nonzero columns,
    ``(row, entry)`` pairs top first, by the definition: one dict per
    column, every term added at the block index of its tuple, each column
    sorted at the end."""
    n = module.group.order
    mb = module.base.ngens
    table = module.group.table

    def index(t):
        idx = 0
        for g in t:
            idx = idx * (n - 1) + (g - 1)
        return idx

    out = [{} for _ in range((n - 1) ** k * mb)]

    def add_identity_block(r0, col_block, sign):
        for i in range(mb):
            col = out[col_block * mb + i]
            col[r0 + i] = col.get(r0 + i, 0) + sign

    for s in itertools.product(range(1, n), repeat=k + 1):
        r0 = index(s) * mb
        c0 = index(s[1:]) * mb
        act = module.action[s[0]]
        for i in range(mb):
            for j, a in enumerate(act.data[i]):
                if a:
                    out[c0 + j][r0 + i] = out[c0 + j].get(r0 + i, 0) + a
        sign = -1
        for i in range(k):
            merged = table[s[i]][s[i + 1]]
            if merged != 0:
                add_identity_block(r0, index(s[:i] + (merged,) + s[i + 2 :]), sign)
            sign = -sign
        add_identity_block(r0, index(s[:-1]), sign)
    return tuple(tuple(sorted((r, x) for r, x in col.items() if x)) for col in out)


def reference_pi_aut(algebra) -> tuple[list, list, int]:
    """(sorted pair keys, composition table, identity index) of the
    compatible automorphism pairs, by homomorphism products throughout:
    compatibility by ``AbHom`` products compared with ``equals``, the
    table by composing pairs and looking up their keys, and the identity
    by a scan of the table."""
    if isinstance(algebra, TwoStageDim1N):
        base = algebra.an.base
        action = [AbHom(base, base, m) for m in algebra.an.action]
        pairs = [
            (phi, psi)
            for phi in automorphism_group(algebra.a1)
            for psi in reference_abelian_automorphisms(base)
            if all(hom_equals(psi @ action[g], action[h] @ psi) for g, h in enumerate(phi))
        ]

        def key(pair):
            return (pair[0], pair[1].canonical_key())

        def compose(p, s):
            return (tuple(p[0][g] for g in s[0]), p[1] @ s[1])
    else:
        an, an1, q = algebra.an, algebra.an1, algebra.q
        elements = an.elements()
        pairs = [
            (f, g)
            for f in reference_abelian_automorphisms(an)
            for g in reference_abelian_automorphisms(an1)
            if all(an1.reduce(g(q(x))) == an1.reduce(q(f(x))) for x in elements)
        ]

        def key(pair):
            return (pair[0].canonical_key(), pair[1].canonical_key())

        def compose(p, s):
            return (p[0] @ s[0], p[1] @ s[1])

    pairs.sort(key=key)
    keys = [key(p) for p in pairs]
    index = {k: i for i, k in enumerate(keys)}
    table = [[index[key(compose(p, s))] for s in pairs] for p in pairs]
    n = len(pairs)
    identity = next(i for i in range(n) if all(table[i][j] == j == table[j][i] for j in range(n)))
    return keys, table, identity


def composition_table(aut) -> list[list[int]]:
    """The composition table of a group of automorphism pairs, from the
    pairs' ``points`` alone: (p s)(x) = p.points[s.points[x]], looked up
    among the pairs' permutations."""
    index = {p.points: i for i, p in enumerate(aut.elements)}
    return [[index[tuple(p.points[x] for x in s.points)] for s in aut.elements] for p in aut.elements]


def inverse_index(table, identity: int, i: int) -> int:
    """The j with i j = identity in a composition table."""
    return next(j for j, k in enumerate(table[i]) if k == identity)


def monomials(r: int, degree: int) -> list[tuple[int, ...]]:
    """The exponent vectors of the degree-``degree`` monomials in r
    variables, a basis of H^degree((Z/2)^r; F_2) = F_2[x_1..x_r] in degree
    ``degree`` (Kuenneth; Brown, *Cohomology of Groups*, GTM 87, V.5)."""
    return [m for m in itertools.product(range(degree + 1), repeat=r) if sum(m) == degree]


def polynomial_orbit_sizes(r: int, s: int, degree: int) -> list[int]:
    """Sorted orbit sizes of GL_r(F_2) x GL_s(F_2) on H^degree((Z/2)^r; (Z/2)^s)
    with trivial action, modelled without cohomology.

    H*((Z/2)^r; F_2) is the polynomial ring F_2[x_1..x_r] on degree-1
    classes, so H^degree with coefficients F_2^s is the degree part of that
    ring tensored with F_2^s.  GL_r acts by linear substitution of the
    x_i, GL_s on the coefficients; the elementary matrices I + E_ij
    generate GL over F_2.  An element is a bitmask over the basis
    (monomial, coefficient coordinate)."""
    basis = monomials(r, degree)
    mono_index = {m: i for i, m in enumerate(basis)}
    width = len(basis) * s

    def bit(m, t):
        return 1 << (mono_index[m] * s + t)

    def substitution(i, j):
        # x_j -> x_j + x_i sends x_j^a to the sum of C(a, k) x_j^(a-k) x_i^k
        out = []
        for m in basis:
            terms = []
            for k in range(m[j] + 1):
                if not (m[j] - k) & k:  # C(m_j, k) is odd (Lucas)
                    target = list(m)
                    target[j] -= k
                    target[i] += k
                    terms.append(tuple(target))
            out.extend(sum(bit(u, t) for u in terms) for t in range(s))
        return out

    def coefficient_step(i, j):
        # e_i -> e_i + e_j on the coefficients
        out = []
        for m in basis:
            for t in range(s):
                out.append(bit(m, t) | (bit(m, j) if t == i else 0))
        return out

    generators = [substitution(i, j) for i in range(r) for j in range(r) if i != j]
    generators += [coefficient_step(i, j) for i in range(s) for j in range(s) if i != j]

    def act(images, v):
        out = 0
        b = 0
        while v:
            if v & 1:
                out ^= images[b]
            v >>= 1
            b += 1
        return out

    seen = bytearray(1 << width)
    sizes = []
    for start in range(1 << width):
        if seen[start]:
            continue
        seen[start] = 1
        frontier, size = [start], 1
        while frontier:
            v = frontier.pop()
            for g in generators:
                w = act(g, v)
                if not seen[w]:
                    seen[w] = 1
                    size += 1
                    frontier.append(w)
        sizes.append(size)
    return sorted(sizes)


def quaternion_group() -> FiniteGroup:
    # elements: 1, -1, i, -i, j, -j, k, -k  (index = 2*axis + sign)
    names = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    idx = {v: i for i, v in enumerate(names)}
    table = []
    for s1, a1 in names:
        row = []
        for s2, a2 in names:
            s, a = mul_axis[(a1, a2)]
            row.append(idx[(s * s1 * s2, a)])
        table.append(row)
    return FiniteGroup(table)
