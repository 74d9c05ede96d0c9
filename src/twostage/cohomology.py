"""Group cohomology H^k(G; M) from the normalized inhomogeneous complex.

Cochains in degree k are functions from k-tuples of non-identity group
elements into the module (normalized: anything touching the identity is
zero, which cuts the rank from |G|^k to (|G|-1)^k without changing the
cohomology).  The differential is the usual alternating sum

    (d f)(g1, ..., g_{k+1}) = g1 . f(g2, ..., g_{k+1})
        + sum_i (-1)^i f(g1, ..., g_i g_{i+1}, ..., g_{k+1})
        + (-1)^{k+1} f(g1, ..., gk)

with terms landing on degenerate tuples dropped.  A degree's isomorphism
type comes by one of two routes.  When M = (Z/p)^r the cochain groups are
F_p-vector spaces and dim H^k = dim C^k - rank_p d_k - rank_p d_(k-1), each
rank the pivot count of a row reduction mod p, with no lattice and no
Smith form.  Otherwise H^k is the subquotient Z^k / B^k over Z, and the
Smith form of its presentation gives the type.  Class coordinates and
honest cocycle representatives always come from that subquotient; for
M = (Z/p)^r it is built only in a degree whose coordinates are read (in
a moduli run, the k-invariant degree), and there the two routes must
agree.

``oracle_cohomology`` recomputes the same groups by deciding every
cochain function and counting cosets, with no matrices anywhere: the
cocycles come from a depth-first search over the cochain's slots that
drops a prefix as soon as it completes a nonzero coboundary value.  It
exists to catch systematic errors in the linear-algebra route and is used
by the test suite and the command line ``--oracle`` flag.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Sequence

from .abelian import (
    AbHom,
    CochainComplex,
    FgAbGroup,
    Subquotient,
    direct_sum,
    homology_at,
    rank_mod_p,
)
from .errors import InternalConsistencyError, SizeBoundError
from .groups import GModule

__all__ = [
    "Cocycle",
    "CohomologyGroup",
    "Derivations",
    "bar_complex",
    "cohomology_range",
    "derivations",
    "oracle_cohomology",
]

DEFAULT_MAX_RANK = 20_000
DEFAULT_MAX_ENUMERATION = 2 ** 20


def _tuple_index(t: Sequence[int], n: int) -> int:
    idx = 0
    for g in t:
        idx = idx * (n - 1) + (g - 1)
    return idx


class Cocycle:
    """A normalized cochain, stored as a flat vector over the cochain
    group's generators: block t holds the value on tuple t in base
    generator coordinates."""

    __slots__ = ("module", "degree", "vector")

    def __init__(self, module: GModule, degree: int, vector: Sequence[int]):
        n = module.group.order
        expected = (n - 1) ** degree * module.base.ngens
        vector = tuple(int(x) for x in vector)
        if len(vector) != expected:
            raise ValueError(f"degree {degree} cochain needs {expected} coordinates, got {len(vector)}")
        self.module = module
        self.degree = degree
        self.vector = vector

    def value(self, t: Sequence[int]) -> tuple[int, ...]:
        """Value on a tuple of element indices, in base generator coords.
        Tuples touching the identity give zero (normalization)."""
        n = self.module.group.order
        if len(t) != self.degree:
            raise ValueError(f"expected a {self.degree}-tuple, got {len(t)} entries")
        mb = self.module.base.ngens
        if any(not 0 <= g < n for g in t):
            raise ValueError(f"element index out of range in {t!r}")
        if any(g == 0 for g in t):
            return (0,) * mb
        block = _tuple_index(t, n) * mb
        return self.vector[block : block + mb]

    def __repr__(self):
        return f"Cocycle(degree {self.degree}, {self.module!r})"


def bar_complex(module: GModule, kmax: int, max_rank: int = DEFAULT_MAX_RANK) -> CochainComplex:
    """The normalized cochain complex C^0 -> ... -> C^kmax.

    C^k is a direct sum of (|G|-1)^k copies of the coefficient group, one
    block per tuple, blocks in lexicographic tuple order.  Raises when any
    cochain group would exceed ``max_rank`` generators.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    n = module.group.order
    mb = module.base.ngens
    counts = [(n - 1) ** k for k in range(kmax + 1)]
    for k, c in enumerate(counts):
        if c * mb > max_rank:
            raise SizeBoundError(
                f"cochain group in degree {k} is too large",
                requested=c * mb,
                bound=max_rank,
            )
    groups = [direct_sum([module.base] * c) for c in counts]
    maps = []
    for k in range(kmax):
        maps.append(AbHom(groups[k], groups[k + 1], None, _differential_columns(module, k)))
    return CochainComplex(groups, maps)


def _differential_columns(module: GModule, k: int) -> tuple:
    """d: C^k -> C^(k+1) as its nonzero columns, ``(row, entry)`` pairs top first.

    Row blocks r are the (k+1)-tuples s in product order, r's digits in
    base m = |G| - 1 the s_i - 1, so each term's column block is read off
    r: the tail s[1:] is r % m^k, the dropped last coordinate r // m, and
    a merge of s_i s_(i+1) replaces the two digits at i.  A row's terms are
    summed before its entries are appended, so every column comes out
    sorted by row."""
    n = module.group.order
    m = n - 1
    mb = module.base.ngens
    table = module.group.table
    acts = [a.nonzero_rows() for a in module.action]
    # the place value of digit i + 1 of a k-tuple, m^(k-1-i), at i
    places = list(itertools.accumulate(itertools.repeat(m, k), operator.mul, initial=1))
    span = places.pop()
    places.reverse()
    out = [[] for _ in range(span * mb)]
    for r, s in enumerate(itertools.product(range(1, n), repeat=k + 1)):
        # identity blocks, signed: the dropped last coordinate, then the
        # interior merges that miss the identity, the one at i by (-1)^(i+1)
        blocks = [(r // m * mb, 1 if k % 2 else -1)]
        for i in range(k):
            merged = table[s[i]][s[i + 1]]
            if merged:
                p = places[i]
                blocks.append((((r // (p * m * m) * m + merged - 1) * p + r % p) * mb, i % 2 * 2 - 1))
        # s_1 acts on the tail
        t0 = r % span * mb
        for i, act in enumerate(acts[s[0]]):
            row = {t0 + j: a for j, a in act}
            for c, e in blocks:
                row[c + i] = row.get(c + i, 0) + e
            for c, x in row.items():
                if x:
                    out[c].append((r * mb + i, x))
    return tuple(map(tuple, out))


class CohomologyGroup:
    """H^k(G; M), one degree of ``cohomology_range``; ``differential`` is
    d: C^k -> C^(k+1) of the normalized complex, and ``group`` the type.

    Class coordinates and cocycle representatives (``class_of``,
    ``cocycle_at``, ``representatives``, ``classes``, ``cocycles``) come
    from the subquotient Z^k / B^k (``homology_at``), whose Smith form
    presents ``group``.  For M = (Z/p)^r ``group`` is read off F_p ranks
    instead, dim H^k = dim C^k - rank_p d_k - rank_p d_(k-1) (Brown,
    *Cohomology of Groups*, GTM 87), each ``rank()`` the pivot count of a
    row reduction mod p; the subquotient is built only when coordinates or
    representatives are read, and its invariant factors must agree.
    ``group``, ``representatives`` and ``rank()`` are computed on first
    read and kept.  ``below`` is degree k - 1.
    """

    __slots__ = (
        "module",
        "degree",
        "differential",
        "_complex",
        "_below",
        "_prime",
        "_rank",
        "_group",
        "_representatives",
        "_sub",
    )

    def __init__(self, module: GModule, degree: int, complex_: CochainComplex, below, prime: int | None):
        self.module = module
        self.degree = degree
        self.differential = complex_.maps[degree]
        self._complex = complex_
        self._below = below
        self._prime = prime
        self._rank = None
        self._group = None
        self._representatives = None
        self._sub = None
        if prime is None:
            self._subquotient()

    @property
    def group(self) -> FgAbGroup:
        if self._group is None:
            self._group = self._elementary(self.rank() + (self._below.rank() if self._below else 0))
        return self._group

    @property
    def representatives(self) -> tuple[Cocycle, ...]:
        if self._representatives is None:
            vectors = self._subquotient().generator_representatives()
            self._representatives = tuple(Cocycle(self.module, self.degree, v) for v in vectors)
        return self._representatives

    def rank(self) -> int:
        """rank_p d_k, for M = (Z/p)^r."""
        if self._rank is None:
            self._rank = rank_mod_p(self.differential, self._prime)
        return self._rank

    def _elementary(self, ranks: int) -> FgAbGroup:
        """(Z/p)^(dim C^k - ranks)."""
        dimension = len(self.differential.source.invariant_factors) - ranks
        return direct_sum([FgAbGroup.cyclic(self._prime)] * dimension if dimension else [])

    def _subquotient(self) -> Subquotient:
        """Z^k / B^k, built on first read.  For M = (Z/p)^r the pivots of Z^k's
        sparse Hermite columns are 1 and p and [Z^N : Z^k] = p^(rank_p d_k),
        so the pivots equal to p give rank_p d_k with no second reduction."""
        if self._sub is None:
            sub = homology_at(self._complex, self.degree)
            if self._prime is not None:
                self._rank = sum(col[0][1] != 1 for col in sub._columns)
                want = self.group.invariant_factors
                if sub.group.normal_form != (0, want):
                    got = list(sub.group.invariant_factors)
                    raise InternalConsistencyError(
                        f"H^{self.degree}: Smith route {got} disagrees with F_p rank route {list(want)}"
                    )
            self._sub = sub
            self._group = sub.group
        return self._sub

    def is_cocycle(self, z: Cocycle) -> bool:
        return self.differential.kills([(j, x) for j, x in enumerate(z.vector) if x])

    def class_of(self, z: Cocycle) -> tuple[int, ...]:
        """Canonical coordinates of the class [z]; additive, kills exactly
        the coboundaries, and inverts ``cocycle_at``."""
        if z.degree != self.degree or z.module is not self.module:
            raise ValueError("cocycle does not belong to this cohomology group")
        if not self.is_cocycle(z):
            raise ValueError("not a cocycle: differential does not vanish")
        return self._subquotient().class_coords(z.vector)

    def cocycle_at(self, coords: Sequence[int]) -> Cocycle:
        return Cocycle(self.module, self.degree, self._subquotient().representative(coords))

    def cocycles(self) -> Subquotient:
        """Z^k, the kernel of the differential, as a subquotient of C^k: H^k's
        numerator, its Hermite columns reused, over C^k's relations alone."""
        sub = self._subquotient()
        return Subquotient(sub.ambient_rank, sub.basis, self.differential.source.relation_columns)

    def cocycle_group(self) -> FgAbGroup:
        """The type of Z^k (Der, for k = 1), by F_p rank when it can be."""
        if self._prime is None:
            return self.cocycles().group
        return self._elementary(self.rank())

    def classes(self, limit: int | None = None) -> list[tuple[int, ...]]:
        """Every class by its canonical coordinates, so the subquotient is built."""
        return self._subquotient().group.element_coords(limit)

    def __repr__(self):
        return f"CohomologyGroup(H^{self.degree} = {self.group.symbol()})"


def cohomology_range(module: GModule, kmax: int, max_rank: int = DEFAULT_MAX_RANK) -> list[CohomologyGroup]:
    """H^0 through H^kmax off a single complex, cocycles as a lattice
    computed mod the exponent of M.  For M = (Z/p)^r (or 0) each degree's
    type comes from the F_p ranks of the differentials, and the subquotient
    Z^k / B^k is built only for a degree whose class coordinates are read;
    for other M each degree's type comes from its subquotient's Smith form.
    See ``CohomologyGroup``."""
    if kmax < 0:
        raise ValueError("degree must be non-negative")
    complex_ = bar_complex(module, kmax + 1, max_rank=max_rank)
    prime = _prime_exponent(module.base)
    out = []
    for k in range(kmax + 1):
        out.append(CohomologyGroup(module, k, complex_, out[-1] if out else None, prime))
    return out


def _prime_exponent(base: FgAbGroup) -> int | None:
    """p when ``base`` is (Z/p)^r, 1 when it is 0, else None."""
    factors = set(base.invariant_factors)
    if base.free_rank or len(factors) > 1:
        return None
    if not factors:
        return 1
    p = factors.pop()
    q = 2
    while p % q:
        q += 1
    return p if q == p else None


class Derivations:
    """Z^1(G; M): crossed homomorphisms d(gh) = g.d(h) + d(g), presented
    with explicit representatives.  This is the full cocycle group, not
    its quotient by principal derivations."""

    __slots__ = ("module", "group", "representatives")

    def __init__(self, module: GModule, sub: Subquotient):
        self.module = module
        self.group = sub.group
        self.representatives = tuple(Cocycle(module, 1, v) for v in sub.generator_representatives())

    def __repr__(self):
        return f"Derivations({self.group.symbol()})"


def derivations(module: GModule, max_rank: int = DEFAULT_MAX_RANK) -> Derivations:
    """Derivations, Z^1 with representatives, read off the cohomology ladder."""
    return Derivations(module, cohomology_range(module, 1, max_rank=max_rank)[1].cocycles())


# -- enumeration oracle ----------------------------------------------------


def oracle_cohomology(module: GModule, k: int, max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> tuple[int, ...]:
    """H^k(G; M) as invariant factors, by sheer enumeration.

    Decides every normalized cochain function, keeping the cocycles,
    builds the coset space modulo the enumerated coboundaries, and reads
    off the isomorphism type by counting element orders.  No matrices are
    involved at any point, which is what makes this an independent check
    on the Smith normal form route.  Unnormalized cochains give the same
    groups (Brown, *Cohomology of Groups*, GTM 87, III.1).

    Elements of M are numbered by ``FgAbGroup.position``, so a cochain is
    a tuple of small integers, one per tuple slot.  The cocycles are found
    by a depth-first search over the slots (``_cocycle_search``): each
    value df(s) is tested as soon as the last slot it reads is set, and a
    nonzero one drops every cochain that extends the prefix.  The cost is
    set by the prefixes that pass their completed values, not by |C^k|;
    the size bound still counts cochains, |C^k| and |C^(k-1)|, and is
    checked before anything is built.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    group = module.group
    base = module.base
    n = group.order
    # Size both enumerations, degree k and then k-1, before building any.
    for count in (base.order ** ((n - 1) ** j) for j in (k, k - 1) if j >= 0):
        if count > max_enumeration:
            raise SizeBoundError("oracle enumeration too large", requested=count, bound=max_enumeration)

    size = base.order
    # A stencil row has at most deg + 2 <= k + 2 terms.
    arith = _PackedArithmetic(base.invariant_factors, k + 2)
    act = [base.element_map(images) for images in module.canonical_action]

    checks = _coboundary_stencil(group.table, k, act, arith)
    decode = arith.decode
    cocycles = _cocycle_search(size, (n - 1) ** k, checks, decode)

    zero_fn = (0,) * (n - 1) ** k
    if k == 0:
        boundaries = {zero_fn}
    else:
        rows = _coboundary_stencil(group.table, k - 1, act, arith)
        boundaries = {
            tuple(decode(sum(table[b[slot]] for table, slot in row)) for row in rows)
            for b in itertools.product(range(size), repeat=(n - 1) ** (k - 1))
        }

    # coset representatives, then isomorphism type by order counting
    add = arith.add
    rep_of = {}
    cosets = []
    for z in cocycles:
        if z in rep_of:
            continue
        cosets.append(z)
        for b in boundaries:
            rep_of[tuple(map(add, z, b))] = z

    def add_cosets(c1, c2):
        return rep_of[tuple(map(add, c1, c2))]

    return _invariant_factors_by_counting(cosets, add_cosets, rep_of[zero_fn])


def _cocycle_search(size: int, slots: int, checks: list, decode) -> list[tuple[int, ...]]:
    """Every cochain on which each stencil row of ``checks`` decodes to
    0, in ``itertools.product(range(size), repeat=slots)`` order.

    A depth-first search sets the slots left to right.  Each row waits in
    the bucket of its largest slot and is evaluated as soon as that slot
    is set, so a value that completes a nonzero row is dropped with every
    extension of its prefix.  The search is a loop over the slot index,
    not a recursion: there may be thousands of slots.
    """
    if not slots:
        return [()]
    buckets = [[] for _ in range(slots)]
    for row in checks:
        buckets[max(slot for _, slot in row)].append(row)
    last = slots - 1
    f = [0] * slots
    out = []
    j = value = 0
    while True:
        rows = buckets[j]
        while value < size:
            f[j] = value
            for row in rows:
                total = 0
                for table, slot in row:
                    total += table[f[slot]]
                if decode(total):
                    break
            else:
                break
            value += 1
        if value == size:
            # every value of slot j fails: back up one slot
            if not j:
                return out
            j -= 1
            value = f[j] + 1
        elif j == last:
            out.append(tuple(f))
            value += 1
        else:
            j += 1
            value = 0


class _PackedArithmetic:
    """Element indices of a finite abelian group added coordinate by
    coordinate, with no |M|-by-|M| table.

    Elements are numbered as ``FgAbGroup.position`` numbers them, in the
    mixed-radix order over ``moduli``.  Each element packs its canonical
    coordinates into one integer, one bit field per coordinate, wide
    enough that a sum of ``terms`` packed elements never carries out of a
    field.  ``plus[i]`` packs element i and ``minus[i]`` packs its
    negative; ``decode`` reduces every field of a packed sum and returns
    the index of the element it stands for, which is 0 exactly for the
    zero element.
    """

    __slots__ = ("plus", "minus", "decode")

    def __init__(self, moduli: Sequence[int], terms: int):
        width = max(1, (terms * max(moduli, default=1)).bit_length())
        plus = minus = [0]
        for j, m in enumerate(moduli):
            plus = [a + (c << (j * width)) for a in plus for c in range(m)]
            minus = [a + (((-c) % m) << (j * width)) for a in minus for c in range(m)]
        self.plus = plus
        self.minus = minus
        mask = (1 << width) - 1
        fields = []
        weight = 1
        for j in reversed(range(len(moduli))):
            fields.append((j * width, moduli[j], weight))
            weight *= moduli[j]

        def decode(total: int) -> int:
            index = 0
            for shift, m, w in fields:
                index += ((total >> shift) & mask) % m * w
            return index

        self.decode = decode

    def add(self, a: int, b: int) -> int:
        return self.decode(self.plus[a] + self.plus[b])


def _coboundary_stencil(table, deg: int, act, arith: _PackedArithmetic) -> list:
    """One row per (deg+1)-tuple s of non-identity elements, in product order.

    A row lists (packed table, slot) pairs whose packed sum over a
    deg-cochain f (a tuple of element indices, one per ``_tuple_index``
    slot) encodes df(s): the action of s[0] on the tail, then the signed
    interior merges, left out when they land on the identity, and the
    dropped last coordinate.
    """
    n = len(table)
    acted = [[arith.plus[j] for j in row] for row in act]
    rows = []
    for s in itertools.product(range(1, n), repeat=deg + 1):
        row = [(acted[s[0]], _tuple_index(s[1:], n))]
        sign = -1
        for i in range(deg):
            merged = table[s[i]][s[i + 1]]
            if merged != 0:
                t = s[:i] + (merged,) + s[i + 2 :]
                row.append((arith.plus if sign > 0 else arith.minus, _tuple_index(t, n)))
            sign = -sign
        row.append((arith.plus if sign > 0 else arith.minus, _tuple_index(s[:-1], n)))
        rows.append(row)
    return rows


def _invariant_factors_by_counting(elements: list, add, zero) -> tuple[int, ...]:
    """Invariant factors of an explicit finite abelian group.

    For each prime p, the count of solutions of p^j x = 0 is
    p^(r_1 + ... + r_j), where r_j is the number of cyclic p-primary
    factors of order at least p^j.  So the i-th largest invariant factor
    takes one p for each j with r_j >= i.  Pure counting, no matrices.
    """
    n = len(elements)
    residue = n
    primes = []
    p = 2
    while p * p <= residue:
        if residue % p == 0:
            primes.append(p)
            while residue % p == 0:
                residue //= p
        p += 1
    if residue > 1:
        primes.append(residue)
    factors = []  # largest first
    for p in primes:
        # One times-p map, then each element's p-exponent (the least j with
        # p^j x = 0, or None) along x, px, p^2 x, ..., each found once.
        times_p = {}
        for y in elements:
            acc = y
            for _ in range(p - 1):
                acc = add(acc, y)
            times_p[y] = acc
        exponent = {zero: 0}
        for y in elements:
            path = []
            while y not in exponent:
                exponent[y] = None  # met again on this path: a cycle that misses 0
                path.append(y)
                y = times_p[y]
            e = exponent[y]
            for y in reversed(path):
                e = None if e is None else e + 1
                exponent[y] = e
        depths = Counter(e for e in exponent.values() if e is not None)
        cnt = depths[0]
        below = 0  # r_1 + ... + r_(j-1)
        for j in range(1, max(depths) + 1):
            # cnt counts the solutions of p^j x = 0.
            cnt += depths[j]
            e = 0
            c = cnt
            while c % p == 0:
                e += 1
                c //= p
            if c != 1:
                raise InternalConsistencyError("kernel count is not a prime power")
            # r_j factors have order at least p^j: the r_j largest take a p
            r = e - below
            factors.extend([1] * (r - len(factors)))
            for i in range(r):
                factors[i] *= p
            below = e
        # cnt must be the p-primary part of n
        if n % cnt or n // cnt % p == 0:
            raise InternalConsistencyError("p-primary part has the wrong order")
    return tuple(reversed(factors))
