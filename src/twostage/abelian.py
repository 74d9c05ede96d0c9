"""Finitely generated abelian groups presented by integer relation matrices.

A group is ``Z^m`` modulo the lattice spanned by the columns of an ``m x r``
relation matrix.  Elements are integer coordinate vectors of length ``m``;
two vectors represent the same element when their difference lies in the
relation lattice.  The Smith normal form of the presentation gives the
invariant-factor normal form, canonical coordinates for elements, and an
explicit change of basis in both directions, which is what makes quotient
constructions (homology, cohomology classes) exact rather than heuristic.
A direct sum whose merged diagonal is a divisibility chain (every cochain
group) takes its Smith data from its summands' instead, with no
elimination, and builds its block-diagonal presentation only when read.

Kernels and homology share one numerator: the lattice of vectors a map
sends into the target's relation lattice, as its column Hermite basis.
For a finite target of exponent E it contains E * Z^m and is cut out by
one congruence per coordinate slot of the target, each unknown's column
the map's slot column (below), and is lifted one prime factor of E at a
time (``linalg.congruence_kernel``).  A target with Z summands, reached
only by a public ``kernel_subgroup`` or ``homology_at`` call, goes through
``integer_kernel`` of [F | -R].  The Hermite basis is unique, so the route
taken does not change a single class coordinate.

A map converts its sparse columns into the target's coordinate slots in
one pass (``AbHom.slot_columns``): column j becomes the pairs (slot i,
u_i . F e_j) over the slots whose Smith row reads it.  The congruences of
``_preimage_basis`` and ``echelon_mod_p`` read them, and so does the one
batched check, ``AbHom.first_nonzero``: it sums each vector's slot values
off the slot columns the vector touches, reduces them mod the diagonal
and returns the first vector not killed, in O(nonzeros) per vector.  It
checks that relations map into relations (``AbHom``), that d∘d = 0
(``CochainComplex``) and cocycles (``kills``, a batch of one).  A map
given by its key (``AbHom.from_keys``) is checked in canonical coordinates.
A subquotient solves its denominator columns straight into the sparse
rows of its presentation, which its Smith form eliminates as they are.

Hom and Ext are isomorphism types, read off the invariant factors of both
groups, with no lattice: each is additive in either argument, so it is the
direct sum over pairs of cyclic factors Z/x of A and Z/y of B, with 0
standing for Z, of Hom(Z/x, Z/y) = Ext(Z/x, Z/y) = Z/gcd(x, y) (Hilton
and Stammbach, *A Course in Homological Algebra*, GTM 4, ch. III).  The
free cases fit the same gcd except two: Hom(Z/x, Z) = 0 for x != 0, and
Ext(Z, B) = 0.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

from .errors import SizeBoundError, ValidationError, Violation
from .linalg import (
    IntMatrix,
    _kernel_mod_p,
    _matrix_of_columns,
    _SparseMatrix,
    block_diag,
    column_hermite,
    congruence_kernel,
    hstack,
    integer_kernel,
    smith_normal_form,
)

__all__ = [
    "FgAbGroup",
    "AbHom",
    "Subquotient",
    "CochainComplex",
    "hom_group",
    "ext_group",
    "homology_at",
    "kernel_subgroup",
    "echelon_mod_p",
    "direct_sum",
]


class FgAbGroup:
    """A finitely generated abelian group, fixed presentation, cached SNF."""

    __slots__ = (
        "_presentation",
        "_summands",
        "ngens",
        "_diag",
        "_coord_slots",
        "invariant_factors",
        "free_rank",
        "_u_rows",
        "_uinv_rows",
        "_relation_columns",
    )

    def __init__(self, presentation: IntMatrix):
        dec = smith_normal_form(presentation)
        self._set_smith(list(dec.diagonal) + [0] * (presentation.rows - len(dec.diagonal)), presentation, ())
        rows, columns = dec.slot_transforms(self._coord_slots)
        u_rows = [[] for _ in range(self.ngens)]
        for j, entries in enumerate(rows):
            for i, c in entries.items():
                u_rows[i].append((j, c))
        self._u_rows = tuple(map(tuple, u_rows))
        self._uinv_rows = tuple(tuple(sorted(entries.items())) for entries in columns)

    def _set_smith(self, diag, presentation, summands) -> None:
        # Slot i has diagonal entry diag[i] and coordinate _u_rows[i] . x;
        # _uinv_rows takes coordinate slots back to generators.  Rows are
        # sparse, and hold only what is read: _u_rows[i] is empty at a slot
        # with d_i = 1, and _uinv_rows restricts u^-1 to the coordinate
        # slots.  The caller sets both: a group with its own Smith form
        # replays them from its operation log for the coordinate slots
        # alone, a direct sum shifts its summands' rows into their blocks.
        self._presentation = presentation
        self._summands = summands
        self.ngens = len(diag)
        self._diag = tuple(diag)
        # Coordinate slots: positions whose diagonal entry is not 1 survive
        # into the normal form, torsion slots first (SNF orders them).
        self._coord_slots = tuple(i for i, d in enumerate(diag) if d != 1)
        self.invariant_factors = tuple(d for d in diag if d >= 2)
        self.free_rank = sum(1 for d in diag if d == 0)
        self._relation_columns = None

    @property
    def presentation(self) -> IntMatrix:
        # A direct sum builds its block diagonal on first read.
        if self._presentation is None:
            self._presentation = block_diag([g.presentation for g in self._summands])
        return self._presentation

    @property
    def relation_columns(self) -> tuple:
        """The presentation's nonzero columns as ``(generator, entry)`` pairs,
        built on first read, a direct sum's from its summands' blocks."""
        if self._relation_columns is None:
            if self._presentation is None:
                offsets = itertools.accumulate((g.ngens for g in self._summands), initial=0)
                self._relation_columns = tuple(
                    tuple((k + i, x) for i, x in col) for g, k in zip(self._summands, offsets) for col in g.relation_columns
                )
            else:
                self._relation_columns = self.presentation.nonzero_columns()
        return self._relation_columns

    # -- constructors --------------------------------------------------

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls._diagonal([0] * rank, IntMatrix.zeros(rank, 0))

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls._diagonal([], IntMatrix.zeros(0, 0))

    @classmethod
    def cyclic(cls, d: int) -> "FgAbGroup":
        if d < 1:
            raise ValueError("cyclic order must be positive")
        return cls._diagonal([d], IntMatrix.from_rows([[d]]))

    @classmethod
    def _diagonal(cls, diag, presentation) -> "FgAbGroup":
        # A presentation already in Smith form, u = v = 1: its Smith data
        # is set directly, with no elimination.
        group = cls.__new__(cls)
        group._set_smith(diag, presentation, ())
        group._u_rows = group._uinv_rows = tuple(((i, 1),) if d != 1 else () for i, d in enumerate(diag))
        return group

    @classmethod
    def from_cyclic_factors(cls, factors: Sequence[int]) -> "FgAbGroup":
        """Direct sum of cyclic groups; a factor of 0 means a copy of Z."""
        for d in factors:
            if d < 0:
                raise ValueError(f"cyclic factor must be >= 0, got {d}")
        return direct_sum([cls.cyclic(d) if d else cls.free(1) for d in factors])

    # -- normal form -----------------------------------------------------

    @property
    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, self.invariant_factors)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def symbol(self) -> str:
        """Readable isomorphism type, e.g. ``Z^2 x C2 x C4`` or ``0``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.symbol()}, {self.ngens} gens)"

    def same_presentation(self, other: "FgAbGroup") -> bool:
        return self is other or self.presentation == other.presentation

    # -- elements ----------------------------------------------------------

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of an element; equal vectors mod relations
        reduce identically.  Torsion coordinates land in [0, d)."""
        if len(vec) != self.ngens:
            raise ValueError(f"element of length {len(vec)}, group has {self.ngens} generators")
        out = []
        for i in self._coord_slots:
            w = sum(c * vec[j] for j, c in self._u_rows[i])
            d = self._diag[i]
            out.append(w % d if d else w)
        return tuple(out)

    def is_zero(self, vec: Sequence[int]) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        """A generator-coordinate representative of canonical coordinates."""
        if len(coords) != len(self._coord_slots):
            raise ValueError(f"expected {len(self._coord_slots)} coordinates, got {len(coords)}")
        w = [0] * self.ngens
        for slot, c in zip(self._coord_slots, coords):
            w[slot] = c
        return tuple(sum(c * w[j] for j, c in row) for row in self._uinv_rows)

    def coordinate_moduli(self) -> tuple[int, ...]:
        """Modulus of each canonical coordinate; 0 marks a free coordinate."""
        return tuple(self._diag[i] for i in self._coord_slots)

    def element_coords(self, limit: int | None = None) -> list[tuple[int, ...]]:
        """All canonical coordinate tuples, mixed-radix order (finite only)."""
        if not self.is_finite:
            raise SizeBoundError("cannot enumerate an infinite group")
        n = self.order
        if limit is not None and n > limit:
            raise SizeBoundError("group too large to enumerate", requested=n, bound=limit)
        ranges = [range(d) for d in self.invariant_factors]
        return [tuple(c) for c in itertools.product(*ranges)]

    def elements(self) -> list[tuple[int, ...]]:
        """Generator-coordinate representatives, aligned with element_coords."""
        return [self.lift(c) for c in self.element_coords()]

    @property
    def strides(self) -> tuple[int, ...]:
        """Place values of canonical coordinates in ``element_coords()``
        order, the i-th the position of the i-th canonical generator; not
        kept, as a cochain group may have thousands of invariant factors."""
        factors = self.invariant_factors
        return tuple(math.prod(factors[i + 1 :]) for i in range(len(factors)))

    def position(self, coords: Sequence[int]) -> int:
        """The index of canonical coordinates in ``element_coords()`` order."""
        index = 0
        for c, d in zip(coords, self.invariant_factors):
            index = index * d + c
        return index

    def element_map(self, images: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """The positions of f(x) for every x, both in ``element_coords()``
        order, where f sends the i-th canonical generator to ``images[i]``
        (canonical coordinates).  f is an endomorphism when each image's
        order divides its generator's.  On (Z/2)^r a position is a bit
        string and f(x + e_i) = f(x) XOR f(e_i), so the map doubles from
        [f(0)], last generator first.  Otherwise adding each image, one
        factor at a time, lists every f(x); each coordinate is listed in
        turn, and its place value read off ``strides``."""
        factors = self.invariant_factors
        if all(d == 2 for d in factors):
            positions = [0]
            for image in reversed(images):
                y = self.position([c & 1 for c in image])
                positions += [q ^ y for q in positions]
            return tuple(positions)
        positions = [0] * math.prod(factors)
        for i, (m, stride) in enumerate(zip(factors, self.strides)):
            coord = [0]
            for d, image in zip(factors, images):
                coord = [(c + k * image[i]) % m for c in coord for k in range(d)]
            positions = [p + stride * c for p, c in zip(positions, coord)]
        return tuple(positions)

    def modulo(self, d: int) -> "FgAbGroup":
        """The quotient G/dG on the same generator set."""
        if d < 1:
            raise ValueError("modulus must be positive")
        return FgAbGroup(hstack(self.presentation, IntMatrix.identity(self.ngens).scale(d)))


def direct_sum(groups: Sequence[FgAbGroup]) -> FgAbGroup:
    """Direct sum; generator blocks appear in argument order.

    The summands' Smith data is merged with no elimination: diagonal slots
    in the order of ``(d == 0, d)``, ties in argument order, each distinct
    entry d a run of positions that its slots take in turn, and u and u^-1
    rows shifted into each summand's block.  For copies of one group
    (cochain groups) the merge is a divisibility chain (Newman,
    *Integral Matrices*, ch. II); otherwise, as for Z/2 + Z/3, the block
    diagonal gets a Smith form of its own.  Else it is built only if read.
    """
    entries = sorted({d for g in groups for d in g._diag}, key=lambda d: (d == 0, d))
    # Zeros sort last, so a chain needs a | b only for nonzero a.
    if any(a and b % a for a, b in zip(entries, entries[1:])):
        return FgAbGroup(block_diag([g.presentation for g in groups]))
    start, size = {}, 0
    for d in entries:
        start[d], size = size, size + sum(g._diag.count(d) for g in groups)
    chain, u_rows, uinv_rows, offset = [0] * size, [()] * size, [], 0
    for g in groups:
        position = []
        for d, row in zip(g._diag, g._u_rows):
            t = start[d]
            start[d], chain[t], u_rows[t] = t + 1, d, tuple([(offset + j, c) for j, c in row])
            position.append(t)
        uinv_rows += [tuple([(position[j], c) for j, c in row]) for row in g._uinv_rows]
        offset += g.ngens
    total = FgAbGroup.__new__(FgAbGroup)
    total._set_smith(chain, None, tuple(groups))
    total._u_rows, total._uinv_rows = tuple(u_rows), tuple(uinv_rows)
    return total


class AbHom:
    """A homomorphism of presented groups, given on generators by a matrix.

    ``matrix`` has shape (target generators) x (source generators); the
    constructor verifies that every source relation maps into the target
    relation lattice, so the map is well defined on the quotients.
    ``columns`` holds the matrix's nonzero columns and ``slot_columns``
    the same columns in the target's coordinate slots, read by every check
    (``first_nonzero``) and every kernel.  A map given by its columns alone
    (``matrix`` None, as the bar differentials are) builds its matrix when
    read; one given by its ``canonical_key`` (``from_keys``) builds both.
    """

    __slots__ = ("source", "target", "_matrix", "_columns", "_slot_columns", "_key", "_echelon")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix | None, columns=None):
        shape = (target.ngens, len(columns)) if matrix is None else matrix.shape
        if shape != (target.ngens, source.ngens):
            raise ValueError(f"matrix shape {shape} does not match map {source.ngens} gens -> {target.ngens} gens")
        self.source = source
        self.target = target
        self._matrix = matrix
        self._columns = matrix.nonzero_columns() if columns is None else columns
        self._slot_columns = self._key = self._echelon = None
        j = self.first_nonzero(source.relation_columns)
        if j is not None:
            self._refuse(j)

    def _refuse(self, j: int):
        relation = dict(self.source.relation_columns[j])
        raise ValidationError(
            Violation(
                "hom.matrix",
                "matrix does not send source relations into target relations",
                {"relation_column": j, "relation": tuple(relation.get(i, 0) for i in range(self.source.ngens))},
            )
        )

    @property
    def matrix(self) -> IntMatrix:
        if self._matrix is None:
            if self._columns is None:
                self._matrix = IntMatrix.from_columns([self.target.lift(y) for y in self._key], rows=self.target.ngens)
            else:
                self._matrix = _matrix_of_columns([dict(col) for col in self._columns], self.target.ngens)
        return self._matrix

    @property
    def columns(self) -> tuple:
        if self._columns is None:
            self._columns = self.matrix.nonzero_columns()
        return self._columns

    @property
    def slot_columns(self) -> tuple:
        """Each column in the target's coordinate slots, ``(slot, u_slot . column)``
        pairs over the slots whose u row reads it; one pass, once per map."""
        if self._slot_columns is None:
            target, out = self.target, []
            reading = [[] for _ in range(target.ngens)]  # generator -> (slot, u entry) pairs
            for i in target._coord_slots:
                for j, c in target._u_rows[i]:
                    reading[j].append((i, c))
            for col in self.columns:
                values = {}
                for j, x in col:
                    for i, c in reading[j]:
                        values[i] = values.get(i, 0) + c * x
                out.append(tuple(values.items()))
            self._slot_columns = tuple(out)
        return self._slot_columns

    def first_nonzero(self, vectors) -> int | None:
        """The index of the first of ``vectors`` (``(generator, value)`` pairs)
        that f does not kill, or None: a vector's slot values, summed off
        ``slot_columns``, vanish mod the diagonal when f kills it."""
        slots, diag = self.slot_columns, self.target._diag
        for t, vec in enumerate(vectors):
            out = {}
            for j, x in vec:
                for i, y in slots[j]:
                    out[i] = out.get(i, 0) + x * y
            for i, w in out.items():
                if w % diag[i] if diag[i] else w:
                    return t
        return None

    def kills(self, vec) -> bool:
        """Whether f(x) = 0 in the target: ``first_nonzero`` on a batch of one."""
        return self.first_nonzero((vec,)) is None

    @classmethod
    def identity(cls, group: FgAbGroup) -> "AbHom":
        return cls(group, group, IntMatrix.identity(group.ngens))

    @classmethod
    def from_keys(cls, source: FgAbGroup, target: FgAbGroup, keys: Sequence[Sequence[Sequence[int]]]) -> list["AbHom"]:
        """The maps sending generator j to the element with canonical
        coordinates key[j], one per key; ``key`` is the map's
        ``canonical_key``.  A single map is a batch of one.

        A key is checked in the target's canonical coordinates: its map is
        well defined when every source relation r gives sum_j r_j key[j]
        = 0 in each coordinate, mod its modulus.  ``reduce`` kills exactly
        the relation lattice and ``reduce(lift(y)) = y``, so this is the
        constructor's check on the lifted matrix.  The check runs relation
        by relation over the whole batch, each coordinate as one list over
        the keys; a batch with a failing key is refused as the first such
        key alone would be, at its first failing relation.  ``matrix`` and
        ``columns`` are lifted only when read."""
        keys = [tuple(map(tuple, key)) for key in keys]
        moduli = target.coordinate_moduli()
        homs = []
        for key in keys:
            if len(key) != source.ngens:
                shape = (target.ngens, len(key))
                raise ValueError(f"matrix shape {shape} does not match map {source.ngens} gens -> {target.ngens} gens")
            for y in key:
                if len(y) != len(moduli):
                    raise ValueError(f"expected {len(moduli)} coordinates, got {len(y)}")
            f = cls.__new__(cls)
            f.source = source
            f.target = target
            f._matrix = f._columns = f._slot_columns = f._echelon = None
            f._key = key
            homs.append(f)
        failed = {}  # the first failing relation of each failing key
        for j, rel in enumerate(source.relation_columns):
            for l, m in enumerate(moduli):
                # coordinate l of sum_g r_g key[g], over the batch
                w = [0] * len(keys)
                for g, r in rel:
                    w = [a + r * key[g][l] for a, key in zip(w, keys)]
                if m:
                    w = [a % m for a in w]
                if any(w):
                    for t, a in enumerate(w):
                        if a:
                            failed.setdefault(t, j)
        if failed:
            t = min(failed)
            homs[t]._refuse(failed[t])
        return homs

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "AbHom":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens))

    def __call__(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.matrix.apply(vec)

    def __matmul__(self, other: "AbHom") -> "AbHom":
        """Composition: (f @ g)(x) = f(g(x))."""
        if not other.target.same_presentation(self.source):
            raise ValueError("composition mismatch: inner target differs from outer source")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def is_zero_map(self) -> bool:
        return all(self.target.is_zero(self.matrix.column(j)) for j in range(self.matrix.cols))

    def canonical_key(self) -> tuple:
        """Hashable form: canonical coordinates of every generator image,
        computed on first use."""
        if self._key is None:
            self._key = tuple(self.target.reduce(self.matrix.column(j)) for j in range(self.matrix.cols))
        return self._key

    def __repr__(self):
        return f"AbHom({self.source.symbol()} -> {self.target.symbol()})"


class Subquotient:
    """A subquotient L/K of an ambient Z^m, with exact coordinates both ways.

    ``basis`` holds the column Hermite basis of the numerator lattice L,
    ``denominator`` the sparse columns spanning K, as ``(row, entry)``
    pairs; ``group`` presents L/K on the basis columns.  ``class_coords``
    sends any ambient vector lying in L to canonical coordinates of its
    class, and ``representative`` lifts canonical coordinates back to an
    ambient vector.  Together these are the sections that make cohomology
    classes and k-invariant transport concrete.

    The basis, a Hermite basis from ``_preimage_basis`` or the identity, is
    read as its sparse columns.  Coordinates in it come from forward
    substitution on its pivots: each column is zero above its pivot row, so
    the pivot rows a vector reaches, taken top down, fix the coefficients one
    at a time, the one solution any exact solver finds.  Each denominator
    column's solution goes straight into the sparse rows of ``group``'s
    presentation, which its Smith form eliminates as they are.
    """

    __slots__ = ("ambient_rank", "basis", "group", "_columns", "_pivots")

    def __init__(self, ambient_rank: int, basis: IntMatrix, denominator: Sequence[Sequence[tuple[int, int]]]):
        if basis.rows != ambient_rank:
            raise ValueError("the numerator must live in the ambient space")
        self.ambient_rank = ambient_rank
        self.basis = basis
        self._columns = basis.nonzero_columns()
        self._pivots = {col[0][0]: k for k, col in enumerate(self._columns)}
        rows = [[] for _ in self._columns]  # row k: basis column k's coefficient in each denominator column
        for c, col in enumerate(denominator):
            coeffs = self._solve(dict(col), {})
            if coeffs is None:
                raise ValueError("denominator lattice is not contained in the numerator lattice")
            for k, x in coeffs.items():
                rows[k].append((c, x))
        self.group = FgAbGroup(_SparseMatrix(len(rows), len(denominator), tuple(map(tuple, rows))))

    def coefficients(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """The c with basis @ c == vec, or None when vec is not in L."""
        if len(vec) != self.ambient_rank:
            raise ValueError(f"vector of length {len(vec)} outside ambient rank {self.ambient_rank}")
        c = [0] * len(self._columns)
        return None if self._solve({i: x for i, x in enumerate(vec) if x}, c) is None else tuple(c)

    def _solve(self, rest: dict, coeffs):
        """``coefficients`` of {row: entry}, written into ``coeffs`` (a list,
        or a dict of the nonzero ones) and returned, or None: rows are
        consumed top first, and each must be a pivot row, whose column
        clears it and reaches only rows below it."""
        todo = sorted(-row for row in rest)  # rows negated, so pop() gives the top one
        while todo:
            row = -todo.pop()
            x = rest.pop(row)
            if not x:
                continue
            k = self._pivots.get(row)
            if k is None:
                return None
            col = self._columns[k]
            c, r = divmod(x, col[0][1])
            if r:
                return None
            coeffs[k] = c
            for i, y in col[1:]:
                if i not in rest:
                    bisect.insort(todo, -i)
                rest[i] = rest.get(i, 0) - c * y
        return coeffs

    def class_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        c = self.coefficients(vec)
        if c is None:
            raise ValueError("vector does not lie in the numerator lattice")
        return self.group.reduce(c)

    def representative(self, coords: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.ambient_rank
        for c, col in zip(self.group.lift(coords), self._columns):
            if c:
                for i, x in col:
                    out[i] += c * x
        return tuple(out)

    def generator_representatives(self) -> list[tuple[int, ...]]:
        """Representatives of the canonical generators, one per coordinate."""
        width = len(self.group.coordinate_moduli())
        return [self.representative([int(i == j) for j in range(width)]) for i in range(width)]


def _preimage_basis(f: AbHom) -> IntMatrix:
    """Hermite basis of {x : f(x) = 0 in the target}, the numerator of
    kernels and of homology.

    A finite target gives one congruence u_i . F x = 0 mod d_i per
    coordinate slot i, u_i a row of its Smith form, and the basis is
    computed mod the target's exponent (``congruence_kernel``) from the
    columns u . F e_j.  An infinite target (Z summands) projects the
    integer kernel of [F | -R] instead.  Both give the one Hermite basis
    of the same lattice.
    """
    target = f.target
    if target.is_finite:
        # Slots with d_i = 1 are read by no column and give no congruence.
        return congruence_kernel(f.slot_columns, target._diag, f._echelon)
    full = integer_kernel(hstack(f.matrix, -target.presentation))
    return column_hermite(IntMatrix.from_rows(full.to_rows()[: f.source.ngens], cols=full.cols))


def echelon_mod_p(f: AbHom, p: int) -> dict:
    """The congruences ``_preimage_basis`` solves, for a target of exponent
    p (or 1), in reduced row echelon form mod p (``_kernel_mod_p``), with
    no lattice built: its length is the rank of f over F_p, and the image
    has p^rank elements.  It is kept on f, and ``_preimage_basis`` starts
    from it."""
    if f._echelon is None:
        rows = {}
        for j, col in enumerate(f.slot_columns):
            for i, x in col:
                rows.setdefault(i, {})[j] = x
        f._echelon = _kernel_mod_p(rows.values(), p)
    return f._echelon


def kernel_subgroup(f: AbHom) -> Subquotient:
    """ker(f) as a subquotient of the source's generator space.

    The numerator is the preimage of the target relation lattice under the
    matrix of f; the denominator is the source relation lattice.
    """
    return Subquotient(f.source.ngens, _preimage_basis(f), f.source.relation_columns)


def _cyclic_factors(g: FgAbGroup) -> tuple[int, ...]:
    """The orders of g's cyclic summands, 0 standing for each Z."""
    return g.invariant_factors + (0,) * g.free_rank


def hom_group(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Hom_Z(A, B) by its isomorphism type: the sum over cyclic factors Z/x
    of A and Z/y of B of Hom(Z/x, Z/y) = Z/gcd(x, y), with 0 for Z.  A pair
    with y = 0 and x != 0 is left out, since Hom(Z/x, Z) = 0.
    """
    return FgAbGroup.from_cyclic_factors(
        [math.gcd(x, y) for x in _cyclic_factors(a) for y in _cyclic_factors(b) if y or not x]
    )


def ext_group(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Ext_Z(A, B) by its isomorphism type: the sum over torsion factors Z/x
    of A and cyclic factors Z/y of B of Ext(Z/x, Z/y) = Z/gcd(x, y), with 0
    for Z.  Free summands of A contribute nothing, so it is always finite.
    """
    return FgAbGroup.from_cyclic_factors([math.gcd(x, y) for x in a.invariant_factors for y in _cyclic_factors(b)])


class CochainComplex:
    """A finite sequence of groups and maps with d(k+1) after d(k) zero."""

    __slots__ = ("groups", "maps")

    def __init__(self, groups: Sequence[FgAbGroup], maps: Sequence[AbHom]):
        groups = tuple(groups)
        maps = tuple(maps)
        if len(maps) != max(len(groups) - 1, 0):
            raise ValueError(f"{len(groups)} groups need {max(len(groups) - 1, 0)} maps, got {len(maps)}")
        for k, f in enumerate(maps):
            if not f.source.same_presentation(groups[k]) or not f.target.same_presentation(groups[k + 1]):
                raise ValueError(f"map {k} does not connect group {k} to group {k + 1}")
        for k in range(len(maps) - 1):
            j = maps[k + 1].first_nonzero(maps[k].columns)
            if j is not None:
                raise ValidationError(
                    Violation("complex.maps", f"d{k + 1} after d{k} is nonzero", {"position": k, "generator": j})
                )
        self.groups = groups
        self.maps = maps

    def __len__(self):
        return len(self.groups)


def homology_at(complex_: CochainComplex, k: int) -> Subquotient:
    """ker(d_k) / im(d_{k-1}) with class coordinates and representatives.

    The numerator is the lattice of vectors that d_k sends into the
    relation lattice one step up (all of Z^m at the top end); the
    denominator adjoins the image of d_{k-1} to the relation lattice of
    the slot itself.
    """
    if not 0 <= k < len(complex_.groups):
        raise ValueError(f"slot {k} outside complex of length {len(complex_.groups)}")
    g = complex_.groups[k]
    if k < len(complex_.maps):
        numerator = _preimage_basis(complex_.maps[k])
    else:
        numerator = IntMatrix.identity(g.ngens)
    denominator = g.relation_columns
    if k > 0:
        denominator += complex_.maps[k - 1].columns
    return Subquotient(g.ngens, numerator, denominator)
