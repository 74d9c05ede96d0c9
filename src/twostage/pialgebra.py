"""Two-stage homotopy-type data and its automorphisms.

Two input shapes are supported.  The first concentrates a group in
dimension 1 and a module over it in dimension n >= 2; its homotopy types
are glued by a class in H^{n+1} of the group with module coefficients.
The second concentrates two abelian groups in adjacent dimensions n and
n+1 (n >= 2), glued by the map q induced by precomposition with the Hopf
map: a homomorphism out of A_n/2A_n in the stable range n >= 3, and a
quadratic function on elements when n = 2.

``abelian_automorphisms`` builds Aut of a finite abelian stage one
generator image at a time, pruning images dependent on the socle, instead
of filtering End.  Each automorphism is held in canonical coordinates: its
element map is built along the search tree, its key is read off that map
and checked there with every other key in one batch (``AbHom.from_keys``),
and its matrix on the presentation's generators is lifted only where it is
read (the transport of case A's generating pairs).
``pi_aut`` computes the group of compatible automorphism pairs, each held
as one permutation of the stages' elements (read off the built images and,
for the module's action, off ``GModule.canonical_action``), so that
compatibility and composition are read off permutations.  Elements are
numbered as ``FgAbGroup`` numbers them (``position``, ``strides`` and
``element_map``, in ``element_coords()`` order).  The group is
held as a generating set of at most log2 |P| pairs with a Schreier tree,
not as a composition table.
``act_on_kinvariants`` gives the action of a pair on H^{n+1}, whose orbits
count homotopy types; it runs on the generators only.  It is linear: only
the generators of H^{n+1} are transported, and every class follows by
coordinate arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .abelian import AbHom, FgAbGroup
from .cohomology import Cocycle, CohomologyGroup
from .errors import (
    InternalConsistencyError,
    SizeBoundError,
    ValidationError,
    Violation,
)
from .groups import DEFAULT_MAX_AUT_ORDER, GModule, automorphism_group
from .linalg import IntMatrix

__all__ = [
    "TwoStageDim1N",
    "TwoStageDimNN1",
    "QuadraticMap",
    "AutPairA",
    "AutPairB",
    "PiAut",
    "SymbolicAut",
    "abelian_automorphisms",
    "pi_aut",
    "act_on_kinvariants",
]

DEFAULT_MAX_ENDOS = 4096
DEFAULT_MAX_QUADRATIC_ORDER = 64


class TwoStageDim1N:
    """Stages in dimensions 1 and n: a finite group and a module over it."""

    __slots__ = ("n", "a1", "an")

    def __init__(self, n: int, an: GModule):
        if n < 2:
            raise ValidationError(Violation("n", f"dimension must be at least 2, got {n}"))
        self.n = n
        self.a1 = an.group
        self.an = an

    def __repr__(self):
        return f"TwoStageDim1N(n={self.n}, |A1|={self.a1.order}, An={self.an.base.symbol()})"


class QuadraticMap:
    """A function q: A -> B with bilinear cross-effect, given on elements.

    Values are stored per element of A in canonical-coordinate order.
    Bilinearity of b(x, y) = q(x+y) - q(x) - q(y) is checked on every
    pair of elements, which is why the source must be finite and small.
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, values: Sequence[Sequence[int]]):
        _check_enumerable(source)
        if len(values) != source.order:
            raise ValidationError(
                Violation(
                    "q.values",
                    f"need one value per element: {source.order} expected, {len(values)} given",
                )
            )
        vals = []
        for v in values:
            v = tuple(int(x) for x in v)
            if len(v) != target.ngens:
                raise ValidationError(
                    Violation("q.values", f"value length {len(v)} does not match {target.ngens} generators")
                )
            vals.append(v)
        self.source = source
        self.target = target
        self.values = tuple(vals)
        self._check_cross_effect()

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "QuadraticMap":
        _check_enumerable(source)
        return cls(source, target, [(0,) * target.ngens] * source.order)

    def __call__(self, vec: Sequence[int]) -> tuple[int, ...]:
        """q(x) in target generator coordinates; x in source generator coordinates."""
        return self.values[self.source.position(self.source.reduce(vec))]

    def cross_effect(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        s = [a + b for a, b in zip(x, y)]
        return tuple(a - b - c for a, b, c in zip(self(s), self(x), self(y)))

    def _check_cross_effect(self):
        # b(x1 + x2, y) = b(x1, y) + b(x2, y) for x2 = 0 and for the
        # canonical generators e is enough, so the check costs O(|A|^2):
        # x2 = 0 gives b(0, y) = 0, and then by induction on words w,
        # b(x + w + e, y) = b(x + w, y) + b(e, y) = b(x, y) + b(w + e, y).
        els = self.source.elements()
        for x1 in els:
            for x2 in [els[0]] + [els[s] for s in self.source.strides]:
                x12 = [a + b for a, b in zip(x1, x2)]
                for y in els:
                    lhs = self.cross_effect(x12, y)
                    rhs = [a + b for a, b in zip(self.cross_effect(x1, y), self.cross_effect(x2, y))]
                    diff = [a - b for a, b in zip(lhs, rhs)]
                    if not self.target.is_zero(diff):
                        raise ValidationError(
                            Violation(
                                "q.values",
                                "cross-effect b(x, y) = q(x+y) - q(x) - q(y) is not bilinear",
                                {"x1": tuple(x1), "x2": tuple(x2), "y": tuple(y)},
                            )
                        )

    def is_zero_map(self) -> bool:
        return all(self.target.is_zero(v) for v in self.values)

    def __repr__(self):
        return f"QuadraticMap({self.source.symbol()} -> {self.target.symbol()})"


def _check_enumerable(source: FgAbGroup):
    """Refuse a source that exhaustive validation of q cannot go through."""
    if not source.is_finite:
        raise ValidationError(Violation("q.source", "quadratic maps require a finite source group"))
    if source.order > DEFAULT_MAX_QUADRATIC_ORDER:
        raise SizeBoundError(
            "source too large for exhaustive quadratic validation",
            requested=source.order,
            bound=DEFAULT_MAX_QUADRATIC_ORDER,
        )


class TwoStageDimNN1:
    """Stages in adjacent dimensions n and n+1, glued by the Hopf map q.

    For n >= 3, q is a homomorphism A_n/2A_n -> A_{n+1} (pass None for the
    zero map).  For n = 2, q is a QuadraticMap and A_n must be finite.
    """

    __slots__ = ("n", "an", "an1", "q")

    def __init__(self, n: int, an: FgAbGroup, an1: FgAbGroup, q=None):
        if n < 2:
            raise ValidationError(Violation("n", f"dimension must be at least 2, got {n}"))
        if n == 2:
            if not an.is_finite:
                raise ValidationError(
                    Violation("an", "quadratic gluing in dimension 2 requires a finite group")
                )
            if q is None:
                q = QuadraticMap.zero(an, an1)
            if not isinstance(q, QuadraticMap):
                raise ValidationError(
                    Violation("q", "dimension 2 needs q as an element table (QuadraticMap)")
                )
            if not (q.source.same_presentation(an) and q.target.same_presentation(an1)):
                raise ValidationError(Violation("q", "q must map A_n to A_{n+1}"))
        else:
            mod2 = an.modulo(2)
            if q is None:
                q = AbHom.zero(mod2, an1)
            if not isinstance(q, AbHom):
                raise ValidationError(
                    Violation("q", "dimensions >= 3 need q as a homomorphism out of A_n/2A_n")
                )
            if not (q.source.same_presentation(mod2) and q.target.same_presentation(an1)):
                raise ValidationError(
                    Violation("q", "q must be defined on A_n/2A_n with values in A_{n+1}")
                )
        self.n = n
        self.an = an
        self.an1 = an1
        self.q = q

    def q_is_zero(self) -> bool:
        return self.q.is_zero_map()

    def __repr__(self):
        return f"TwoStageDimNN1(n={self.n}, {self.an.symbol()}, {self.an1.symbol()})"


# -- automorphism pairs ------------------------------------------------------


class AutPairA:
    """(phi, psi): a group automorphism and a compatible automorphism of
    the finite A_n, psi(g.m) = phi(g).psi(m).  As one permutation,
    ``points`` is phi on A_1, then psi on A_n numbered from |A_1| on;
    ``psi_map`` must be psi's element map, as ``abelian_automorphisms``
    gives it."""

    __slots__ = ("phi", "psi", "points")

    def __init__(self, phi: tuple[int, ...], psi: AbHom, psi_map: Sequence[int]):
        self.phi = tuple(phi)
        self.psi = psi
        self.points = self.phi + tuple(len(self.phi) + y for y in psi_map)

    def key(self):
        return (self.phi, self.psi.canonical_key())

    def generator_points(self) -> tuple[int, ...]:
        # all of A_1, then the canonical generators of A_n
        k = len(self.phi)
        return tuple(range(k)) + tuple(k + s for s in self.psi.source.strides)

    def __repr__(self):
        return f"AutPairA(phi={self.phi}, psi={self.psi.canonical_key()})"


class AutPairB:
    """(psi_n, psi_n1): automorphisms of the two finite stages commuting with q.
    As one permutation, ``points`` is psi_n on A_n, then psi_n1 on
    A_(n+1) numbered from |A_n| on, from their element maps, as
    ``abelian_automorphisms`` gives them."""

    __slots__ = ("psi_n", "psi_n1", "points")

    def __init__(self, psi_n: AbHom, psi_n1: AbHom, map_n: Sequence[int], map_n1: Sequence[int]):
        self.psi_n = psi_n
        self.psi_n1 = psi_n1
        self.points = tuple(map_n) + tuple(len(map_n) + y for y in map_n1)

    def key(self):
        return (self.psi_n.canonical_key(), self.psi_n1.canonical_key())

    def generator_points(self) -> tuple[int, ...]:
        # the canonical generators of A_n, then those of A_(n+1)
        an = self.psi_n.source
        return an.strides + tuple(an.order + s for s in self.psi_n1.source.strides)

    def __repr__(self):
        return f"AutPairB({self.psi_n.canonical_key()}, {self.psi_n1.canonical_key()})"


@dataclass(frozen=True)
class SymbolicAut:
    """Stands in for an automorphism group that cannot be enumerated
    (infinite stage groups); carries a description only."""

    description: str


class PiAut:
    """The finite group of compatible automorphism pairs, held as a small
    generating set and a Schreier tree; identity at a known index.  No
    composition table is built.

    Pairs compose as permutations of the stages' elements, (p s)(x) =
    p.points[s.points[x]].  A pair and its permutation determine each
    other, and so do its images of the stages' generators
    (``generator_points``); products are looked up by those.

    ``generators`` is chosen greedily in the sorted order of the pairs: a
    pair joins it when the traversal from the identity by the generators
    so far has not reached it.  ``step[g][j]`` is the index of
    generators[g] . j for every pair j, and ``tree`` lists every other pair
    k as (k, g, j), k = generators[g] . j, parents before children.  Every
    product of a generator with a pair is looked up; a set that contains
    the identity, is reached from it this way and is closed under these
    products is a group.  So the duplicate, closure and identity checks
    keep their meaning at |P|.|S| lookups (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.1).  |S| <= log2 |P|:
    each new generator at least doubles the group reached.
    """

    __slots__ = ("case", "elements", "identity_index", "generators", "step", "tree")

    def __init__(self, case: str, elements: Sequence):
        elements = sorted(elements, key=lambda p: p.key())
        gens = elements[0].generator_points() if elements else ()
        keys = [tuple([p.points[x] for x in gens]) for p in elements]
        index = {k: i for i, k in enumerate(keys)}
        if len(index) != len(elements):
            raise InternalConsistencyError("duplicate automorphism pairs")
        ident = next((i for i, p in enumerate(elements) if p.points == tuple(range(len(p.points)))), None)
        if ident is None:
            raise InternalConsistencyError("no identity among the automorphism pairs")
        generators, step, tree = [], [], []
        reached = [False] * len(elements)
        reached[ident] = True
        found = [ident]

        def visit(g: int, j: int):
            points = elements[generators[g]].points
            k = index.get(tuple([points[y] for y in keys[j]]))
            if k is None:
                raise InternalConsistencyError("automorphism pairs are not closed under composition")
            step[g][j] = k
            if not reached[k]:
                reached[k] = True
                tree.append((k, g, j))
                found.append(k)

        for candidate in range(len(elements)):
            if reached[candidate]:
                continue
            generators.append(candidate)
            step.append([None] * len(elements))
            old = len(found)
            # the pairs reached so far are closed under the earlier generators
            for j in found[:old]:
                visit(len(generators) - 1, j)
            # pairs reached from here on meet every generator
            while old < len(found):
                for g in range(len(generators)):
                    visit(g, found[old])
                old += 1
        self.case = case
        self.elements = tuple(elements)
        self.identity_index = ident
        self.generators = tuple(generators)
        self.step = tuple(map(tuple, step))
        self.tree = tuple(tree)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"PiAut(case {self.case}, order {self.order})"


def abelian_automorphisms(group: FgAbGroup, max_endos: int = DEFAULT_MAX_ENDOS) -> list[tuple[AbHom, tuple[int, ...]]]:
    """All automorphisms of a finite abelian group, sorted canonically,
    each with its element map: the positions, in ``element_coords()``
    order, of the images of the elements in that order.

    They are built, not filtered out of End (``_automorphism_maps``).
    With invariant factors d_1 | ... | d_k, f(e_i) is one of the
    prod_l gcd(d_i, d_l) elements killed by d_i; ``max_endos`` bounds
    |End|, the product over i, before anything is listed.  Each
    automorphism's ``canonical_key`` is read off its element map: the
    image of a presentation generator x_g is the element at
    ``points[position(reduce(x_g))]``.  The keys are checked as one batch
    by ``AbHom.from_keys`` in canonical coordinates; a matrix on the
    generators is lifted only if read.
    """
    if not group.is_finite:
        raise SizeBoundError("cannot enumerate automorphisms of an infinite group")
    factors = group.invariant_factors
    endos = math.prod(math.gcd(a, b) for a in factors for b in factors)
    if endos > max_endos:
        raise SizeBoundError("group too large to enumerate", requested=endos, bound=max_endos)
    # the position of each generator of the presentation
    generators = [group.position(group.reduce(e)) for e in IntMatrix.identity(group.ngens).data]
    elements = group.element_coords()
    built = sorted((tuple([elements[points[p]] for p in generators]), points) for points in _automorphism_maps(group))
    homs = AbHom.from_keys(group, group, [key for key, _ in built])
    return [(f, points) for f, (_, points) in zip(homs, built)]


def _automorphism_maps(group: FgAbGroup) -> list[tuple[int, ...]]:
    """The element map of each automorphism of a finite Z/d_1 x ... x Z/d_k
    (``FgAbGroup.element_map`` of its images of the canonical generators
    e_i).  An endomorphism of a finite group is bijective when it is
    injective on the socle: for each prime p, the (d_i/p) f(e_i) with
    p | d_i are independent over F_p.  Images are chosen generator by
    generator.  The candidates for f(e_i) are listed once per depth: the x
    killed by d_i whose socle vector (d_i/p) x is nonzero for every
    p | d_i.  A node holds, for each prime, the span of the socle vectors
    chosen so far, and a candidate with a vector in its prime's span is
    pruned there.

    The element maps are built along the same search.  A node that has
    chosen f(e_1), ..., f(e_j) holds, for each coordinate l, the l-th
    coordinate times its stride of sum_{i <= j} c_i f(e_i) for every
    (c_1, ..., c_j) in mixed-radix order; a child extends these lists by
    its image, so every automorphism below a node shares its lists.  At a
    leaf the strided coordinate lists add up to the positions."""
    factors = group.invariant_factors
    if not factors:
        return [(0,)]
    strides = group.strides
    exponent = factors[-1]
    primes = [p for p in range(2, exponent + 1) if exponent % p == 0 and all(p % q for q in range(2, p))]
    # (per prime: the span of the socle vectors chosen so far, strided coordinate lists)
    level = [({p: {tuple(0 for m in factors if m % p == 0)} for p in primes}, tuple([0] for _ in factors))]
    for depth, d in enumerate(factors):
        leaf = depth + 1 == len(factors)
        dividing = [p for p in primes if d % p == 0]
        candidates = []
        for x in itertools.product(*(range(0, m, m // math.gcd(d, m)) for m in factors)):
            # (d/p) x on the basis (m/p) e_l of the socle, p | m
            vectors = [tuple([(d // p * c % m) // (m // p) for c, m in zip(x, factors) if m % p == 0]) for p in dividing]
            if all(map(any, vectors)):
                candidates.append((x, list(zip(dividing, vectors))))
        grown = []
        for x, vectors in candidates:
            # per coordinate: the multiples c x_l (c < d) times the stride, and the strided modulus
            offsets = [([k * c * s for k in range(d)], m * s) for c, m, s in zip(x, factors, strides)]
            for spans, lists in level:
                for p, v in vectors:
                    if v in spans[p]:
                        break
                else:
                    lists = [
                        [(a + o) % m for a in lst for o in offs] if offs[-1] else [a for a in lst for _ in offs]
                        for lst, (offs, m) in zip(lists, offsets)
                    ]
                    if leaf:
                        points = lists[0]
                        for lst in lists[1:]:
                            points = [a + b for a, b in zip(points, lst)]
                        grown.append(tuple(points))
                    else:
                        grown.append(({**spans, **{p: _span_with(spans[p], v, p) for p, v in vectors}}, lists))
        level = grown
    return level


def _span_with(span: set, v: tuple[int, ...], p: int) -> set:
    """The F_p span of the vectors in ``span`` and v."""
    return {tuple([(a + c * b) % p for a, b in zip(s, v)]) for s in span for c in range(p)}


def pi_aut(
    algebra,
    max_group_aut: int = DEFAULT_MAX_AUT_ORDER,
    max_endos: int = DEFAULT_MAX_ENDOS,
):
    """Aut of the two-stage data: compatible automorphism pairs.

    Returns a PiAut, or a SymbolicAut marker when a stage group is
    infinite (second shape only) and enumeration is impossible.
    """
    if isinstance(algebra, TwoStageDim1N):
        return _pi_aut_case_a(algebra, max_group_aut, max_endos)
    if isinstance(algebra, TwoStageDimNN1):
        return _pi_aut_case_b(algebra, max_endos)
    raise TypeError(f"not a two-stage algebra: {algebra!r}")


def _pi_aut_case_a(algebra: TwoStageDim1N, max_group_aut: int, max_endos: int) -> PiAut:
    group = algebra.a1
    module = algebra.an
    base = module.base
    group_autos = automorphism_group(group, max_order=max_group_aut)
    base_autos = abelian_automorphisms(base, max_endos=max_endos)
    # (phi, psi) is kept when psi g = phi(g) psi on every element of A_n.
    # The bound on base_autos bounds these lists: |A_n| <= |End(A_n)|.
    action = [base.element_map(images) for images in module.canonical_action]
    pairs = []
    for psi, points in base_autos:
        psi_g = [[points[y] for y in a] for a in action]
        g_psi = [[a[y] for y in points] for a in action]
        for phi in group_autos:
            if all(psi_g[g] == g_psi[phi[g]] for g in range(group.order)):
                pairs.append(AutPairA(phi, psi, points))
    return PiAut("A", pairs)


def _pi_aut_case_b(algebra: TwoStageDimNN1, max_endos: int) -> PiAut | SymbolicAut:
    an, an1, q = algebra.an, algebra.an1, algebra.q
    if not (an.is_finite and an1.is_finite):
        return SymbolicAut(_symbolic_description(algebra))
    autos_n = abelian_automorphisms(an, max_endos=max_endos)
    autos_n1 = abelian_automorphisms(an1, max_endos=max_endos)
    # (f, g) is kept when g q = q f on every element of A_n, quadratic q or
    # not.  The bound on autos_n bounds these lists: |A_n| <= |End(A_n)|.
    q_points = [an1.position(an1.reduce(q(x))) for x in an.elements()]
    q_f = [[q_points[y] for y in points] for _, points in autos_n]
    pairs = []
    for g, points in autos_n1:
        g_q = [points[y] for y in q_points]
        pairs.extend(AutPairB(f, g, f_map, points) for (f, f_map), qf in zip(autos_n, q_f) if qf == g_q)
    return PiAut("B", pairs)


def _aut_symbol(group: FgAbGroup) -> str:
    if group.free_rank > 0 and not group.invariant_factors:
        return f"GL_{group.free_rank}(Z)"
    return f"Aut({group.symbol()})"


def _symbolic_description(algebra: TwoStageDimNN1) -> str:
    left = _aut_symbol(algebra.an)
    right = _aut_symbol(algebra.an1)
    if algebra.q_is_zero():
        return f"{left} x {right}"
    return f"stabilizer of q in {left} x {right}"


# -- transporting k-invariants ----------------------------------------------


def act_on_kinvariants(
    algebra: TwoStageDim1N, pair: AutPairA, coh: CohomologyGroup
) -> tuple[int, ...]:
    """The permutation a compatible pair induces on the classes of
    H^{n+1}(A_1; A_n), as images indexed by ``coh.classes()`` order.

    A class [z] goes to [psi . z . phi^{-1}-coordinatewise], which is
    linear in z.  So only the representatives of the canonical generators
    (``coh.representatives``) are transported and solved, and every class
    moves by coordinate arithmetic.  A transported representative that is
    not a cocycle, a generator image whose order does not divide its
    invariant factor, and images that do not permute the classes are
    consistency failures, not input errors.
    """
    if coh.module is not algebra.an:
        raise ValueError("cohomology group does not belong to this algebra's module")
    n = algebra.a1.order
    phi_inv = [0] * n
    for g, image in enumerate(pair.phi):
        phi_inv[image] = g
    # the block of phi^{-1}(t) for each tuple t of the degree, in product
    # order, the same for every generator
    sources = [0]
    for _ in range(coh.degree):
        sources = [b * (n - 1) + phi_inv[g] - 1 for b in sources for g in range(1, n)]
    psi_rows = pair.psi.matrix.nonzero_rows()
    factors = coh.group.invariant_factors
    images = []
    for z, d in zip(coh.representatives, factors):
        moved = _transport_cocycle(z, sources, psi_rows)
        try:
            image = coh.class_of(moved)
        except ValueError:
            raise InternalConsistencyError(
                "transported representative is not a cocycle; transport is broken"
            ) from None
        if any(d * c % m for c, m in zip(image, factors)):
            raise InternalConsistencyError("transport sends a generator of H^(n+1) to an element of larger order")
        images.append(image)
    perm = coh.group.element_map(images)
    if sorted(perm) != list(range(len(perm))):
        raise InternalConsistencyError("transport did not permute the classes")
    return perm


def _transport_cocycle(z: Cocycle, sources: Sequence[int], psi_rows) -> Cocycle:
    """psi . z . phi^{-1}: block t of the result is psi, given by its sparse
    rows, on block ``sources[t]`` of z."""
    mb = len(psi_rows)
    v = z.vector
    out = []
    for b in sources:
        b *= mb
        out.extend([sum([c * v[b + j] for j, c in row]) for row in psi_rows])
    return Cocycle(z.module, z.degree, out)
