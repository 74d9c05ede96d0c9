"""Finite groups as explicit multiplication tables, their automorphisms,
and modules over them.

A group of order n is a table t with t[i][j] the index of the product;
index 0 is always the identity.  Construction checks the group laws: the
Latin-square property, two-sided inverses, and associativity by Light's
test against a generating set, equivalent to the cubic check but fast
enough for tables in the hundreds.  Groups built from permutation
generators get a deterministic element order: breadth first over
products, generators applied in input order.  One walk of the Cayley
graph, ``_span``, closes the generating set that Light's test reads and
checks automorphisms, images of that set, on the graph's edges.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .abelian import AbHom, FgAbGroup
from .errors import SizeBoundError, ValidationError, Violation
from .linalg import IntMatrix

__all__ = ["FiniteGroup", "GModule", "automorphism_group"]

DEFAULT_MAX_GROUP_ORDER = 16
DEFAULT_MAX_AUT_ORDER = 64


class FiniteGroup:
    """An explicit finite group; identity is element 0."""

    __slots__ = ("order", "table", "inverse")

    def __init__(self, table: Sequence[Sequence[int]]):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        violations = []
        if n == 0:
            raise ValidationError(Violation("group.table", "empty table; a group needs an identity"))
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValidationError(
                    Violation("group.table", f"row {i} has length {len(row)}, expected {n}")
                )
            for j, x in enumerate(row):
                if not 0 <= x < n:
                    raise ValidationError(
                        Violation("group.table", f"entry out of range at ({i}, {j})", {"value": x})
                    )
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                violations.append(
                    Violation("group.identity", "element 0 is not a two-sided identity", {"index": i})
                )
                break
        for i in range(n):
            if len(set(table[i])) != n:
                violations.append(Violation("group.table", f"row {i} is not a permutation"))
                break
            if len({table[j][i] for j in range(n)}) != n:
                violations.append(Violation("group.table", f"column {i} is not a permutation"))
                break
        inverse = [None] * n
        for i in range(n):
            inv = next((j for j in range(n) if table[i][j] == 0 and table[j][i] == 0), None)
            if inv is None:
                violations.append(Violation("group.inverse", f"element {i} has no two-sided inverse"))
                break
            inverse[i] = inv
        if not violations:
            gens = _greedy_generators(table)
            witness = _light_associativity_witness(table, gens)
            if witness is not None:
                violations.append(
                    Violation("group.associativity", "product is not associative", {"triple": witness})
                )
        if violations:
            raise ValidationError(violations)
        self.order = n
        self.table = table
        self.inverse = tuple(inverse)

    # -- constructors ----------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls.from_cyclic_factors([n])

    @classmethod
    def from_cyclic_factors(cls, factors: Sequence[int]) -> "FiniteGroup":
        """Direct product of cyclic groups, elements in mixed-radix order."""
        if any(d < 1 for d in factors):
            raise ValueError("cyclic factors of a finite group must be >= 1")
        elements = list(itertools.product(*(range(d) for d in factors)))
        index = {x: i for i, x in enumerate(elements)}
        return cls([[index[tuple((a + b) % d for a, b, d in zip(x, y, factors))] for y in elements] for x in elements])

    @classmethod
    def from_permutations(
        cls, generators: Sequence[Sequence[int]], max_order: int = DEFAULT_MAX_GROUP_ORDER
    ) -> "FiniteGroup":
        """Closure of permutation generators under composition.

        Elements are discovered breadth first, multiplying each known
        element on the right by the generators in input order; the
        identity gets index 0.  Exceeding ``max_order`` fails loudly.
        """
        gens = []
        degree = None
        for k, p in enumerate(generators):
            p = tuple(int(x) for x in p)
            if degree is None:
                degree = len(p)
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise ValidationError(
                    Violation("group.generators", f"generator {k} is not a permutation", {"value": p})
                )
            gens.append(p)
        if degree is None:
            degree = 0
        ident = tuple(range(degree))
        elems = [ident]
        index = {ident: 0}
        queue = [ident]
        while queue:
            current = queue.pop(0)
            for g in gens:
                prod = tuple(current[g[i]] for i in range(degree))
                if prod not in index:
                    if len(elems) == max_order:
                        raise SizeBoundError(
                            "permutation closure exceeds the group order bound",
                            requested=f"> {max_order}",
                            bound=max_order,
                        )
                    index[prod] = len(elems)
                    elems.append(prod)
                    queue.append(prod)
        table = [
            [index[tuple(p[q[i]] for i in range(degree))] for q in elems]
            for p in elems
        ]
        return cls(table)

    # -- queries -----------------------------------------------------------

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup(order {self.order})"


def _greedy_generators(table) -> tuple[int, ...]:
    """Small generating set: repeatedly adjoin the lowest element outside
    the ``_span`` of the generators so far.  At most log2(n) generators."""
    n = len(table)
    closure = {0: 0}
    gens = []
    while len(closure) < n:
        gens.append(next(i for i in range(n) if i not in closure))
        closure = _span(table, gens, gens)
    return tuple(gens)


def _light_associativity_witness(table, gens):
    """Light's test: (a g) b == a (g b) for generators g suffices."""
    n = len(table)
    for g in gens:
        for a in range(n):
            row_ag = table[table[a][g]]
            row_a = table[a]
            g_row = table[g]
            for b in range(n):
                if row_ag[b] != row_a[g_row[b]]:
                    return (a, g, b)
    return None


def automorphism_group(
    group: FiniteGroup, max_order: int = DEFAULT_MAX_AUT_ORDER
) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, sorted lexicographically.

    Depth first over images of a greedy generating set, each of its
    generator's element order, keeping the images of a prefix exactly when
    ``_span`` makes them an injective homomorphism of the subgroup the
    prefix generates.  Identity is always present; closure under
    composition and inversion is asserted in tests rather than trusted.
    """
    n = group.order
    if n > max_order:
        raise SizeBoundError("group too large for automorphism search", requested=n, bound=max_order)
    table = group.table
    gens = _greedy_generators(table)
    orders = [group.element_order(i) for i in range(n)]
    candidates_per_gen = [[i for i in range(n) if orders[i] == orders[g]] for g in gens]
    results = []

    def extend(images, f):
        if len(images) == len(gens):  # f is defined on the whole group
            results.append(tuple(f[x] for x in range(n)))
            return
        for img in candidates_per_gen[len(images)]:
            span = _span(table, gens[: len(images) + 1], images + [img])
            if span is not None:
                extend(images + [img], span)

    extend([], {0: 0})
    return sorted(results)


def _span(table, gens, images) -> dict | None:
    """The map f with f(gens[i]) = images[i] on the subgroup that ``gens``
    span, or None when it is not an injective homomorphism.  That subgroup
    is the identity's closure under right multiplication by ``gens``, and
    every edge x -> x g_i of this Cayley graph is checked, f(x g_i) =
    f(x) f(g_i), so f(x w) = f(x) f(w) for every word w in the generators
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, ch. 4).
    """
    f = {0: 0}
    queue = [0]
    while queue:
        x = queue.pop()
        row_x, row_fx = table[x], table[f[x]]
        for g, h in zip(gens, images):
            y, fy = row_x[g], row_fx[h]
            if y not in f:
                f[y] = fy
                queue.append(y)
            elif f[y] != fy:
                return None
    return f if len(set(f.values())) == len(f) else None


class GModule:
    """A finite abelian group with a linear action of a finite group.

    ``action[g]`` is an integer matrix on the base group's generators.
    Construction checks that every matrix is a well defined endomorphism,
    then holds each element's action in canonical coordinates:
    ``canonical_action[g][i]`` is the canonical coordinates of g . e_i for
    the canonical generators e_i, a k x k matrix by columns, each row l
    mod the invariant factor d_l.  An endomorphism is fixed by its images
    of the e_i, and composing is multiplying these matrices mod the d_l
    (d_i f(e_i) = 0, so row l of a product is well defined mod d_l).  So
    the identity and the action law are checked on them, each distinct
    pair of matrices multiplied once, reporting the first witness pair in
    the order of the multiplication table on failure.
    """

    __slots__ = ("group", "base", "action", "canonical_action")

    def __init__(self, group: FiniteGroup, base: FgAbGroup, action: Sequence[IntMatrix]):
        if not base.is_finite:
            raise ValidationError(
                Violation("module.base", "coefficients must be a finite group", {"normal_form": base.normal_form})
            )
        if len(action) != group.order:
            raise ValidationError(
                Violation("module.action", f"need one matrix per group element, got {len(action)} for order {group.order}")
            )
        violations = []
        for g, mat in enumerate(action):
            try:
                AbHom(base, base, mat)
            except ValidationError:
                violations.append(
                    Violation("module.action", f"matrix for element {g} is not an endomorphism", {"element": g})
                )
        if violations:
            raise ValidationError(violations)
        factors = base.invariant_factors
        units = [base.lift(e) for e in IntMatrix.identity(len(factors)).data]
        images = tuple(tuple(base.reduce(mat.apply(e)) for e in units) for mat in action)
        ident = tuple(tuple(int(i == l) for l in range(len(factors))) for i in range(len(factors)))
        if images[0] != ident:
            violations.append(Violation("module.action", "identity element must act as the identity"))
        products = {}  # each distinct pair of matrices is multiplied once
        n = group.order
        for g in range(n):
            for h in range(n):
                gh = group.table[g][h]
                pair = (images[g], images[h])
                if pair not in products:
                    products[pair] = _compose(*pair, factors)
                if products[pair] != images[gh]:
                    violations.append(
                        Violation(
                            "module.action",
                            "action(g) after action(h) differs from action(g h)",
                            {"g": g, "h": h, "gh": gh},
                        )
                    )
                    break
            else:
                continue
            break
        if violations:
            raise ValidationError(violations)
        self.group = group
        self.base = base
        self.action = tuple(action)
        self.canonical_action = images

    @classmethod
    def trivial(cls, group: FiniteGroup, base: FgAbGroup) -> "GModule":
        ident = IntMatrix.identity(base.ngens)
        return cls(group, base, [ident] * group.order)

    def act(self, g: int, vec: Sequence[int]) -> tuple[int, ...]:
        return self.action[g].apply(vec)

    def is_trivial_action(self) -> bool:
        # element 0 acts as the identity
        return all(m == self.canonical_action[0] for m in self.canonical_action)

    def __repr__(self):
        return f"GModule({self.base.symbol()} over group of order {self.group.order})"


def _compose(f, g, factors) -> tuple:
    """f after g for endomorphisms given by their images of the canonical
    generators (columns of canonical coordinates), row l mod factors[l]."""
    return tuple(
        tuple(sum(c * x[l] for c, x in zip(column, f) if c) % d for l, d in enumerate(factors)) for column in g
    )
