"""Moduli of realizations: assemble the homotopy groups of the space of
realizations of two-stage data into a report.

For data in dimensions (1, n) the components of the moduli space are the
orbits of Aut(A) on H^{n+1}(A_1; A_n); at each basepoint pi_1 is an
extension of the stabilizer of the k-invariant by H^n, pi_n is the group
of derivations, pi_i = H^{n+1-i} for 2 <= i < n, and everything above n
vanishes.

For data in dimensions (n, n+1) the moduli space is connected with a
unique realizing homotopy type: pi_2 = Hom(A_n, A_{n+1}) and, in the
pointed variant, pi_1 = Ext(A_n, A_{n+1}); forgetting the identification
of homotopy groups extends pi_1 by the full automorphism group, all of
which is realizable.

Reports carry every number with a provenance string.  Aut(A) acts on
H^{n+1} through a generating set S of at most log2 |Aut(A)| pairs, the
only pairs whose k-invariants are transported; orbits are found by a
traversal over their permutations, and each stabilizer order is
|Aut(A)|/|orbit|.  Two routes are checked before a report is returned:
- Schreier relations: every pair's action, a product of generators along
  the Schreier tree of Aut(A), obeys s.j for every generator s and pair
  j, so the generators' permutations are an action of Aut(A);
- Burnside: the fixed classes of every pair, each |ker(A - I)| for its
  matrix A on H's coordinates, sum to pi_0 |Aut(A)|.  For H = (Z/p)^r,
  p prime, that is p^(r - rank_p(A - I)); otherwise |coker(A - I)|.
When H is 0 or Z/2, read off reductions mod p with no subquotient, both
hold trivially on its one or two classes, but the transport still runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup, ext_group, hom_group
from .cohomology import DEFAULT_MAX_ENUMERATION, DEFAULT_MAX_RANK, _prime_exponent, cohomology_range
from .errors import InternalConsistencyError
from .groups import DEFAULT_MAX_AUT_ORDER
from .linalg import _kernel_mod_2, _kernel_mod_p, _xgcd
from .pialgebra import (
    DEFAULT_MAX_ENDOS,
    PiAut,
    SymbolicAut,
    TwoStageDim1N,
    TwoStageDimNN1,
    act_on_kinvariants,
    pi_aut,
)

__all__ = [
    "Orbit",
    "OrbitDecomposition",
    "Pi1Extension",
    "PiRow",
    "BasepointBlock",
    "ModuliReport",
    "moduli_case_a",
    "moduli_case_b",
]

DEGREE_SHIFT_NOTE = (
    "degree shifts: pi_n <-> Der (1-cocycles, not H^1); "
    "pi_i <-> H^(n+1-i) for 2 <= i < n; pi_1 kernel <-> H^n; "
    "pi_0 <-> H^(n+1) / Aut(A)"
)


@dataclass(frozen=True)
class Orbit:
    """One component: an orbit of Aut(A) on the k-invariant classes."""

    representative: tuple[int, ...]
    size: int
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitDecomposition:
    classes: tuple[tuple[int, ...], ...]
    orbits: tuple[Orbit, ...]


@dataclass(frozen=True)
class Pi1Extension:
    """pi_1 known as kernel and quotient; the gluing class is not computed."""

    kernel: FgAbGroup
    kernel_provenance: str
    quotient_description: str
    quotient_order: int | None
    order: int | None
    extension_class: str = "unknown"


@dataclass(frozen=True)
class PiRow:
    """One homotopy group of the moduli space, with its origin."""

    index: int
    provenance: str
    group: FgAbGroup


@dataclass(frozen=True)
class BasepointBlock:
    label: str
    pi1: Pi1Extension
    orbit: Orbit | None = None


@dataclass(frozen=True)
class ModuliReport:
    case: str
    n: int
    input_description: str
    pi0: int
    pi0_provenance: str
    pi_rows: tuple[PiRow, ...]
    basepoints: tuple[BasepointBlock, ...]
    aut_order: int | None
    aut_description: str
    cohomology_table: tuple[tuple[int, str], ...] = ()
    orbit_decomposition: OrbitDecomposition | None = None
    tree: str | None = None
    notes: tuple[str, ...] = ()


def _require(condition: bool, message: str):
    if not condition:
        raise InternalConsistencyError(message)


def moduli_case_a(
    algebra: TwoStageDim1N,
    max_rank: int = DEFAULT_MAX_RANK,
    max_group_aut: int = DEFAULT_MAX_AUT_ORDER,
    max_endos: int = DEFAULT_MAX_ENDOS,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> ModuliReport:
    """The full report for data in dimensions 1 and n.

    Computes the cohomology ladder, the derivation group, Aut(A), its
    action on the k-invariant classes, and the per-orbit pi_1 extensions.
    Only the generators of Aut(A) are transported (``act_on_kinvariants``);
    every other pair acts by the product along the Schreier tree.  The
    Schreier relations and Burnside's count are verified before returning.
    """
    n = algebra.n
    module = algebra.an
    ladder = cohomology_range(module, n + 1, max_rank=max_rank)
    top = ladder[n + 1]
    # Every class is listed: refuse an H^(n+1) over the bound before any Aut work.
    classes = top.classes(max_enumeration)
    der = ladder[1].cocycle_group()
    aut = pi_aut(algebra, max_group_aut=max_group_aut, max_endos=max_endos)

    perms = tuple(act_on_kinvariants(algebra, aut.elements[g], top) for g in aut.generators)
    _require(all(p[0] == 0 for p in perms), "zero class is not fixed by the automorphism action")
    images = _action_along_tree(aut, perms, top.group.strides)

    orbits = _orbits(classes, perms, aut.order)
    _require(sum(o.size for o in orbits) == len(classes), "orbit sizes do not sum to |H^(n+1)|")
    _require(orbits[0].representative == classes[0], "zero class is not the first orbit representative")
    fixed_total = sum(_fixed_counts(images, top.group))
    _require(fixed_total == len(orbits) * aut.order, "Burnside count disagrees with orbit count")

    h_n = ladder[n].group
    pi_rows = [
        PiRow(
            index=n,
            provenance="Der(A_1, A_n): crossed homomorphisms A_1 -> A_n",
            group=der,
        )
    ]
    for i in range(n - 1, 1, -1):
        g = ladder[n + 1 - i].group
        pi_rows.append(
            PiRow(
                index=i,
                provenance=f"H^{n + 1 - i}(A_1; A_n)",
                group=g,
            )
        )

    blocks = []
    for pos, orbit in enumerate(orbits):
        split = orbit.representative == classes[0]
        label = f"k-invariant {_class_label(orbit.representative)}" + (" (split)" if split else "")
        pi1 = Pi1Extension(
            kernel=h_n,
            kernel_provenance=f"H^{n}(A_1; A_n)",
            quotient_description=(
                "Stab(k) <= Aut(A), the automorphisms realizable at this basepoint"
            ),
            quotient_order=orbit.stabilizer_order,
            order=(h_n.order * orbit.stabilizer_order) if h_n.is_finite else None,
            extension_class="unknown",
        )
        blocks.append(BasepointBlock(label=label, pi1=pi1, orbit=orbit))

    table = tuple((k, ladder[k].group.symbol()) for k in range(n + 2))
    tree = _realization_tree(n, orbits, classes)
    notes = (
        DEGREE_SHIFT_NOTE,
        f"H^1(A_1; A_n) = {ladder[1].group.symbol()} (context only; pi_n uses Der, not H^1)",
        f"pi_i = 0 for i > {n}",
    )
    return ModuliReport(
        case="A",
        n=n,
        input_description=(
            f"A_1: order {algebra.a1.order}; A_n = {module.base.symbol()}"
            + (" (trivial action)" if module.is_trivial_action() else " (nontrivial action)")
        ),
        pi0=len(orbits),
        pi0_provenance="orbits of Aut(A) on H^(n+1)(A_1; A_n)",
        pi_rows=tuple(pi_rows),
        basepoints=tuple(blocks),
        aut_order=aut.order,
        aut_description=f"compatible automorphism pairs (phi, psi), order {aut.order}",
        cohomology_table=table,
        orbit_decomposition=OrbitDecomposition(tuple(classes), orbits),
        tree=tree,
        notes=notes,
    )


def moduli_case_b(
    algebra: TwoStageDimNN1,
    max_endos: int = DEFAULT_MAX_ENDOS,
) -> ModuliReport:
    """The report for data in dimensions n and n+1.

    Always connected with a unique realizing homotopy type; pi_2 = Hom,
    pointed pi_1 = Ext, and the unpointed pi_1 extends Aut(A) by Ext.
    When a stage group is infinite the automorphism side degrades to a
    symbolic description instead of failing.
    """
    an, an1 = algebra.an, algebra.an1
    hom = hom_group(an, an1)
    ext = ext_group(an, an1)
    _require(ext.is_finite, "Ext of finitely generated groups must be finite")
    aut = pi_aut(algebra, max_endos=max_endos)
    symbolic = isinstance(aut, SymbolicAut)
    aut_order = None if symbolic else aut.order
    aut_desc = aut.description if symbolic else f"compatible automorphism pairs (psi_n, psi_n+1), order {aut.order}"

    pi_rows = (
        PiRow(
            index=2,
            provenance="Hom(A_n, A_n+1)",
            group=hom,
        ),
    )
    pointed_pi1 = Pi1Extension(
        kernel=ext,
        kernel_provenance="Ext(A_n, A_n+1)",
        quotient_description="trivial (pointed variant: identifications fixed)",
        quotient_order=1,
        order=ext.order,
        extension_class="unknown",
    )
    unpointed_pi1 = Pi1Extension(
        kernel=ext,
        kernel_provenance="Ext(A_n, A_n+1)",
        quotient_description=f"Aut(A) = {aut_desc}" if symbolic else "Aut(A): all automorphisms are realizable",
        quotient_order=aut_order,
        order=(ext.order * aut_order) if aut_order is not None else None,
        extension_class="unknown",
    )
    blocks = (
        BasepointBlock(label="pointed moduli (identifications fixed)", pi1=pointed_pi1),
        BasepointBlock(label="full moduli", pi1=unpointed_pi1),
    )
    report = ModuliReport(
        case="B",
        n=algebra.n,
        input_description=(
            f"A_n = {an.symbol()}; A_n+1 = {an1.symbol()}; q "
            + ("= 0" if algebra.q_is_zero() else "nonzero")
        ),
        pi0=1,
        pi0_provenance="connected: a unique homotopy type realizes the data",
        pi_rows=pi_rows,
        basepoints=blocks,
        aut_order=aut_order,
        aut_description=aut_desc,
        notes=(
            "pi_i = 0 for i >= 3",
            "every automorphism of A is realizable: pi_1 of the full moduli "
            "space surjects onto Aut(A)",
            "the realization is unique up to weak equivalence",
        ),
    )
    _require(report.pi0 == 1, "dimension (n, n+1) reports must be connected")
    return report


def _action_along_tree(aut: PiAut, perms: tuple[tuple[int, ...], ...], generators: tuple[int, ...]) -> list:
    """Every pair's action as the positions of its images of H's canonical
    generators (``generators``), found along the Schreier tree: s.j sends
    them to perm_s of j's images.  Every perm is a homomorphism of H, so
    the images determine it.

    The Schreier relations perm_s(images of j) = images of s.j must hold
    for every pair j and generator s.  Then the generators' permutations
    obey every relation of P among them, and the images are an action of
    P: the identity acts trivially and the action respects composition."""
    images = [None] * aut.order
    images[aut.identity_index] = generators
    for k, g, j in aut.tree:
        perm = perms[g]
        images[k] = tuple([perm[x] for x in images[j]])
    for perm, step in zip(perms, aut.step):
        for j, k in enumerate(step):
            _require(
                tuple([perm[x] for x in images[j]]) == images[k],
                "automorphism action is not compatible with composition",
            )
    return images


def _orbits(classes, perms, order: int) -> tuple[Orbit, ...]:
    """Orbits of the group generated by ``perms`` (one per generator of a
    group of the given order), each led by its lowest-index class."""
    count = len(classes)
    seen = [False] * count
    orbits = []
    for start in range(count):
        if seen[start]:
            continue
        frontier = [start]
        seen[start] = True
        size = 1
        while frontier:
            x = frontier.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    size += 1
                    frontier.append(y)
        _require(order % size == 0, "orbit size does not divide the order of Aut(A)")
        orbits.append(Orbit(representative=classes[start], size=size, stabilizer_order=order // size))
    return tuple(orbits)


def _fixed_counts(images: list, group: FgAbGroup) -> list[int]:
    """The classes each pair fixes, from its images of the canonical
    generators of H = ``group`` (``_action_along_tree``): p^(r - rank_p(A -
    I)) for H = (Z/p)^r, p prime, else ``_fixed_count``.  Column j of A - I
    is read off the base-p digits of ``images[j]``, over F_2 as the int
    ``images[j] ^ strides[j]``, and the rank is the pivot count of the one
    row reduction mod p, ``_kernel_mod_p``."""
    p = _prime_exponent(group)
    if p is None:
        return [_fixed_count(i, group) for i in images]
    strides = group.strides
    if p == 2:
        ranks = [len(_kernel_mod_2([y ^ s for y, s in zip(i, strides)])) for i in images]
    else:
        ranks = [
            len(_kernel_mod_p([{k: y // s - (k == j) for k, s in enumerate(strides)} for j, y in enumerate(i)], p))
            for i in images
        ]
    return [p ** (len(strides) - rank) for rank in ranks]


def _fixed_count(images: tuple[int, ...], group: FgAbGroup) -> int:
    """The classes a pair fixes, from the positions ``images`` of its images
    of the canonical generators of H = ``group`` = Z/d_1 + ... + Z/d_r, for
    any finite H; the reference for the rank route of ``_fixed_counts``.

    With A the matrix of those images' coordinates, |Fix| = |ker(A - I)| =
    |coker(A - I)|, the index in Z^r of the lattice L spanned by the
    columns of A - I and every d_i e_i.  Row by row, gcd steps fold the
    columns into one pivot column, started at d_i e_i; the pivots' entries
    multiply to the index.  The columns left over span the part of L that
    is zero down to row i, which still holds every later d_k e_k, so their
    entries in row k may be taken mod d_k."""
    factors = group.invariant_factors
    r = len(factors)
    strides = group.strides
    cols = [
        [(x // stride) % d - (i == j) for i, (d, stride) in enumerate(zip(factors, strides))]
        for j, x in enumerate(images)
    ]
    index = 1
    for i, d in enumerate(factors):
        pivot = [d if k == i else 0 for k in range(r)]
        rest = []
        for col in cols:
            a, b = pivot[i], col[i] % d
            if b % a:
                g, x, y = _xgcd(a, b)
                col, pivot = (
                    [(b // g * u - a // g * v) % m for u, v, m in zip(pivot, col, factors)],
                    [(x * u + y * v) % m for u, v, m in zip(pivot, col, factors)],
                )
                pivot[i] = g
            elif b:
                col = [(b // a * u - v) % m for u, v, m in zip(pivot, col, factors)]
            col[i] = 0
            if any(col):
                rest.append(col)
        index *= pivot[i]
        cols = rest
    return index



def _class_label(coords: tuple[int, ...]) -> str:
    if not coords or all(c == 0 for c in coords):
        return "0"
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _realization_tree(n: int, orbits, classes) -> str:
    chain = " -- ".join(f"stage {i}" for i in range(max(n - 1, 1)))
    lines = [
        f"realization tree: single branching at stage {n - 2}",
        f"    {chain}",
        "        |",
    ]
    for idx, orbit in enumerate(orbits, start=1):
        split = orbit.representative == classes[0]
        tag = " (split)" if split else ""
        lines.append(
            f"        +-- type {idx}: k = {_class_label(orbit.representative)}{tag}"
        )
    return "\n".join(lines)
