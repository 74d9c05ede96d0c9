"""Command line front end: parse an input document, run a command, emit a
deterministic text report.

Input documents are JSON objects describing one of the two supported
shapes (see the README for the schema).  Reports are plain text with a
stable layout: identical inputs produce byte-identical output.

Exit codes: 0 success, 2 malformed input, 3 failed validation, 4 size
bound exceeded, 5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .abelian import AbHom, FgAbGroup
from .cohomology import (
    DEFAULT_MAX_ENUMERATION,
    DEFAULT_MAX_RANK,
    cohomology_range,
    oracle_cohomology,
)
from .errors import (
    InputFormatError,
    InternalConsistencyError,
    SizeBoundError,
    TwoStageError,
    ValidationError,
    Violation,
)
from .groups import DEFAULT_MAX_AUT_ORDER, DEFAULT_MAX_GROUP_ORDER, FiniteGroup, GModule
from .linalg import IntMatrix
from .moduli import ModuliReport, moduli_case_a, moduli_case_b
from .pialgebra import (
    DEFAULT_MAX_ENDOS,
    QuadraticMap,
    SymbolicAut,
    TwoStageDim1N,
    TwoStageDimNN1,
    pi_aut,
)

__all__ = ["main", "parse_input", "render_moduli"]

EXIT_CODES = {"E_PARSE": 2, "E_VALIDATION": 3, "E_SIZE": 4, "E_INTERNAL": 5}


class Bounds:
    """Size limits, from the input document and command line flags."""

    __slots__ = ("max_group_order", "max_rank", "max_endos", "max_aut_order", "max_enumeration")

    def __init__(self, data=None, override=None):
        self.max_group_order = DEFAULT_MAX_GROUP_ORDER
        self.max_rank = DEFAULT_MAX_RANK
        self.max_endos = DEFAULT_MAX_ENDOS
        self.max_aut_order = DEFAULT_MAX_AUT_ORDER
        self.max_enumeration = DEFAULT_MAX_ENUMERATION
        if data is not None and not isinstance(data, dict):
            raise InputFormatError("bounds: expected an object")
        # The document's bounds, then the command line's over them.
        for key, value in [*sorted((data or {}).items()), *sorted((override or {}).items())]:
            if key not in self.__slots__:
                raise InputFormatError(f"bounds.{key}: unknown bound")
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InputFormatError(f"bounds.{key}: expected a positive integer")
            setattr(self, key, value)


# -- input parsing -----------------------------------------------------------


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_fields(desc: dict, path: str, allowed) -> None:
    extra = set(desc) - set(allowed)
    if extra:
        raise InputFormatError(f"{path}.{sorted(extra)[0]}: unexpected field")


def _expect_int(value, path: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputFormatError(f"{path}: expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise InputFormatError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _expect_int_list(value, path: str, minimum=None) -> list[int]:
    if not isinstance(value, list):
        raise InputFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return [_expect_int(x, f"{path}[{i}]", minimum) for i, x in enumerate(value)]


def _expect_matrix(value, path: str, rows: int, cols: int) -> IntMatrix:
    if not isinstance(value, list):
        raise InputFormatError(f"{path}: expected a list of rows")
    if len(value) != rows:
        raise InputFormatError(f"{path}: expected {rows} rows, got {len(value)}")
    data = []
    for i, row in enumerate(value):
        r = _expect_int_list(row, f"{path}[{i}]")
        if len(r) != cols:
            raise InputFormatError(f"{path}[{i}]: expected {cols} entries, got {len(r)}")
        data.append(r)
    return IntMatrix.from_rows(data, cols=cols)


def _build_finite_group(desc, path: str, bounds: Bounds) -> FiniteGroup:
    desc = _expect_object(desc, path)
    keys = [k for k in ("cyclic_factors", "permutations", "table") if k in desc]
    if len(keys) != 1:
        raise InputFormatError(
            f"{path}: give exactly one of cyclic_factors, permutations, table"
        )
    _expect_fields(desc, path, keys)
    kind = keys[0]
    if kind == "cyclic_factors":
        factors = _expect_int_list(desc[kind], f"{path}.cyclic_factors", minimum=1)
        group = FiniteGroup.from_cyclic_factors(factors)
    elif kind == "permutations":
        perms = desc[kind]
        if not isinstance(perms, list):
            raise InputFormatError(f"{path}.permutations: expected a list")
        parsed = [
            tuple(_expect_int_list(p, f"{path}.permutations[{i}]", minimum=0))
            for i, p in enumerate(perms)
        ]
        group = FiniteGroup.from_permutations(parsed, max_order=bounds.max_group_order)
    else:
        table = desc[kind]
        if not isinstance(table, list):
            raise InputFormatError(f"{path}.table: expected a list of rows")
        rows = [_expect_int_list(r, f"{path}.table[{i}]") for i, r in enumerate(table)]
        group = FiniteGroup(rows)
    if group.order > bounds.max_group_order:
        raise SizeBoundError(
            "group too large", requested=group.order, bound=bounds.max_group_order
        )
    return group


def _build_abelian(desc, path: str) -> FgAbGroup:
    desc = _expect_object(desc, path)
    if "cyclic_factors" in desc:
        _expect_fields(desc, path, ["cyclic_factors"])
        factors = _expect_int_list(desc["cyclic_factors"], f"{path}.cyclic_factors", minimum=0)
        return FgAbGroup.from_cyclic_factors(factors)
    if "generators" in desc:
        _expect_fields(desc, path, ["generators", "relations"])
        ngens = _expect_int(desc["generators"], f"{path}.generators", minimum=0)
        relations = desc.get("relations", [])
        if not isinstance(relations, list):
            raise InputFormatError(f"{path}.relations: expected a list of relation vectors")
        cols = []
        for i, rel in enumerate(relations):
            col = _expect_int_list(rel, f"{path}.relations[{i}]")
            if len(col) != ngens:
                raise InputFormatError(
                    f"{path}.relations[{i}]: expected {ngens} entries, got {len(col)}"
                )
            cols.append(col)
        return FgAbGroup(IntMatrix.from_columns(cols, rows=ngens))
    raise InputFormatError(f"{path}: give cyclic_factors, or generators with relations")


def _build_module(desc, path: str, group: FiniteGroup) -> GModule:
    desc = _expect_object(desc, path)
    if "coefficients" not in desc:
        raise InputFormatError(f"{path}.coefficients: missing")
    _expect_fields(desc, path, ["coefficients", "action"])
    base = _build_abelian(desc["coefficients"], f"{path}.coefficients")
    action_desc = desc.get("action", "trivial")
    if action_desc == "trivial":
        return GModule.trivial(group, base)
    if not isinstance(action_desc, list):
        raise InputFormatError(f'{path}.action: expected "trivial" or a list of matrices')
    if len(action_desc) != group.order:
        raise InputFormatError(
            f"{path}.action: expected one matrix per group element "
            f"({group.order}), got {len(action_desc)}"
        )
    mats = [
        _expect_matrix(m, f"{path}.action[{g}]", base.ngens, base.ngens)
        for g, m in enumerate(action_desc)
    ]
    return GModule(group, base, mats)


def _build_q(desc, path: str, n: int, an: FgAbGroup, an1: FgAbGroup):
    if desc is None or desc == "zero":
        return None
    desc = _expect_object(desc, path)
    if "matrix" in desc:
        _expect_fields(desc, path, ["matrix"])
        if n == 2:
            raise InputFormatError(
                f"{path}: n = 2 needs an element_table, not a matrix"
            )
        matrix = _expect_matrix(desc["matrix"], f"{path}.matrix", an1.ngens, an.ngens)
        return AbHom(an.modulo(2), an1, matrix)
    if "element_table" in desc:
        _expect_fields(desc, path, ["element_table"])
        if n != 2:
            raise InputFormatError(f"{path}: element tables are for n = 2 only; use a matrix")
        table = desc["element_table"]
        if not isinstance(table, list):
            raise InputFormatError(f"{path}.element_table: expected a list of value vectors")
        values = [
            _expect_int_list(v, f"{path}.element_table[{i}]") for i, v in enumerate(table)
        ]
        return QuadraticMap(an, an1, values)
    raise InputFormatError(f'{path}: give "zero", a matrix, or an element_table')


def parse_input(text: str, bounds_override: dict | None = None):
    """Parse an input document into a validated two-stage algebra.

    Returns (algebra, bounds).  Raises InputFormatError for malformed
    documents and lets validation errors from the constructors through.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(
            f"invalid input text at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    data = _expect_object(data, "input")
    case = data.get("case")
    if case not in ("A", "B"):
        raise InputFormatError('case: expected "A" or "B"')
    n = _expect_int(data.get("n"), "n", minimum=2)
    bounds = Bounds(data.get("bounds"), bounds_override)
    if case == "A":
        allowed = {"case", "n", "group", "module", "bounds"}
        extra = set(data) - allowed
        if extra:
            raise InputFormatError(f"{sorted(extra)[0]}: unexpected field for case A")
        if "group" not in data:
            raise InputFormatError("group: missing")
        if "module" not in data:
            raise InputFormatError("module: missing")
        group = _build_finite_group(data["group"], "group", bounds)
        module = _build_module(data["module"], "module", group)
        return TwoStageDim1N(n, module), bounds
    allowed = {"case", "n", "an", "an1", "q", "bounds"}
    extra = set(data) - allowed
    if extra:
        raise InputFormatError(f"{sorted(extra)[0]}: unexpected field for case B")
    if "an" not in data:
        raise InputFormatError("an: missing")
    if "an1" not in data:
        raise InputFormatError("an1: missing")
    an = _build_abelian(data["an"], "an")
    an1 = _build_abelian(data["an1"], "an1")
    q = _build_q(data.get("q"), "q", n, an, an1)
    return TwoStageDimNN1(n, an, an1, q), bounds


# -- rendering ---------------------------------------------------------------


def _group_cell(group: FgAbGroup) -> str:
    return (
        f"{group.symbol()} (free rank {group.free_rank}, "
        f"invariant factors {list(group.invariant_factors)})"
    )


def _order_cell(order) -> str:
    return "symbolic (not finite)" if order is None else str(order)


def render_moduli(report: ModuliReport) -> str:
    lines = [
        "two-stage moduli report",
        f"case: {report.case}",
        f"n: {report.n}",
        f"input: {report.input_description}",
        "",
        f"pi_0 = {report.pi0}   [{report.pi0_provenance}]",
        f"Aut(A): {report.aut_description}",
        f"Aut(A) order: {_order_cell(report.aut_order)}",
        "",
        "homotopy groups at every basepoint:",
    ]
    for row in report.pi_rows:
        lines.append(f"  pi_{row.index} = {_group_cell(row.group)}   [{row.provenance}]")
    lines.append("")
    lines.append("basepoints:")
    for i, block in enumerate(report.basepoints, start=1):
        lines.append(f"  [{i}] {block.label}")
        if block.orbit is not None:
            lines.append(
                f"      orbit size {block.orbit.size}, "
                f"stabilizer order {block.orbit.stabilizer_order}"
            )
        pi1 = block.pi1
        lines.append(f"      pi_1: order {_order_cell(pi1.order)}")
        lines.append(f"        kernel   = {_group_cell(pi1.kernel)}   [{pi1.kernel_provenance}]")
        lines.append(
            f"        quotient = {pi1.quotient_description} "
            f"(order {_order_cell(pi1.quotient_order)})"
        )
        lines.append(f"        extension class: {pi1.extension_class}")
    if report.cohomology_table:
        lines.append("")
        lines.append("cohomology of A_1 with coefficients in A_n:")
        for degree, symbol in report.cohomology_table:
            lines.append(f"  H^{degree} = {symbol}")
    if report.tree:
        lines.append("")
        lines.append(report.tree)
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    lines.append("")
    return "\n".join(lines)


def _render_cohomology(module: GModule, lo: int, hi: int, bounds: Bounds, use_oracle: bool) -> str:
    ladder = cohomology_range(module, hi, max_rank=bounds.max_rank)
    lines = [
        "group cohomology",
        f"group order: {module.group.order}",
        f"coefficients: {module.base.symbol()}"
        + (" (trivial action)" if module.is_trivial_action() else " (nontrivial action)"),
        f"degrees: {lo}..{hi}",
        "",
    ]
    for k in range(lo, hi + 1):
        g = ladder[k].group
        lines.append(f"H^{k} = {_group_cell(g)}; order {_order_cell(g.order)}")
    if use_oracle:
        lines.append("")
        lines.append("oracle cross-check (exhaustive enumeration):")
        for k, count, factors in _oracle_check(ladder[lo:], bounds.max_enumeration):
            if factors is None:
                lines.append(
                    f"  H^{k}: skipped (would enumerate {count} cochains, bound {bounds.max_enumeration})"
                )
            else:
                lines.append(f"  H^{k}: ok (enumerated {count} cochains)")
    lines.append("")
    return "\n".join(lines)


# -- oracle cross-check ------------------------------------------------------


class OracleDisagreement(InternalConsistencyError):
    """The enumeration oracle and the matrix route differ in one degree."""

    def __init__(self, degree: int, enumerated, matrix_route):
        self.degree = degree
        self.detail = f"enumeration {list(enumerated)}, matrix route {list(matrix_route)}"
        super().__init__(f"oracle disagrees at degree {degree}: {self.detail}")


def _oracle_check(ladder, bound: int):
    """Recompute each cohomology group of ``ladder`` by enumeration.

    Yields (k, cochains, factors) per degree: the oracle's invariant
    factors and the size of C^k, or None and the enumeration size the
    oracle refused as over ``bound``.  Raises OracleDisagreement at the
    first degree where the two routes differ.
    """
    for h in ladder:
        try:
            got = oracle_cohomology(h.module, h.degree, max_enumeration=bound)
        except SizeBoundError as e:
            yield h.degree, e.requested, None
            continue
        if got != h.group.invariant_factors:
            raise OracleDisagreement(h.degree, got, h.group.invariant_factors)
        yield h.degree, h.differential.source.order, got


# -- commands ----------------------------------------------------------------


def _cmd_moduli(algebra, bounds: Bounds, args) -> tuple[int, str]:
    if isinstance(algebra, TwoStageDim1N):
        if args.oracle:
            ladder = cohomology_range(algebra.an, algebra.n + 1, max_rank=bounds.max_rank)
            list(_oracle_check(ladder, bounds.max_enumeration))  # raises on a disagreement
        report = moduli_case_a(
            algebra,
            max_rank=bounds.max_rank,
            max_group_aut=bounds.max_aut_order,
            max_endos=bounds.max_endos,
            max_enumeration=bounds.max_enumeration,
        )
    else:
        report = moduli_case_b(algebra, max_endos=bounds.max_endos)
    return 0, render_moduli(report)


def _cmd_cohomology(algebra, bounds: Bounds, args) -> tuple[int, str]:
    if not isinstance(algebra, TwoStageDim1N):
        raise ValidationError(
            Violation("case", "cohomology needs case A input (a group with a module)")
        )
    lo, hi = args.degrees if args.degrees else (0, algebra.n + 1)
    return 0, _render_cohomology(algebra.an, lo, hi, bounds, args.oracle)


def _cmd_check(text: str, args) -> tuple[int, str]:
    lines = []
    try:
        algebra, bounds = parse_input(text, _flag_bounds(args))
    except ValidationError as e:
        lines.append("validation: FAILED")
        for v in e.violations:
            lines.append(f"  - {v!r}")
        lines.append("")
        return EXIT_CODES["E_VALIDATION"], "\n".join(lines)
    lines.append("validation: ok")
    if isinstance(algebra, TwoStageDim1N):
        lines.append(f"  case A; n = {algebra.n}; group order {algebra.a1.order}; "
                     f"coefficients {algebra.an.base.symbol()}")
        lines.append("  group axioms: ok")
        lines.append("  module action: ok")
        lines.append("")
        lines.append("oracle equivalence (bounded):")
        ladder = cohomology_range(algebra.an, min(2, algebra.n + 1), max_rank=bounds.max_rank)
        checked = 0
        try:
            for k, count, factors in _oracle_check(ladder, bounds.max_enumeration):
                if factors is None:
                    lines.append(f"  H^{k}: skipped (enumeration {count} over bound)")
                    continue
                lines.append(f"  H^{k}: ok ({ladder[k].group.symbol()})")
                checked += 1
        except OracleDisagreement as e:
            lines.append(f"  H^{e.degree}: FAILED ({e.detail})")
            lines.append("")
            return EXIT_CODES["E_INTERNAL"], "\n".join(lines)
        lines.append("")
        lines.append(f"result: all checks passed ({checked} degrees cross-checked)")
    else:
        lines.append(f"  case B; n = {algebra.n}; A_n = {algebra.an.symbol()}; "
                     f"A_n+1 = {algebra.an1.symbol()}")
        lines.append("  q constraints: ok")
        aut = pi_aut(algebra, max_endos=bounds.max_endos)
        if isinstance(aut, SymbolicAut):
            lines.append(f"  automorphism pairs: symbolic ({aut.description})")
        else:
            lines.append(f"  automorphism pairs: group of order {aut.order}")
        lines.append("")
        lines.append("result: all checks passed")
    lines.append("")
    return 0, "\n".join(lines)


def _flag_bounds(args) -> dict:
    override = {}
    if args.max_group_order is not None:
        override["max_group_order"] = args.max_group_order
    return override


def _parse_degrees(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise InputFormatError('--degrees: expected the form "a..b"')
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputFormatError('--degrees: expected integers in "a..b"') from None
    if lo < 0 or hi < lo:
        raise InputFormatError(f"--degrees: need 0 <= a <= b, got {lo}..{hi}")
    return lo, hi


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of ``main``, not at import, and then reused.
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Moduli of two-stage homotopy types: reports, cohomology, input checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("moduli", "emit the full moduli report for an input document"),
        ("cohomology", "emit group cohomology for a case A input"),
        ("check", "validate an input and cross-check against the enumeration oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the input document (JSON)")
        p.add_argument("--degrees", default=None, help='degree range "a..b" (cohomology)')
        p.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
        p.add_argument("--max-group-order", type=int, default=None, dest="max_group_order")
        p.add_argument("--output", default=None, help="write the report to this path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.degrees is not None:
            args.degrees = _parse_degrees(args.degrees)
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputFormatError(f"cannot read input: {e}") from None
        if args.command == "check":
            status, output = _cmd_check(text, args)
        else:
            algebra, bounds = parse_input(text, _flag_bounds(args))
            if args.command == "moduli":
                status, output = _cmd_moduli(algebra, bounds, args)
            else:
                status, output = _cmd_cohomology(algebra, bounds, args)
    except TwoStageError as e:
        _print_error(e)
        return EXIT_CODES.get(e.code, 5)
    except Exception as e:  # anything unplanned is an internal failure
        print(f"error[E_INTERNAL]: {type(e).__name__}: {e}", file=sys.stderr)
        return 5

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return status


def _print_error(e: TwoStageError):
    if isinstance(e, ValidationError):
        print(f"error[{e.code}]: {len(e.violations)} invariant(s) violated", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v!r}", file=sys.stderr)
    else:
        print(f"error[{e.code}]: {e}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
