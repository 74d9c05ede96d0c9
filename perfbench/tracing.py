"""Per-layer tracing for the benchmark, installed from outside the package.

The package binds names with ``from .x import y``, so a function is looked
up in every module that imported it.  ``Tracer.install`` therefore replaces
each traced function in every ``twostage`` module whose globals hold it
(and methods on their class), and ``remove`` puts the originals back.
Nothing under ``src/`` changes.

Each call becomes a span (name, start, end, parent, input id) kept in
memory.  ``.s`` is the time inside a call, counted once when a function
is re-entered; ``.self_s`` is that time minus traced children; counts are
exact and come from the arguments and results of the call.

Spans are timed on the tracer's own clock, which stops while the tracer
closes a span and runs its counter.  Counting can be costly (``nnz`` and
``max_bits`` read every entry of a Smith form), and without this it would
be charged to every span still open, the caller's ``.s`` and ``.self_s``
among them.  The cost still shows in the wall time of a traced pass, and
so in ``trace.overhead_s``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _end_order(group) -> int:
    # |End(A)| for finite A with invariant factors d_i is the product of gcd(d_i, d_j).
    factors = group.invariant_factors
    return math.prod(math.gcd(a, b) for a in factors for b in factors)


def _count_bar_complex(count, args, result):
    count("max_rank", max(g.ngens for g in result.groups))


def _count_oracle(count, args, result):
    module, k = args[0], args[1]
    count("cochains", module.base.order ** ((module.group.order - 1) ** k))


def _count_snf(count, args, result):
    m = args[0]
    count("cells", m.rows * m.cols)
    count("nnz", sum(1 for row in m.data for x in row if x))
    count("max_bits", max(_bits(result.u.data), _bits(result.v.data)))


def _count_kernel(count, args, result):
    m = args[0]
    count("max_rows", m.rows)
    count("max_cols", m.cols)
    count("max_bits", _bits(result.data))


def _count_group_aut(count, args, result):
    count("order", len(result))


def _count_abelian_aut(count, args, result):
    count("endos", _end_order(args[0]))
    count("kept", len(result))


def _count_pi_aut(count, args, result):
    order = len(getattr(result, "elements", ()))
    count("pairs", order)
    count("table_cells", order * order)


def _count_act(count, args, result):
    count("transports", args[2].group.order, metric="pialgebra.transports")


def _count_case_a(count, args, result):
    count("classes", len(result.orbit_decomposition.classes), metric="moduli.classes")
    count("orbits", result.pi0, metric="moduli.orbits")


# Traced functions, named by module and attribute under ``twostage`` (a
# method as Class.method), with the counter that reads their arguments and
# result.
TRACED = {
    "cli.parse_input": None,
    "cli.render_moduli": None,
    "cohomology.bar_complex": _count_bar_complex,
    "cohomology.cohomology_range": None,
    "cohomology.derivations": None,
    "cohomology.oracle_cohomology": _count_oracle,
    "abelian.homology_at": None,
    "abelian.kernel_subgroup": None,
    "abelian.hom_group": None,
    "abelian.Subquotient.class_coords": None,
    "linalg.smith_normal_form": _count_snf,
    "linalg.integer_kernel": _count_kernel,
    "linalg.column_hermite": None,
    "linalg.SnfDecomposition.solve": None,
    "groups.automorphism_group": _count_group_aut,
    "pialgebra.abelian_automorphisms": _count_abelian_aut,
    "pialgebra.pi_aut": _count_pi_aut,
    "pialgebra.act_on_kinvariants": _count_act,
    "moduli.moduli_case_a": _count_case_a,
    "moduli.moduli_case_b": None,
}

# The span the benchmark itself opens around each call of ``twostage.cli.main``.
MAIN = "cli.main"

# The per-layer metrics a traced run reports, with their units.  Counts
# whose name starts with "max_" are maxima over calls; all others are sums
# over the pass.
PER_LAYER = {
    "cli.parse_input.s": "s",
    "cli.render_moduli.s": "s",
    "cli.main.self_s": "s",
    "cohomology.bar_complex.s": "s",
    "cohomology.bar_complex.calls": "count",
    "cohomology.bar_complex.max_rank": "count",
    "cohomology.cohomology_range.self_s": "s",
    "cohomology.derivations.s": "s",
    "cohomology.oracle_cohomology.s": "s",
    "cohomology.oracle_cohomology.calls": "count",
    "cohomology.oracle_cohomology.cochains": "count",
    "abelian.homology_at.self_s": "s",
    "abelian.homology_at.calls": "count",
    "abelian.kernel_subgroup.s": "s",
    "abelian.hom_group.s": "s",
    "abelian.Subquotient.class_coords.calls": "count",
    "abelian.Subquotient.class_coords.s": "s",
    "linalg.smith_normal_form.s": "s",
    "linalg.smith_normal_form.calls": "count",
    "linalg.smith_normal_form.cells": "count",
    "linalg.smith_normal_form.nnz": "count",
    "linalg.smith_normal_form.max_bits": "bits",
    "linalg.integer_kernel.self_s": "s",
    "linalg.integer_kernel.calls": "count",
    "linalg.integer_kernel.max_rows": "count",
    "linalg.integer_kernel.max_cols": "count",
    "linalg.integer_kernel.max_bits": "bits",
    "linalg.column_hermite.s": "s",
    "linalg.SnfDecomposition.solve.calls": "count",
    "linalg.SnfDecomposition.solve.s": "s",
    "groups.automorphism_group.s": "s",
    "groups.automorphism_group.order": "count",
    "pialgebra.abelian_automorphisms.s": "s",
    "pialgebra.abelian_automorphisms.endos": "count",
    "pialgebra.abelian_automorphisms.kept": "count",
    "pialgebra.pi_aut.self_s": "s",
    "pialgebra.pi_aut.pairs": "count",
    "pialgebra.pi_aut.table_cells": "count",
    "pialgebra.act_on_kinvariants.s": "s",
    "pialgebra.act_on_kinvariants.calls": "count",
    "pialgebra.transports": "count",
    "moduli.moduli_case_a.self_s": "s",
    "moduli.moduli_case_b.self_s": "s",
    "moduli.classes": "count",
    "moduli.orbits": "count",
    "trace.overhead_s": "s",
}


def is_maximum(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1].startswith("max_")


class Tracer:
    """Spans and counts for one traced pass, keyed by input id."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, input id)
        self.values = defaultdict(lambda: defaultdict(float))  # input id -> metric -> value
        self.input_id = None
        self._stack = []  # open frames: [span id, name, start, child time]
        self._active = defaultdict(int)
        self._installed = []  # (owner, attribute, original)
        self._paused = 0.0  # seconds the clock stood still for the tracer's own work

    def clock(self) -> float:
        """perf_counter() less the time spent closing spans and counting."""
        return time.perf_counter() - self._paused

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every traced function at every place the package looks it up."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "twostage"]
        for name, counter in TRACED.items():
            module_name, attr = name.split(".", 1)
            module = sys.modules[f"twostage.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._replace(owner, method, self.wrap(name, getattr(owner, method), counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def count(key, value, metric=None):
            metric = metric or f"{name}.{key}"
            bucket = tracer.values[tracer.input_id]
            if is_maximum(metric):
                bucket[metric] = max(bucket[metric], value)
            else:
                bucket[metric] += value

        def traced(*args, **kwargs):
            frame = [len(tracer.spans) + len(tracer._stack), name, tracer.clock(), 0.0]
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            tracer._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stopped = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer._close(frame, stopped - tracer._paused, parent)
            if counter is not None:
                counter(count, args, result)
            tracer._paused += time.perf_counter() - stopped
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end, parent):
        span_id, name, start, child = frame
        duration = end - start
        if parent is not None:
            parent[3] += duration
        bucket = self.values[self.input_id]
        bucket[f"{name}.calls"] += 1
        bucket[f"{name}.self_s"] += duration - child
        if self._active[name] == 0:
            bucket[f"{name}.s"] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.input_id))

    # -- results -------------------------------------------------------

    def totals(self) -> dict:
        """Every recorded metric summed (or maximised) over the inputs."""
        out = defaultdict(float)
        for bucket in self.values.values():
            for metric, value in bucket.items():
                out[metric] = max(out[metric], value) if is_maximum(metric) else out[metric] + value
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
