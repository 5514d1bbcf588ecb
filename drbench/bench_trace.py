"""Per-layer spans recorded from outside the package.

The tracer replaces public entry points of ``drcalc`` with timing
wrappers for the duration of a traced pass and puts the originals back
afterwards.  A function is wrapped at every module that binds it by
name (``weight_truncate`` lives in ``homology`` and is also bound in
``derham``), and a method on its class.  Only public names are wrapped,
so a rewrite of a layer's internals leaves the tracer working; a
listed name that no longer exists is reported as absent.

A span's self time is its duration minus the durations of the spans it
directly contains.  Time spent computing a span's counters is charged
to ``trace.count_s``, not to any layer, so the self times of all spans
plus ``trace.count_s`` add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _nnz(entries):
    return sum(1 for v in entries.values() if v)


def _rank_counts(args, kwargs, result):
    entries, nrows, ncols = args[:3]
    return {
        "cells": nrows * ncols,
        "nnz": _nnz(entries),
        "rank_sum": result,
        "min_dim_sum": min(nrows, ncols),
    }


def _solve_counts(args, kwargs, result):
    rows = args[0]
    return {
        "cells": len(rows) * (len(rows[0]) if rows else 0),
        "nnz": sum(1 for row in rows for v in row if v),
    }


def _complex_counts(args, kwargs, result):
    return {
        "basis": sum(result.dims.values()),
        "nnz": sum(len(m) for m in result.diffs.values()),
    }


def _morphism_counts(args, kwargs, result):
    return {"nnz": sum(len(m) for m in result.values())}


def _system_counts(args, kwargs, result):
    return {"unknowns": result.unknown_count, "rows": len(result.rows)}


def _tau_counts(args, kwargs, result):
    return {"zero": int(result.sign == "zero")}


# (span name, module, attribute path, counter function or None)
TARGETS = (
    ("cli.main", "drcalc.cli", "main", None),
    ("elim.rank", "drcalc.elim", "rank_sparse", _rank_counts),
    ("elim.solve", "drcalc.elim", "solve_rational", _solve_counts),
    ("homology.truncate", "drcalc.homology", "weight_truncate", _complex_counts),
    ("homology.d2check", "drcalc.homology", "MatrixComplex.check_composition", None),
    ("homology.cohomology", "drcalc.homology", "MatrixComplex.cohomology", None),
    ("homology.stability", "drcalc.homology", "stability_report", None),
    ("homology.morphism", "drcalc.homology", "morphism_matrices", _morphism_counts),
    ("homology.chainmap", "drcalc.homology", "chain_map_check", None),
    ("derham.conerve", "drcalc.derham", "conerve_totalization", _complex_counts),
    ("derham.cartier", "drcalc.derham", "cartier_check", None),
    ("derham.graded", "drcalc.derham", "hodge_graded", _complex_counts),
    ("derham.wedge", "drcalc.derham", "wedge_power", _complex_counts),
    ("dg.check", "drcalc.dg", "presentation_check", None),
    ("reiffen.system", "drcalc.reiffen", "divergence_system", _system_counts),
    ("reiffen.feasible", "drcalc.reiffen", "divergence_feasible", None),
    ("reiffen.stalk", "drcalc.reiffen", "classical_stalk_cohomology", None),
    ("groebner.gb", "drcalc.groebner", "buchberger", None),
    ("groebner.nf", "drcalc.groebner", "normal_form", None),
    ("witness.tau", "drcalc.witness", "tau_log_eval", _tau_counts),
    ("witness.bound", "drcalc.witness", "log_integral_lower_bound", None),
)


class Stats:
    """Aggregates for one span name."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    """Installs wrappers, keeps a span stack, aggregates per span name."""

    def __init__(self):
        self.stats = {name: Stats() for name, *_ in TARGETS}
        self.count_s = 0.0
        self.absent = []
        self._stack = []  # [name, child seconds]
        self._undo = []

    def install(self):
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "drcalc" or name.startswith("drcalc.")
        }
        self.absent = []
        for span, modname, path, counter in TARGETS:
            owner = mods.get(modname)
            head, _, attr = path.rpartition(".")
            if owner is not None and head:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, counter)
            if head:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, span, fn, counter):
        stats = self.stats[span]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)  # recursion stays one span
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                t0 = perf_counter()
                for key, value in counter(args, kwargs, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
                spent = perf_counter() - t0
                self.count_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def spans_total(self) -> float:
        """Sum of every span's self time plus counting time."""
        return sum(s.self_s for s in self.stats.values()) + self.count_s
