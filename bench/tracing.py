"""Span tracer for the traced benchmark run.

The package imports layer functions with `from .x import y`, so each module
holds its own binding and patching `radrank.ratlin` alone would miss most
calls.  `Tracer.install` therefore rebinds every module-level name in the
`radrank` package that refers to a wrapped function, and `uninstall` puts
the originals back.  Wrappers are only ever installed for the traced pass.

Spans stay in memory as [job, parent, function, start_ns, end_ns, error,
extra] lists and are written out when the run ends.  The benchmark runs one
job at a time on one thread with no queue, so no span ever waits: per-layer
wait time is zero by construction and is not reported.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Sequence

PACKAGE = "radrank"

# (layer module, function) pairs timed from outside.  `claborn` is absent: the
# benchmark makes its own inputs and never calls it.
WRAPPED = (
    ("cli", "main"),
    ("model", "loads_model"),
    ("model", "validate"),
    ("model", "v_membership"),
    ("model", "enumerate_v"),
    ("rank", "recover_rank"),
    ("semilattice", "find_iso"),
    ("semilattice", "mprop"),
    ("cones", "max_weak_reay"),
    ("cones", "longest_closed_chain"),
    ("cones", "positively_spans_its_span"),
    ("ratlin", "strict_zero_combination"),
    ("ratlin", "cone_member"),
    ("ratlin", "linear_rank"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in WRAPPED)
_ID = {name: i for i, name in enumerate(NAMES)}
SZC = _ID["ratlin.strict_zero_combination"]
CONE = _ID["ratlin.cone_member"]
V_MEMBER = _ID["model.v_membership"]
ENUMERATE = _ID["model.enumerate_v"]
CHAIN = _ID["cones.longest_closed_chain"]

# Span fields.
JOB, PARENT, FN, START, END, ERROR, EXTRA = range(7)


def package_modules() -> dict:
    """The imported modules of the package, by name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def _lp_shape(vectors) -> tuple[int, int]:
    """(rows, columns) of the constraint matrix: one column per generator."""
    return (len(vectors[0]) if vectors else 0), len(vectors)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [self.job, stack[-1] if stack else -1, fn_id, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            if fn_id == CHAIN:
                labels, is_closed = args
                rec[EXTRA] = 0

                def counted(subset):
                    rec[EXTRA] += 1
                    return is_closed(subset)

                args = (labels, counted)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if fn_id == SZC:
                rec[EXTRA] = (*_lp_shape(args[0]), result[0])
            elif fn_id == CONE:
                rec[EXTRA] = (len(args[0]), len(args[1]), result[0])
            elif fn_id == ENUMERATE:
                rec[EXTRA] = len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = list(package_modules().values())
        for fn_id, (layer, fn_name) in enumerate(WRAPPED):
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            wrapper = self._wrap(fn_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,job,parent,function,start_ns,end_ns,error\n")
            for i, s in enumerate(self.spans):
                out.write(
                    f"{i},{s[JOB]},{s[PARENT]},{NAMES[s[FN]]},"
                    f"{s[START]},{s[END]},{s[ERROR]}\n"
                )


# --- aggregation --------------------------------------------------------------

def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    What each should move, written down before measuring:
    - ratlin.strict_zero_combination, ratlin.lp.*, model.v_membership and
      model.enumerate_v: job_ms.p50 and jobs_per_s on cli-cold, nothing on
      reay;
    - ratlin.cone_member, cones.*: job_ms.p50 and jobs_per_s on reay; small on
      cli-cold (mprop's validate);
    - semilattice.find_iso (without enumerate_v, a child span) and
      semilattice.mprop: job_ms.tail on cli-cold;
    - rank.recover_rank, model.loads_model, model.validate,
      ratlin.linear_rank, cli.main, cli.report_bytes: a few ms a job on
      cli-cold and reay, the most a parse, report or poset-bookkeeping change
      can win there.
    """
    specs = []
    for name in NAMES:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_ms", "ms", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
    specs += [
        ("ratlin.lp.tableau_cells", "cells_computed", "lower"),
        ("ratlin.lp.feasible_frac", "fraction", "higher"),
        ("model.v_membership.hit_frac", "fraction", "higher"),
        ("model.enumerate_v.subsets_tested", "count", "lower"),
        ("model.enumerate_v.member_frac", "fraction", "higher"),
        ("cones.longest_closed_chain.predicate_calls", "count", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
    ]
    return specs


def layer_metrics(spans: Sequence[Sequence], jobs: int) -> dict[str, float]:
    """Per-layer figures over the spans of jobs numbered >= 0.

    Counts are totals for the run; self_ms is the mean per job.  The
    tableau size is computed from argument shapes as rows * (columns + rows),
    the phase-1 tableau with its artificial block.
    """
    selfs = self_times(spans)
    calls = [0] * len(NAMES)
    errors = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    cells = lp_calls = feasible = 0
    reached_lp: set[int] = set()  # v_membership spans that issued an LP
    enumerating: set[int] = set()  # enumerate_v spans that tested subsets
    subsets = predicates = 0
    for i, s in enumerate(spans):
        if s[JOB] < 0:
            continue
        fn = s[FN]
        calls[fn] += 1
        errors[fn] += s[ERROR]
        self_ns[fn] += selfs[i]
        parent = s[PARENT]
        if fn in (SZC, CONE) and s[EXTRA] is not None:
            rows, cols, ok = s[EXTRA]
            cells += rows * (cols + rows)
            lp_calls += 1
            feasible += bool(ok)
            if fn == SZC and parent >= 0 and spans[parent][FN] == V_MEMBER:
                reached_lp.add(parent)
        elif fn == V_MEMBER and parent >= 0 and spans[parent][FN] == ENUMERATE:
            subsets += 1
            enumerating.add(parent)
        elif fn == CHAIN and s[EXTRA] is not None:
            predicates += s[EXTRA]
    members = sum(spans[i][EXTRA] or 0 for i in enumerating)
    out: dict[str, float] = {}
    for fn, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[fn]
        out[f"{name}.self_ms"] = _frac(self_ns[fn] / 1e6, jobs)
        out[f"{name}.errors"] = errors[fn]
    v_calls = calls[V_MEMBER]
    out["ratlin.lp.tableau_cells"] = cells
    out["ratlin.lp.feasible_frac"] = _frac(feasible, lp_calls)
    out["model.v_membership.hit_frac"] = _frac(v_calls - len(reached_lp), v_calls)
    out["model.enumerate_v.subsets_tested"] = subsets
    out["model.enumerate_v.member_frac"] = _frac(members, subsets)
    out["cones.longest_closed_chain.predicate_calls"] = predicates
    return out
