"""Per-layer tracing of ncdef from outside the package.

:class:`Tracer` replaces public ncdef functions with wrappers that record one
span per call (name, start, end, parent span) and puts the originals back on
:meth:`Tracer.restore`.  A function is replaced in *every* loaded ncdef module
that holds it: ``zoo`` and ``cli`` bind ``derive_check``, ``quotient_report``
and others with ``from .ncgb import ...``, and ``nc_complete`` reaches
``nc_reduce`` and ``find_division`` through the ``ncgb`` module globals, so
patching the defining module alone would miss most calls.

Two functions are called millions of times per pass (``find_division`` and
``word_mul``); for them the wrapper only counts calls (and division hits), so
their time stays in the self time of the span that called them.

Spans are kept in flat typed arrays and reduced to per-layer metrics by
:meth:`Tracer.layer_metrics` after the traced passes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Optional

# (module, attribute, span name, extra) for each spanned public function.
# ``extra(args, kwargs, result, seconds)`` returns numbers summed per span name.


def _nc_complete_extra(args, kwargs, gb, seconds) -> dict[str, float]:
    prov = kwargs.get("provenance", args[2] if len(args) > 2 else True)
    return {
        "prov_s": seconds if prov else 0.0,
        "rules": len(gb.rules),
        "retired": sum(1 for r in gb.rules if not r.active),
    }


SPANNED: list[tuple[str, str, str, Optional[Callable[..., dict]]]] = [
    ("ncdef.ncgb", "nc_complete", "ncgb.nc_complete", _nc_complete_extra),
    ("ncdef.ncgb", "nc_reduce", "ncgb.nc_reduce",
     lambda a, k, r, s: {"zero": 1 if r.poly.is_zero() else 0}),
    ("ncdef.ncgb", "derive_check", "ncgb.derive_check",
     lambda a, k, r, s: {"claims": len(r)}),
    ("ncdef.ncgb", "expand_certificate", "ncgb.expand_certificate",
     lambda a, k, r, s: {"terms": len(a[1])}),
    ("ncdef.ncgb", "quotient_report", "ncgb.quotient_report", None),
    ("ncdef.ncgb", "abelianization_report", "ncgb.abelianization_report", None),
    ("ncdef.ncgb", "center_basis", "ncgb.center_basis", None),
    ("ncdef.zoo", "verify_higher_length", "zoo.verify_higher_length", None),
    ("ncdef.commpoly", "groebner", "commpoly.groebner",
     lambda a, k, r, s: {"basis_size": len(r.basis)}),
    ("ncdef.commpoly", "normal_form", "commpoly.normal_form", None),
    ("ncdef.commpoly", "quotient_basis", "commpoly.quotient_basis", None),
    ("ncdef.commpoly", "local_report", "commpoly.local_report", None),
    ("ncdef.linalg", "nullspace", "linalg.nullspace", None),
    ("ncdef.exprparse", "presentation_parse", "exprparse.presentation_parse", None),
    ("ncdef.exprparse", "render", "exprparse.render", None),
    ("ncdef.cli", "run_command", "cli.run_command", None),
]

# every public matfac function reports under the one layer name "matfac"
MATFAC_FUNCS = (
    "mf_verify",
    "cofactor",
    "in_image",
    "matrix_identity_suite",
    "generator_identity_suite",
    "polynomial_identity_suite",
)

# (module, class, method, span name)
SPANNED_METHODS = [("ncdef.freealg", "NcPoly", "__mul__", "freealg.NcPoly.mul")]

# (module, attribute, counter name, whether a non-None result is a "hit")
COUNTED = [
    ("ncdef.ncgb", "find_division", "ncgb.find_division", True),
    ("ncdef.freealg", "word_mul", "freealg.word_mul", False),
]


class Tracer:
    """Span recorder around ncdef's public functions; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")  # -1 for a root span
        self.extras: dict[str, Counter] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per workload operation)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanning(self, fn: Callable, name: str, extra: Optional[Callable]) -> Callable:
        nid = self._id(name)
        extras = self.extras.setdefault(name, Counter())
        open_, close = self._open, self._close
        start, end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if extra is not None:
                seconds = (end[idx] - start[idx]) * 1e-9
                extras.update(extra(args, kwargs, result, seconds))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn: Callable, name: str, hits: bool) -> Callable:
        counts = self.counts
        hit_key = name + ".hits"
        if hits:
            def wrapper(*args):
                counts[name] += 1
                result = fn(*args)
                if result is not None:
                    counts[hit_key] += 1
                return result
        else:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Replace each traced function in every loaded ncdef module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {n: m for n, m in sys.modules.items()
                if n == "ncdef" or n.startswith("ncdef.")}
        plan: list[tuple[Any, Callable]] = []
        for mod, attr, name, extra in SPANNED:
            fn = getattr(mods[mod], attr)
            plan.append((fn, self._spanning(fn, name, extra)))
        for attr in MATFAC_FUNCS:
            fn = getattr(mods["ncdef.matfac"], attr)
            plan.append((fn, self._spanning(fn, "matfac", None)))
        for mod, attr, name, hits in COUNTED:
            fn = getattr(mods[mod], attr)
            plan.append((fn, self._counting(fn, name, hits)))
        for orig, wrapper in plan:
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)
        for mod, cls_name, meth, name in SPANNED_METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._spanning(orig, name, None))

    def restore(self) -> None:
        """Put every replaced function back."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- reduction ----------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        child spans.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] * 1e-9
            row["self_s"] += (dur[i] - child[i]) * 1e-9
        return out

    def count_beneath(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        if name not in self._name_id or ancestor not in self._name_id:
            return 0
        nid, aid = self._name_id[name], self._name_id[ancestor]

        def beneath(i: int) -> bool:
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            return p >= 0

        return sum(1 for i in range(len(self.span_start))
                   if self.span_name[i] == nid and beneath(i))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The per-layer metrics, as totals per traced pass."""
        tot = self.span_totals()
        ex = self.extras

        def span(name: str, key: str) -> float:
            return tot.get(name, {}).get(key, 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        nc_calls = span("ncgb.nc_complete", "calls")
        nc = ex.get("ncgb.nc_complete", Counter())
        red_calls = span("ncgb.nc_reduce", "calls")
        fd_calls = self.counts["ncgb.find_division"]
        per = 1.0 / passes
        return {
            "ncgb.nc_complete.calls": nc_calls * per,
            "ncgb.nc_complete.self_s": span("ncgb.nc_complete", "self_s") * per,
            "ncgb.nc_complete.prov_s": nc["prov_s"] * per,
            "ncgb.nc_complete.rules": nc["rules"] * per,
            "ncgb.nc_complete.retired_ratio": ratio(nc["retired"], nc["rules"]),
            "ncgb.nc_reduce.calls": red_calls * per,
            "ncgb.nc_reduce.self_s": span("ncgb.nc_reduce", "self_s") * per,
            "ncgb.nc_reduce.zero_ratio": ratio(
                ex.get("ncgb.nc_reduce", Counter())["zero"], red_calls),
            "ncgb.find_division.calls": fd_calls * per,
            "ncgb.find_division.hit_ratio": ratio(
                self.counts["ncgb.find_division.hits"], fd_calls),
            "zoo.verify_higher_length.completions": self.count_beneath(
                "ncgb.nc_complete", "zoo.verify_higher_length") * per,
            "ncgb.derive_check.claims":
                ex.get("ncgb.derive_check", Counter())["claims"] * per,
            "ncgb.expand_certificate.self_s":
                span("ncgb.expand_certificate", "self_s") * per,
            "ncgb.expand_certificate.terms":
                ex.get("ncgb.expand_certificate", Counter())["terms"] * per,
            "ncgb.quotient_report.cutoffs": self.count_beneath(
                "ncgb.nc_complete", "ncgb.quotient_report") * per,
            "ncgb.quotient_report.self_s": span("ncgb.quotient_report", "self_s") * per,
            "ncgb.abelianization_report.self_s":
                span("ncgb.abelianization_report", "self_s") * per,
            "ncgb.center_basis.self_s": span("ncgb.center_basis", "self_s") * per,
            "commpoly.groebner.calls": span("commpoly.groebner", "calls") * per,
            "commpoly.groebner.self_s": span("commpoly.groebner", "self_s") * per,
            "commpoly.groebner.basis_size":
                ex.get("commpoly.groebner", Counter())["basis_size"] * per,
            "commpoly.normal_form.calls": span("commpoly.normal_form", "calls") * per,
            "commpoly.normal_form.self_s": span("commpoly.normal_form", "self_s") * per,
            "commpoly.local_report.cutoffs": self.count_beneath(
                "commpoly.groebner", "commpoly.local_report") * per,
            "commpoly.quotient_basis.self_s":
                span("commpoly.quotient_basis", "self_s") * per,
            "freealg.NcPoly.mul.calls": span("freealg.NcPoly.mul", "calls") * per,
            "freealg.NcPoly.mul.self_s": span("freealg.NcPoly.mul", "self_s") * per,
            "freealg.word_mul.calls": self.counts["freealg.word_mul"] * per,
            "linalg.nullspace.self_s": span("linalg.nullspace", "self_s") * per,
            "exprparse.presentation_parse.self_s":
                span("exprparse.presentation_parse", "self_s") * per,
            "exprparse.render.self_s": span("exprparse.render", "self_s") * per,
            "matfac.self_s": span("matfac", "self_s") * per,
            "cli.run_command.self_s": span("cli.run_command", "self_s") * per,
        }
