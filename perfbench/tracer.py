"""Per-layer tracing from the benchmark's side.

A layer is a module of ``eulertwist``.  ``Tracer.install`` replaces listed
public functions (and the two private moment solvers) with wrappers that
count calls and time them; the wrappers are installed in every module
namespace and class that holds the original, so calls through
``from .x import f`` bindings are seen as well.  Self time is inclusive
time minus the time spent in wrapped children.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (layer metric prefix, module, attribute path)
SPANS = (
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__"),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse"),
    ("cyclotomic.embed", "cyclotomic", "embed_complex"),
    ("cyclotomic.field_build", "cyclotomic", "CyclotomicField.__init__"),
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("series.inverse", "series", "TruncatedSeries.inverse"),
    ("eulerian.periodic_power_sum", "eulerian", "periodic_power_sum"),
    ("eulerian.power_sum_rational", "eulerian", "power_sum_rational"),
    ("twisted.gf", "twisted", "twisted_gf"),
    ("twisted.series_value", "twisted", "twisted_series_value"),
    ("fermionic.moment_solve", "fermionic", "_moment_sequence"),
    ("fermionic.moment_solve", "fermionic", "_char_moment_sequence"),
    ("fermionic.padic_truncation", "fermionic", "padic_truncation"),
    ("rationals.padic_valuation", "rationals", "padic_valuation"),
    ("lfunction.l_series_sum", "lfunction", "l_series_sum"),
)

RELATION_TOKENS = (
    "eq15", "thm2", "thm3", "thm6", "distribution", "thm1-residual", "thm5-residual",
    "cor2-residual", "cor3", "eq22", "eq28-residual",
)


def _calls_self(prefix: str) -> list:
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]


# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
METRICS = (
    _calls_self("cyclotomic.mul") + _calls_self("cyclotomic.inverse") + _calls_self("cyclotomic.embed")
    + [("cyclotomic.field_build.calls", "count", "lower"), ("cyclotomic.field_build.s", "s", "lower")]
    + _calls_self("series.mul") + _calls_self("series.inverse")
    + _calls_self("eulerian.periodic_power_sum")
    + [("eulerian.power_sum_rational.calls", "count", "lower")]
    + _calls_self("twisted.gf") + _calls_self("twisted.series_value")
    + [
        ("twisted.values_computed", "count", "lower"),
        ("twisted.values_requested", "count", "higher"),
        ("twisted.useful_ratio", "ratio", "higher"),
    ]
    + _calls_self("fermionic.moment_solve")
    + _calls_self("fermionic.padic_truncation")
    + [("fermionic.truncation_terms", "count", "lower")]
    + _calls_self("rationals.padic_valuation")
    + _calls_self("lfunction.l_series_sum")
    + [("lfunction.terms", "count", "lower")]
    + [(f"checks.{token}.s", "s", "lower") for token in RELATION_TOKENS]
    + [("checks.points", "count", "higher")]
)


def _resolve(owner, path: str):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # time spent in wrapped children, per open span
        self._inside_value = 0

    def span(self, name: str, fn, after=None):
        calls, inclusive, own, stack, clock = self.calls, self.inclusive, self.own, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                inclusive[name] += elapsed
                own[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self, et) -> None:
        modules = [et.package] + [getattr(et, name) for name in vars(et) if name != "package"]
        counts = self.counts
        hooks = {
            "fermionic.padic_truncation": lambda r: counts.update(
                {"fermionic.truncation_terms": sum(r.p**lv.level for lv in r.levels)}),
            "lfunction.l_series_sum": lambda r: counts.update({"lfunction.terms": r.terms_used}),
        }
        for name, module, path in SPANS:
            original = _resolve(getattr(et, module), path)
            wrapper = self.span(name, original, hooks.get(name))
            if "." in path:
                cls = _resolve(getattr(et, module), path.rsplit(".", 1)[0])
                _replace_in(cls, original, wrapper)
            else:
                for mod in modules:
                    _replace_in(mod, original, wrapper)
        self._count_twisted_values(et, modules)
        relations = et.checks.RELATIONS
        for token in RELATION_TOKENS:
            relations[token] = self.span(
                f"checks.{token}", relations[token],
                lambda r: counts.update({"checks.points": len(r.points)}),
            )

    def _count_twisted_values(self, et, modules) -> None:
        """values_computed counts every A_n that twisted_values produces;
        values_requested counts what the caller asked for: one per
        twisted_value call, all of them for a direct twisted_values call."""
        values, value = et.twisted.twisted_values, et.twisted.twisted_value
        counts = self.counts

        @functools.wraps(values)
        def counted_values(*args, **kwargs):
            result = values(*args, **kwargs)
            counts["twisted.values_computed"] += len(result)
            if not self._inside_value:
                counts["twisted.values_requested"] += len(result)
            return result

        @functools.wraps(value)
        def counted_value(*args, **kwargs):
            self._inside_value += 1
            try:
                result = value(*args, **kwargs)
            finally:
                self._inside_value -= 1
            counts["twisted.values_requested"] += 1
            return result

        for mod in modules:
            _replace_in(mod, values, counted_values)
            _replace_in(mod, value, counted_value)

    def metrics(self) -> dict:
        out = {}
        for name, unit, _ in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind == "calls":
                value = self.calls[prefix]
            elif kind == "self_s":
                value = self.own[prefix]
            elif kind == "s":
                value = self.inclusive[prefix]
            elif name == "twisted.useful_ratio":
                computed = self.counts["twisted.values_computed"]
                value = self.counts["twisted.values_requested"] / computed if computed else 0.0
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out


def _replace_in(owner, original, wrapper) -> None:
    for attr, value in list(vars(owner).items()):
        if value is original:
            setattr(owner, attr, wrapper)
