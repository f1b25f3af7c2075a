"""Spans around calls into biquiver's layers, recorded from outside the package.

`Tracer.install` wraps each traced function at every place it can be
looked up from: the module that defines it, every `biquiver` module that
imported it by name, and the package namespace. Methods of `CMatrix` are
wrapped on the class. Nothing in the package itself is edited, and
`uninstall` puts the original objects back.

Spans nest: a span's self time is its duration minus the time covered by
the spans that ran inside it. Only per-span totals are kept in memory.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) of every traced callable; "CMatrix.x" is a method.
TRACED = [
    ("classify", "representation_type"),
    ("tits", "gram_matrix"),
    ("tits", "definiteness"),
    ("tits", "radical_vector"),
    ("roots", "roots_with_value"),
    ("conjugation", "dash_elimination_plan"),
    ("morphisms", "hom_basis"),
    ("morphisms", "_minimal_polynomial"),
    ("morphisms", "_splitting_idempotent"),
    ("morphisms", "_trace_form"),
    ("morphisms", "_certify_local"),
    ("linalg", "fraction_nullspace"),
    ("linalg", "fraction_solve"),
    ("linalg", "CMatrix.inverse"),
    ("linalg", "CMatrix.__matmul__"),
    ("polynomials", "poly_factor"),
    ("representation", "apply_base_change"),
    ("representation", "parse_representation"),
    ("representation", "representation_to_obj"),
    ("cli", "main"),
]


@dataclass
class SpanStats:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


def _count_roots(stats, args, kwargs, result):
    stats.add("found", len(result))


def _count_system(stats, args, kwargs, result):
    rows, ncols = args[0], args[1]
    stats.add("cells", len(rows) * ncols)
    stats.maximum("max_rows", len(rows))
    stats.maximum("max_cols", ncols)


def _count_degree(stats, args, kwargs, result):
    stats.add("degree_sum", len(result) - 1)


def _count_useful(stats, args, kwargs, result):
    stats.add("useful", result is not None)


def _count_gram(stats, args, kwargs, result):
    stats.counters.setdefault("grams", set()).add(args[0].q)


# Extra per-call counters, recorded after the span has closed.
_COUNTERS = {
    "roots.roots_with_value": _count_roots,
    "linalg.fraction_nullspace": _count_system,
    "morphisms._minimal_polynomial": _count_degree,
    "morphisms._splitting_idempotent": _count_useful,
    "tits.definiteness": _count_gram,
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__matmul__', 'matmul')}"


class Tracer:
    """Aggregates nested spans; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        counter = _COUNTERS.get(name)
        clock = self.clock
        child_time = self._child_time

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                duration = clock() - start
                inner = child_time.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - inner
                if child_time:
                    child_time[-1] += duration
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced callable wherever a biquiver module holds it."""
        for module, _ in TRACED:
            importlib.import_module(f"biquiver.{module}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "biquiver" or key.startswith("biquiver."))]
        for module, attr in TRACED:
            home = sys.modules[f"biquiver.{module}"]
            name = span_name(module, attr)
            if attr.startswith("CMatrix."):
                cls, method = home.CMatrix, attr.split(".", 1)[1]
                self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float,
                  speed: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, in the order BENCHMARK.json lists them, as
    name -> (value, unit). Self times are multiplied by `speed`, the
    host's speed relative to the reference host during the traced pass."""
    s = tracer.stats
    out: dict[str, tuple[float, str]] = {}

    def calls_self(name, *extra):
        out[f"{name}.calls"] = (s[name].calls, "count")
        out[f"{name}.self_s"] = (s[name].self_s * speed, "s")
        for key in extra:
            out[f"{name}.{key}"] = (s[name].counters.get(key, 0), "count")

    calls_self("classify.representation_type")
    calls_self("tits.gram_matrix")
    calls_self("tits.definiteness")
    out["tits.distinct_gram_ratio"] = (
        _ratio(len(s["tits.definiteness"].counters.get("grams", ())),
               s["tits.definiteness"].calls), "ratio")
    calls_self("tits.radical_vector")
    calls_self("roots.roots_with_value", "found")
    calls_self("conjugation.dash_elimination_plan")
    calls_self("morphisms.hom_basis")
    calls_self("linalg.fraction_nullspace", "cells", "max_rows", "max_cols")
    calls_self("linalg.fraction_solve")
    calls_self("morphisms._minimal_polynomial", "degree_sum")
    calls_self("polynomials.poly_factor")
    calls_self("morphisms._trace_form")
    calls_self("morphisms._certify_local")
    split = s["morphisms._splitting_idempotent"]
    out["morphisms.split_useful_ratio"] = (
        _ratio(split.counters.get("useful", 0), split.calls), "ratio")
    calls_self("linalg.CMatrix.inverse")
    inv = s["linalg.CMatrix.inverse"]
    out["linalg.CMatrix.inverse.singular_ratio"] = (_ratio(inv.raised, inv.calls), "ratio")
    calls_self("linalg.CMatrix.matmul")
    calls_self("representation.apply_base_change")
    for name in ("representation.parse_representation",
                 "representation.representation_to_obj", "cli.main"):
        out[f"{name}.self_s"] = (s[name].self_s * speed, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
