"""Layer spans recorded from outside the package.

The layers are the modules of ``ncwords``.  ``Tracer.install`` replaces
every public function at each module attribute that a caller binds
(``ncwords.cooperad.reduce_word`` is a different binding from
``ncwords.words.reduce_word``) and every public method of the layer
classes (``MomentFunctional.expect``) with a wrapper that records a
span: layer, start, end and the id of the enclosing span.  Spans of one
request stay in memory until the request ends; a layer's self time is
its spans' duration minus the part covered by their child spans.

Nothing under ``src/`` is edited: wrapping happens at run time and is
undone by ``Tracer.uninstall``.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict
from types import FunctionType

LAYERS = ("words", "surjections", "cooperad", "probability", "cumulants", "cli")
PACKAGE = "ncwords"
# Inclusive time of the lattice-sum routes, reported as cumulants.lattice_s.
LATTICE = frozenset({"boolean_cumulant", "classical_cumulant", "moments_from_free_cumulants"})
ENUMERATORS = frozenset({"enumerate_canonical_surjections", "enumerate_nc_partitions"})


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()  # (layer, function, binding site) -> calls
        self.counts: Counter = Counter()  # derived counters, by metric name
        self.self_s: defaultdict = defaultdict(float)  # layer -> self time
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self.lattice_s = 0.0
        self.load_s = 0.0
        self.main_self_s: list[float] = []  # cli self time, one entry per ``main`` call
        self._spans: list[tuple[int, int, str, str, float, float]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []
        self._misses: dict[int, int] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        owners = {f"{PACKAGE}.{name}": name for name in LAYERS}
        wrapped: dict[tuple[int, str], object] = {}
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                layer = owners.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if isinstance(obj, type):
                    if layer == site:
                        self._wrap_methods(obj, layer)
                    continue
                if callable(obj):
                    key = (id(obj), site)
                    if key not in wrapped:
                        wrapped[key] = self._wrapper(obj, layer, attr, site)
                    self._replace(module, attr, wrapped[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                inner = self._wrapper(member.__func__, layer, name, "method")
                self._replace(cls, attr, type(member)(inner))
            elif isinstance(member, FunctionType):
                self._replace(cls, attr, self._wrapper(member, layer, name, "method"))

    def _wrapper(self, fn, layer: str, name: str, site: str):
        key = (layer, name, site)
        calls, stack, spans, ids = self.calls, self._stack, self._spans, self._ids
        clock = time.perf_counter
        after = self._after_hook(fn, layer, name, site)

        def traced(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    def _after_hook(self, fn, layer: str, name: str, site: str):
        """Counters that need the call's result, keyed by where it is bound."""
        counts = self.counts
        if (layer, name, site) == ("words", "is_noncrossing_seq", "cumulants"):
            def kept(result):
                if result:
                    counts["cumulants.kept"] += 1
            return kept
        if layer == "cooperad" and name in ("decompose", "decompose_noncrossing"):
            def terms(result):
                counts["cooperad.terms"] += len(result)
            return terms
        if layer == "surjections" and name in ENUMERATORS:
            info = getattr(fn, "cache_info", None)
            if info is None:
                # An uncached enumerator builds on every call.
                def built_always(result):
                    counts["surjections.enum.misses"] += 1
                    counts["surjections.built"] += len(result)
                return built_always
            self._misses.setdefault(id(fn), info().misses)

            def built_on_miss(result):
                misses = info().misses
                new = misses - self._misses[id(fn)]
                if new:
                    self._misses[id(fn)] = misses
                    counts["surjections.enum.misses"] += new
                    counts["surjections.built"] += len(result)
            return built_on_miss
        return None

    # -- per-request reduction -----------------------------------------

    def end_request(self) -> None:
        """Reduce the spans of the finished request to per-layer totals."""
        spans = self._spans
        covered: defaultdict = defaultdict(float)
        for _sid, parent, _layer, _name, t0, t1 in spans:
            covered[parent] += t1 - t0
        for sid, parent, layer, name, t0, t1 in spans:
            duration = t1 - t0
            own = duration - covered.get(sid, 0.0)
            self.self_s[layer] += own
            if parent == 0:
                self.top_s += duration
            if name in LATTICE:
                self.lattice_s += duration
            elif name == "load_moments":
                self.load_s += duration
            elif name == "main" and layer == "cli":
                self.main_self_s.append(own)
        spans.clear()

    # -- summaries -----------------------------------------------------

    def totals(self) -> dict:
        """Counts and times in a form that sums across processes."""
        by_layer = Counter()
        by_name = Counter()
        for (layer, name, site), n in self.calls.items():
            by_layer[layer] += n
            by_name[(layer, name)] += n
        counts = Counter(self.counts)
        for layer in LAYERS:
            counts[f"{layer}.calls"] = by_layer[layer]
        counts["words.restrict.calls"] = by_name[("words", "restrict")]
        counts["words.reduce.calls"] = by_name[("words", "reduce_word")]
        counts["surjections.enum.calls"] = sum(by_name[("surjections", n)] for n in ENUMERATORS)
        counts["probability.expect.calls"] = by_name[("probability", "MomentFunctional.expect")]
        counts["cooperad.chains"] = self.calls[("surjections", "compose", "cooperad")]
        counts["cumulants.scanned"] = self.calls[("words", "is_noncrossing_seq", "cumulants")]
        counts["cumulants.blocks"] = self.calls[("words", "restrict", "cumulants")]
        return {
            "counts": dict(counts),
            "self_s": dict(self.self_s),
            "top_s": self.top_s,
            "lattice_s": self.lattice_s,
            "load_s": self.load_s,
            "main_self_s": list(self.main_self_s),
        }
