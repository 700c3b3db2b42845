"""Per-layer spans recorded from outside the library.

``Tracer.install()`` replaces every public module-level function of the
traced modules, in every module namespace that bound it (for example
``fourier_motzkin_feasible`` in both ``arrangement`` and ``multifan``), plus
the few methods listed in ``METHODS``, by a wrapper that records a span:
name, start, end, parent, the namespace the call went through and whether
it raised.  Spans stay in memory; ``uninstall()`` puts every original
object back.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "hypertoric"
MODULES = (
    "exactalg",
    "polynomials",
    "arrangement",
    "multifan",
    "lawrence",
    "crring",
    "localize",
    "quantum",
    "svg",
    "cli",
)

# Methods worth a span: the layer entry points that are not module functions.
METHODS = {
    "arrangement": {
        "StackyArrangement": ("build", "from_data", "bounded_chambers", "core"),
        "Chamber": ("vertices",),
    },
    "lawrence": {"LawrenceFan": ("locate", "l_pairing", "cone_index")},
    "crring": {"CohomologyContext": ("__init__",)},
    "quantum": {
        "QuantumContext": ("__init__",),
        "CircuitModel": ("__init__", "gamma_apply"),
    },
}

# Size counters: span name -> how much a result holds.
SIZES = {
    "arrangement.StackyArrangement.bounded_chambers": ("arrangement.chambers", len),
    "multifan.circuits": ("multifan.circuits", len),
    "multifan.box_elements": ("multifan.boxes", len),
    "lawrence.build_lawrence_fan": ("lawrence.max_cones", lambda fan: len(fan.max_cones)),
    "quantum.quantum_divisor_product": ("quantum.series_terms", lambda s: len(s.terms)),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, site, raised]
        self.sizes = {}
        self._stack = []
        self._saved = []  # (owner, attribute, original value as stored)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, site):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, site, False]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                sizes[size[0]] = sizes.get(size[0], 0) + size[1](result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = dict(modules)
        namespaces["__init__"] = importlib.import_module(PACKAGE)
        wrapped = {}  # id(original) -> (original, span name)
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, f"{mod_name}.{attr}")
        for site, ns in namespaces.items():
            for attr, obj in list(vars(ns).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, self._wrap(obj, entry[1], site))
        for mod_name, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod_name], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    self._saved.append((cls, meth, raw))
                    label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                    name = f"{mod_name}.{label}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(raw.__func__, name, mod_name))
                    else:
                        new = self._wrap(raw, name, mod_name)
                    setattr(cls, meth, new)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def has_ancestor(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def group(self, names):
        """(calls, seconds) over spans named in ``names``; time counts only
        the outermost of nested spans so it is never counted twice."""
        names = set(names)
        calls, seconds = 0, 0.0
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            if name in names:
                calls += 1
                if not self.has_ancestor(i, names):
                    seconds += end - start
        return calls, seconds
