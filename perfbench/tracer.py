"""In-memory span tracer that wraps invsp entry points from outside the package.

The tracer patches functions and methods of an already imported ``invsp``
package.  Every binding of a wrapped function is replaced: the defining
module's attribute, every ``from .x import f`` copy held by another invsp
module (``gapsearch``, ``transform``, ``affinefamily`` and ``cli`` bind
``run_l0_sweep``, ``build_coefficient_family``, ``tensor_step``,
``validate_special``, ``basic_poly_closed`` and ``is_invariant`` by name),
the package namespace, and class attributes that alias the same function
(``Polynomial.__rmul__ is Polynomial.__mul__``).  ``sweep`` calls
``ratlp.solve_lp`` through the module attribute, so that one patch covers it.

Each call records a span ``(name, start, end, parent, op)`` in a list held
in memory; :meth:`Tracer.summary` derives per-entry call counts, total time
and self time (span time minus the time of its direct child spans), and
:meth:`Tracer.write_spans` writes the raw spans out once the run is over.
Entry points that are called too often for a span each (``rat.rat``) are
counted only.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, qualified attribute) pairs wrapped with a span per call.  The
# list is the public surface each layer offers to its callers; small pure
# helpers (grlex_key, weight_of, ...) stay unwrapped so that tracing does
# not dominate what it measures, and their time lands in their caller.
SPANNED: List[Tuple[str, str]] = [
    ("polycore", "Polynomial.__mul__"),
    ("polycore", "Polynomial.__add__"),
    ("polycore", "Polynomial.__sub__"),
    ("polycore", "Polynomial.restrict_to_hyperplane"),
    ("polycore", "is_one_on_hyperplane"),
    ("groups", "is_invariant"),
    ("groups", "enumerate_invariant_monomials"),
    ("construct", "basic_poly_closed"),
    ("transform", "tensor_step"),
    ("transform", "validate_special"),
    ("transform", "quotient_H"),
    ("affinefamily", "build_coefficient_family"),
    ("affinefamily", "instantiate"),
    ("ratlp", "solve_lp"),
    ("sweep", "run_l0_sweep"),
    ("gapsearch", "achievable_set"),
    ("gapsearch", "search_targets"),
    ("gapsearch", "frobenius_closure"),
    ("gapsearch", "closure_frontier"),
    ("cli", "main"),
]

# Wrapped with a call counter only: called per coefficient, a span each
# would cost more than the work it brackets.
COUNTED: List[Tuple[str, str]] = [
    ("rat", "rat"),
]

LAYERS = (
    "rat",
    "polycore",
    "groups",
    "construct",
    "transform",
    "affinefamily",
    "ratlp",
    "sweep",
    "gapsearch",
    "cli",
)


def _solve_lp_extra(args, kwargs, result, counters):
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    n_vars = args[2] if len(args) > 2 else kwargs["n_vars"]
    counters["rows"] += len(constraints)
    counters["vars"] += n_vars
    if result.status == "optimal" and result.objective > 0:
        counters["useful"] += 1


def _sweep_extra(args, kwargs, result, counters):
    stats = result.stats  # the SweepStats object, not its JSON rendering
    for key in (
        "nodes",
        "lp_calls",
        "leaves",
        "regions_total",
        "regions_explored",
        "regions_infeasible",
    ):
        counters[key] += getattr(stats, key)


def _mul_extra(args, kwargs, result, counters):
    a, b = args[0], args[1]
    if hasattr(b, "term_count"):
        counters["term_pairs"] += a.term_count() * b.term_count()


# Extra per-entry counters read from the arguments and the result.
EXTRAS: Dict[str, Callable] = {
    "ratlp.solve_lp": _solve_lp_extra,
    "sweep.run_l0_sweep": _sweep_extra,
    "polycore.Polynomial.__mul__": _mul_extra,
}


class Tracer:
    """Holds spans and counters in memory while installed on a package."""

    def __init__(self, package: str = "invsp"):
        self.package = package
        self.spans: List[tuple] = []  # (name, start, end, parent index, op)
        self.counters: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # Current operation, shared by its spans; None pauses recording, so
        # the benchmark's own result checks add no spans.
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        extra = EXTRAS.get(name)
        counters = self.counters[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if extra is not None:
                extra(args, kwargs, result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counters = self.counters[name]

        def wrapper(*args, **kwargs):
            if self.op is not None:
                counters["calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for entries, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr in entries:
                owner = sys.modules[f"{self.package}.{module_name}"]
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attr.split(".")[-1]
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                wrapper = make(f"{module_name}.{attr}", original)
                self._rebind(modules, owner, original, wrapper)

    def _rebind(self, modules, owner, original, wrapper) -> None:
        """Replace every binding of ``original`` in the package's namespaces."""
        namespaces = [owner] if isinstance(owner, type) else list(modules)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per entry: calls, total seconds, self seconds and extra counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, counters in self.counters.items():
            entry = out[name]
            for key, value in counters.items():
                entry[key] = entry.get(key, 0) + value
        return dict(out)

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed over each module's spans."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.summary().items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return totals

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [name, start, end, parent index, op]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
