"""Outside-in tracer for the cmwitness modules.

The tracer wraps public functions of the package from outside: it
replaces each target function by a wrapper in every ``cmwitness``
module that binds it, because the modules import functions by name
(``in_S2wedge4`` is bound in ``predicates``, ``classifier`` and
``report``).  ``PolyFraction.__init__`` is wrapped on its class and
only counted, since it runs about a thousand times per report.

Spans (name, start, end, parent, request id) are kept in memory and
written out by ``dump``.  Nothing in the package changes; ``uninstall``
restores every binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs that get a span, grouped by layer.
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("report", "parse_job"),
    ("report", "assemble_report"),
    ("report", "render_json"),
    ("algebra", "make_algebra"),
    ("algebra", "k_mul"),
    ("algebra", "span_closure_check"),
    ("algebra", "express_in_span"),
    ("predicates", "is_squarefree"),
    ("predicates", "satisfies_A1"),
    ("predicates", "degree_four_check"),
    ("predicates", "decompose_S2"),
    ("predicates", "in_S2wedge4"),
    ("predicates", "product_in_S2wedge4"),
    ("predicates", "ideal_Q_classify"),
    ("predicates", "regular_sequence_certificate"),
    ("gcd", "gcd_z"),
    ("gcd", "gcd_q"),
    ("gcd", "gcd_many_q"),
    ("gcd", "gcd_f2"),
    ("gcd", "is_ring_square"),
    ("linalg", "bareiss_rank"),
    ("linalg", "solve_fraction_system"),
    ("linalg", "poly_det"),
    ("linalg", "fraction_kernel"),
    ("linalg", "f2_nullspace"),
    ("classifier", "classify"),
    ("classifier", "q_shape"),
    ("classifier", "build_R"),
    ("classifier", "conductor"),
    ("classifier", "build_small_cm_certificate"),
    ("classifier", "presentation_complex"),
    ("homology", "resolution_of_I"),
    ("homology", "resolution_of_S_mod_Q"),
    ("homology", "check_composition_zero"),
    ("homology", "be_exactness_check"),
    ("homology", "standard_grade_certificates"),
    ("homology", "pd_depth_report"),
    ("homology", "kernel_saturation_check"),
    ("cli", "cmd_regress"),
    ("cli", "cmd_sweep"),
)

POLYFRACTION_INIT = "linalg.PolyFraction.constructions"
GCD_Z_UNIT = "gcd.gcd_z.unit_results"
PACKAGE = "cmwitness"


def _is_trivial_gcd(p) -> bool:
    """A gcd of +-1: the call found nothing to cancel."""
    return p.is_constant() and abs(p.constant_coeff()) == 1


class Tracer:
    """Records spans and counters for the wrapped functions."""

    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent_index, request_id]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.request_id = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable, outcome: Optional[Callable]):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if outcome is not None and outcome(result):
                tracer.counters[GCD_Z_UNIT, tracer.request_id] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, key: str, fn: Callable):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counters[key, tracer.request_id] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, original: object, wrapper: object) -> int:
        """Point every package-module attribute bound to ``original`` at ``wrapper``."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))
                    n += 1
        return n

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname, fname in SPAN_TARGETS:
            mod = sys.modules["%s.%s" % (PACKAGE, modname)]
            original = getattr(mod, fname)
            outcome = _is_trivial_gcd if (modname, fname) == ("gcd", "gcd_z") else None
            wrapper = self._span_wrapper("%s.%s" % (modname, fname), original, outcome)
            if self._rebind(original, wrapper) == 0:
                raise RuntimeError("no binding found for %s.%s" % (modname, fname))
        cls = sys.modules[PACKAGE + ".linalg"].PolyFraction
        init = cls.__dict__["__init__"]
        cls.__init__ = self._count_wrapper(POLYFRACTION_INIT, init)
        self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def aggregate(self, request_ids) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ns (outermost spans only), self ns.

        Only spans whose request id is in ``request_ids`` count.
        """
        wanted = set(request_ids)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid not in wanted:
                continue
            s = stats.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["self_ns"] += (end - start) - child_ns[i]
            if not self._has_ancestor_named(parent, name):
                s["incl_ns"] += end - start
        return stats

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def count(self, key: str, request_ids) -> int:
        wanted = set(request_ids)
        return sum(v for (k, rid), v in self.counters.items() if k == key and rid in wanted)

    def dump(self, path: str) -> None:
        """Write one JSON array per span: name, start_ns, end_ns, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
