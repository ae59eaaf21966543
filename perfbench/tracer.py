"""Outside-in tracer for endolab's public functions.

The tracer never edits the library.  It replaces each traced function by a
wrapper in every ``endolab.*`` namespace that binds it (``lab`` and
``workspace`` use ``from ... import``, so patching only the defining module
would miss their calls), in the ``lab.PROPERTY_FUNCS`` table, on
``HomGroup.coords_of``, and around each ``lab.MEMBER_CHECKS`` entry.

Every wrapped call is counted.  Timing is bounded: a span is opened only
when the caller's layer differs from the callee's, so a layer's self time is
its span time minus the spans it opens into other layers.  ``total_s`` of a
function is its inclusive time over the outermost (non-recursive) calls.
Raw spans are kept only per (object, check); everything else is aggregated
by (parent layer, callee).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("solve_congruence_system", "kernel_subgroup", "subgroup_canonical_form",
               "subgroup_intersection", "subgroup_structure", "integer_kernel"),
    "homs": ("hom_group", "end_ring", "summand_test", "kernel", "image",
             "is_fully_invariant", "is_m_generated", "find_isomorphism", "find_embedding"),
    "modules": ("enumerate_submodules", "extract", "is_essential", "quotient",
                "direct_sum", "maximal_submodules", "radical"),
    "rings": ("is_regular", "is_abelian_regular", "is_unit_regular",
              "regularity_witness", "is_unit", "enumerate_elements"),
    "lab": ("is_endoregular", "is_abelian_endoregular", "analyze"),
    "incidence": ("build_incidence_algebra", "build_mx"),
    "workspace": ("parse_workspace", "random_modules", "same_ring_families", "record_to_json"),
    "verdicts": ("agree",),
}

# Functions whose distinct argument tuples are counted (all take hashable args).
DISTINCT = {
    "homs.hom_group", "homs.end_ring", "homs.summand_test",
    "modules.enumerate_submodules", "rings.is_regular", "rings.is_abelian_regular",
    "lab.is_endoregular", "lab.is_abelian_endoregular",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set[int]] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = {}
        self.check_spans: list[tuple[str, str, float, float]] = []
        self.object_id = ""
        self._depth: dict[str, int] = defaultdict(int)
        self._cap_exceeded: type = Exception
        # Frames: [layer, start, time spent in child spans of other layers].
        self._stack: list[list] = [["bench", time.perf_counter(), 0.0]]

    # -- recording -----------------------------------------------------------

    def _call(self, layer: str, key: str, fn, args, kwargs, count=None):
        self.calls[key] += 1
        if key in DISTINCT:
            self.distinct[key].add(hash((args, tuple(sorted(kwargs.items())))))
        outer = self._depth[key] == 0
        self._depth[key] += 1
        parent = self._stack[-1]
        span = parent[0] != layer
        start = time.perf_counter()
        if span:
            self._stack.append([layer, start, 0.0])
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result
        except self._cap_exceeded:
            self.counts[key + ".cap_hits"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._depth[key] -= 1
            if outer:
                self.total_s[key] += end - start
            if span:
                frame = self._stack.pop()
                self.self_s[layer] += (end - start) - frame[2]
                parent[2] += end - start
                edge = self.edges.setdefault((parent[0], key), [0, 0.0])
                edge[0] += 1
                edge[1] += end - start
                if key.startswith("lab.check."):
                    self.check_spans.append((self.object_id, key[len("lab.check."):], start, end))

    def wrap(self, layer: str, key: str, fn, count=None):
        def traced(*args, **kwargs):
            return self._call(layer, key, fn, args, kwargs, count)
        return traced

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import endolab.homs as homs
        import endolab.lab as lab
        from endolab.verdicts import CapExceeded

        self._cap_exceeded = CapExceeded
        modules = {name: sys.modules[f"endolab.{name}"] for name in LAYERS}
        counters = {
            "linalg.solve_congruence_system": lambda args, r: self._add(
                "linalg.solve_congruence_system.cells", len(args[0]) * len(args[1])),
            "modules.enumerate_submodules": lambda args, r: self._add(
                "modules.enumerate_submodules.submodules", len(r)),
            "rings.enumerate_elements": lambda args, r: self._add(
                "rings.enumerate_elements.elements", len(r)),
        }
        replaced = {}
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name)
                key = f"{layer}.{name}"
                replaced[id(original)] = self.wrap(layer, key, original, counters.get(key))

        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("endolab") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and callable(value):
                    setattr(mod, attr, replaced[id(value)])
        lab.PROPERTY_FUNCS = tuple(
            (name, replaced.get(id(fn), fn)) for name, fn in lab.PROPERTY_FUNCS
        )
        lab.MEMBER_CHECKS = tuple(
            (check_id, self.wrap("lab", f"lab.check.{check_id}", fn))
            for check_id, fn in lab.MEMBER_CHECKS
        )
        lab.check_direct_sum_family = self.wrap(
            "lab", "lab.check.direct-sum-characterization", lab.check_direct_sum_family)
        homs.HomGroup.coords_of = self.wrap(
            "homs", "homs.HomGroup.coords_of", homs.HomGroup.coords_of)

        cap_init = CapExceeded.__init__
        tracer = self

        def counted_init(exc, total, cap, what="elements"):
            tracer.counts["verdicts.cap_exceeded." + what.replace(" ", "-")] += 1
            cap_init(exc, total, cap, what)

        CapExceeded.__init__ = counted_init

    # -- export --------------------------------------------------------------

    def summary(self) -> dict:
        """Flat metric name -> value for this traced pass."""
        out: dict[str, float] = {}
        for key, n in self.calls.items():
            out[key + ".calls"] = n
        for key, t in self.total_s.items():
            out[key + ".total_s"] = t
        for key, seen in self.distinct.items():
            out[key + ".distinct"] = len(seen)
        for key, n in self.counts.items():
            out[key] = n
        for layer, t in self.self_s.items():
            out[layer + ".self_s"] = t
        return out

    def spans(self) -> dict:
        return {
            "checks": [
                {"object": o, "check": c, "start": s, "end": e}
                for o, c, s, e in self.check_spans
            ],
            "edges": [
                {"parent": p, "callee": k, "calls": v[0], "total_s": v[1]}
                for (p, k), v in sorted(self.edges.items())
            ],
        }
