"""Tracing from outside the package: wrappers around public calls, spans in memory.

`Tracer.install(cc)` replaces each traced function where the calling module
looks it up (a module attribute such as `crystalcubes.demazure.path_f`, or a
class attribute such as `TwistedCube.signed_volume`), and `uninstall()` puts
the originals back.  Layer boundaries become spans (name, start, end, parent,
job); hot per-element functions (`path_f`, `path_e`, `MVPolynomial.substitute`)
only add to a count and a summed time.  `metrics()` derives the per-layer
figures; a layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (owner path, attribute) pairs where callers look the function up
SPANS = {
    "crystal.generate": [("crystal", "generate_crystal"), ("cli", "generate_crystal")],
    "crystal.graph": [("crystal", "graph_from_elements"), ("demazure", "graph_from_elements"),
                      ("cli", "graph_from_elements")],
    "demazure.saturate": [(m, f) for f in ("demazure_crystal", "gen_demazure_crystal", "gen_demazure_crystal_weights")
                          for m in ("demazure", "stringpoly", "cli") if not (m == "stringpoly" and f == "demazure_crystal")],
    "demazure.omega": [("demazure.GenDemazureCrystal", "omega_map")],
    "stringpoly": [("stringpoly", f) for f in ("lattice_points", "hat_lattice_points", "multiplicity",
                                               "tensor_decompose", "component_count", "fiber_string_points")],
    "twistedcube.integrate": [("twistedcube.TwistedCube", "signed_volume"),
                              ("twistedcube.TwistedCube", "pushforward_moments")],
    "twistedcube.count": [("twistedcube.TwistedCube", "signed_lattice_count")],
    "twistedcube.mc": [("twistedcube", "mc_histogram")],
    "twistedcube.mc_sample": [("twistedcube.TwistedCube", "mc_sample")],
    "rootsys.words": [("rootsys.RootSystem", f) for f in ("longest_word", "is_reduced_word_for_longest", "is_reduced")],
    "bundles": [("bundles", f) for f in ("pullback_vector", "mu_weight", "degeneration_vectors",
                                         "flag_bott_vectors", "bundle_report")],
    "cli.run": [("cli", "run")],
    "cli.render": [("cli", "_render")],
    "cli.write": [("cli", "_atomic_write")],
}
HOT = {
    "crystal.op": [("crystal", "path_f"), ("crystal", "path_e"), ("demazure", "path_f"), ("demazure", "path_e")],
    "twistedcube.substitute": [("twistedcube.MVPolynomial", "substitute")],
}
# the operator-cache lookups behind path_f/path_e, counted to tell hits from misses
CACHE_LOOKUPS = [("crystal", "_f_path_cached", "_f_cache"), ("crystal", "_e_path_cached", "_e_cache")]


def _owner(cc, path: str):
    obj = cc
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id, extra]
        self.stack: list = []
        self.job = None
        self.hot = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.rs_seen: list = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, extra):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None, self.job, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if extra is not None:
                spans[index][5] = extra(args, result)
            return result

        return wrapper

    def _hot(self, name, fn, extra=None):
        record = self.hot[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            record[1] += perf_counter() - start
            record[0] += 1
            if extra is not None:
                extra(result)
            return result

        return wrapper

    def _cache_lookup(self, fn, cache_attr):
        counts = self.counts

        def wrapper(rs, b, i):
            counts["crystal.cache_hits"] += (b, i) in getattr(rs, cache_attr)
            return fn(rs, b, i)

        return wrapper

    def _omega(self, fn):
        # omega_map caches its result; only a call that computes it counts elements
        fresh: list = []
        inner = self._span("demazure.omega", fn, lambda args, r: {"elements": len(r)} if fresh[-1] else None)

        def wrapper(crystal):
            fresh.append(crystal._omega is None)
            try:
                return inner(crystal)
            finally:
                fresh.pop()

        return wrapper

    def _root_system(self, fn):
        def wrapper(spec):
            rs = fn(spec)
            self.rs_seen.append(rs)
            return rs

        return wrapper

    def install(self, cc) -> None:
        def patch(path, attr, make):
            owner = _owner(cc, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        extras = {
            "demazure.saturate": lambda args, r: {"elements": len(r) if isinstance(r, frozenset) else len(r.elements)},
            "stringpoly": lambda args, r: {"points": len(r)} if isinstance(r, tuple) else None,
            "twistedcube.mc": lambda args, r: {"samples": r.samples, "bytes": r.samples * args[1].rows * 8},
            "twistedcube.mc_sample": lambda args, r: {"bytes": r[0].nbytes + r[1].nbytes},
            "cli.render": lambda args, r: {"bytes": len(r.encode())},
        }
        for name, places in SPANS.items():
            for path, attr in places:
                if name == "demazure.omega":
                    patch(path, attr, self._omega)
                else:
                    patch(path, attr, lambda fn, name=name: self._span(name, fn, extras.get(name)))
        peaks = self.peaks

        def terms(result):
            if len(result.terms) > peaks["twistedcube.peak_terms"]:
                peaks["twistedcube.peak_terms"] = len(result.terms)

        for name, places in HOT.items():
            for path, attr in places:
                patch(path, attr, lambda fn, name=name: self._hot(name, fn, terms if name == "twistedcube.substitute" else None))
        for path, attr, cache_attr in CACHE_LOOKUPS:
            patch(path, attr, lambda fn, cache_attr=cache_attr: self._cache_lookup(fn, cache_attr))
        patch("cli", "_root_system", self._root_system)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-job bookkeeping ------------------------------------------------------

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self.rs_seen = []

    def end_job(self, shared_rs=()) -> None:
        entries = sum(len(rs._f_cache) + len(rs._e_cache) + len(rs._paths) for rs in list(shared_rs) + self.rs_seen)
        if entries > self.peaks["crystal.cache_entries"]:
            self.peaks["crystal.cache_entries"] = entries
        self.job = None

    # -- derived metrics -----------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float, overhead_ratio: float) -> dict:
        spans = self.spans
        children = defaultdict(float)
        for s in spans:
            if s[3] is not None:
                children[s[3]] += s[2] - s[1]

        def layer(name):
            return [k for k, s in enumerate(spans) if s[0] == name]

        def outer_time(name) -> float:
            # inclusive time of the outermost spans of a layer, so nesting is not counted twice
            total = 0.0
            for k in layer(name):
                p = spans[k][3]
                while p is not None and spans[p][0] != name:
                    p = spans[p][3]
                if p is None:
                    total += spans[k][2] - spans[k][1]
            return total

        def self_time(name) -> float:
            return sum(spans[k][2] - spans[k][1] - children[k] for k in layer(name))

        def extra_sum(name, key) -> float:
            return sum((spans[k][5] or {}).get(key, 0) for k in layer(name))

        def rate(num, den) -> float:
            return num / den if den else 0.0

        ops, op_s = self.hot["crystal.op"]
        subs, _ = self.hot["twistedcube.substitute"]
        sat_s, sat_n = outer_time("demazure.saturate"), extra_sum("demazure.saturate", "elements")
        om_s, om_n = outer_time("demazure.omega"), extra_sum("demazure.omega", "elements")
        mc_s = outer_time("twistedcube.mc")
        mc_bytes = Counter()
        for name in ("twistedcube.mc", "twistedcube.mc_sample"):
            for k in layer(name):
                mc_bytes[spans[k][4]] += (spans[k][5] or {}).get("bytes", 0)

        # useful work of the projection: points returned ÷ elements saturated beneath them
        useful = extra_sum("stringpoly", "points")
        built = 0
        for k in layer("demazure.saturate"):
            p = spans[k][3]
            while p is not None and spans[p][0] != "stringpoly":
                p = spans[p][3]
            if p is not None and "points" in (spans[p][5] or {}):
                built += spans[k][5]["elements"]

        per_round = 1.0 / rounds
        values = {
            "crystal.op_calls": ops * per_round,
            "crystal.ops_per_s": rate(ops, op_s),
            "crystal.cache_hit_ratio": rate(self.counts["crystal.cache_hits"], ops),
            "crystal.cache_entries": self.peaks["crystal.cache_entries"],
            "crystal.generate_s": outer_time("crystal.generate") * per_round,
            "crystal.graph_s": outer_time("crystal.graph") * per_round,
            "demazure.saturate_s": sat_s * per_round,
            "demazure.elements": sat_n * per_round,
            "demazure.elements_per_s": rate(sat_n, sat_s),
            "demazure.omega_s": om_s * per_round,
            "demazure.omega_per_s": rate(om_n, om_s),
            "stringpoly.self_s": self_time("stringpoly") * per_round,
            "stringpoly.useful_ratio": rate(useful, built),
            "twistedcube.integrate_s": outer_time("twistedcube.integrate") * per_round,
            "twistedcube.substitute_calls": subs * per_round,
            "twistedcube.peak_terms": self.peaks["twistedcube.peak_terms"],
            "twistedcube.count_s": outer_time("twistedcube.count") * per_round,
            "twistedcube.mc_s": mc_s * per_round,
            "twistedcube.mc_samples_per_s": rate(extra_sum("twistedcube.mc", "samples"), mc_s),
            "twistedcube.mc_bytes_computed": max(mc_bytes.values(), default=0),
            "rootsys.words_s": outer_time("rootsys.words") * per_round,
            "bundles.s": outer_time("bundles") * per_round,
            "cli.self_s": self_time("cli.run") * per_round,
            "cli.render_s": outer_time("cli.render") * per_round,
            "cli.write_s": outer_time("cli.write") * per_round,
            "cli.artifact_bytes": extra_sum("cli.render", "bytes") * per_round,
            "trace.overhead_s": overhead_s,
            "trace.overhead_ratio": overhead_ratio,
        }
        return values

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, job, extra in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                         "job": job, "extra": extra}) + "\n")
            for name, (count, seconds) in sorted(self.hot.items()):
                handle.write(json.dumps({"aggregate": name, "count": count, "seconds": seconds}) + "\n")
