"""Per-layer tracing by rebinding ncthick's module attributes.

Every ncthick module calls the others through module attributes
(`linalg.mat_mul`, `cartan.absolute_length`, `derived.build_zdelta`) and
its own functions through module globals, so replacing an attribute here
also catches the library's internal calls.  Nothing under src/ changes.

Three kinds of wrapper:
  SPAN   records (name, start, end, parent) per call;
  LEAF   hot calls, aggregated as count plus busy time under the nearest
         enclosing span instead of one span each;
  COUNT  the hottest calls, counted only; their time stays with the caller.
Self time of a call is its duration minus the durations of the traced
calls directly inside it, so by construction the self times of all calls
plus the root's own self time ("unattributed") add up to the root's duration.
"""

from __future__ import annotations

import importlib
import json
import time

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, class or None, attribute, metric key, kind)
TARGETS = [
    ("ncthick.linalg", None, "mat_mul", "linalg.mat_mul", LEAF),
    ("ncthick.linalg", None, "int_rank", "linalg.int_rank", LEAF),
    ("ncthick.linalg", None, "rref", "linalg.rref", LEAF),
    ("ncthick.cartan", "WeylElement", "__mul__", "cartan.weyl_mul", LEAF),
    ("ncthick.cartan", "WeylElement", "inverse", "cartan.weyl_inverse", LEAF),
    ("ncthick.cartan", None, "absolute_length", "cartan.absolute_length", LEAF),
    ("ncthick.cartan", None, "reflection_element", "cartan.reflection_element", LEAF),
    ("ncthick.cartan", None, "form", "cartan.form", LEAF),
    ("ncthick.cartan", None, "is_reflection", "cartan.is_reflection", LEAF),
    ("ncthick.noncrossing", None, "enumerate_nc", "noncrossing.enumerate_nc", SPAN),
    ("ncthick.noncrossing", "NCLattice", "hasse", "noncrossing.hasse", SPAN),
    ("ncthick.noncrossing", "NCLattice", "leq", "noncrossing.leq", LEAF),
    ("ncthick.noncrossing", "NCLattice", "canonical_word", "noncrossing.canonical_word", LEAF),
    ("ncthick.noncrossing", None, "meet", "noncrossing.meet", SPAN),
    ("ncthick.noncrossing", None, "join", "noncrossing.join", SPAN),
    ("ncthick.noncrossing", None, "kreweras", "noncrossing.kreweras", SPAN),
    ("ncthick.noncrossing", None, "co_kreweras", "noncrossing.co_kreweras", SPAN),
    ("ncthick.noncrossing", None, "to_json", "noncrossing.to_json", SPAN),
    ("ncthick.noncrossing", None, "hasse_dot", "noncrossing.hasse_dot", SPAN),
    ("ncthick.braid", None, "hurwitz_orbit", "braid.hurwitz_orbit", SPAN),
    ("ncthick.braid", None, "braid_act", "braid.braid_act", SPAN),
    ("ncthick.braid", None, "enumerate_factorizations", "braid.enumerate_factorizations", SPAN),
    ("ncthick.repcat", None, "hom", "repcat.hom", SPAN),
    ("ncthick.repcat", None, "ext1_dim", "repcat.ext1_dim", SPAN),
    ("ncthick.repcat", None, "indecomposable_for_root", "repcat.indecomposable_for_root", SPAN),
    ("ncthick.repcat", None, "is_exceptional_sequence", "repcat.is_exceptional_sequence", SPAN),
    ("ncthick.thicklat", None, "thick_lattice", "thicklat.thick_lattice", SPAN),
    ("ncthick.thicklat", None, "thick_from_nc", "thicklat.thick_from_nc", SPAN),
    ("ncthick.thicklat", None, "thick_to_json", "thicklat.thick_to_json", SPAN),
    ("ncthick.thicklat", None, "wide_subcategory_oracle", "thicklat.wide_subcategory_oracle", SPAN),
    ("ncthick.thicklat", None, "kronecker_to_json", "thicklat.kronecker_to_json", SPAN),
    ("ncthick.thicklat", "KroneckerLattice", "leq", "thicklat.kronecker_leq", COUNT),
    ("ncthick.derived", None, "build_zdelta", "derived.build_zdelta", SPAN),
    ("ncthick.derived", None, "knit_hammock", "derived.knit_hammock", SPAN),
    ("ncthick.derived", None, "ell", "derived.ell", SPAN),
    ("ncthick.derived", None, "verify_mesh", "derived.verify_mesh", SPAN),
    ("ncthick.derived", None, "hammocks_json", "derived.hammocks_json", SPAN),
    ("workloads", None, "serialize", "cli.serialize", SPAN),
    ("workloads", None, "query_request", "cli.query_request", SPAN),
]

LAYERS = ("linalg", "cartan", "noncrossing", "braid", "repcat", "thicklat", "derived", "cli")


def _hom_unknowns(args) -> int:
    _, source, target = args[:3]
    return sum(a * b for a, b in zip(source.dim, target.dim))


# result/argument annotations kept on a span, for the yield metrics
ANNOTATE = {
    "noncrossing.enumerate_nc": lambda args, out: len(out),
    "noncrossing.hasse": lambda args, out: len(out),
    "braid.hurwitz_orbit": lambda args, out: len(out) - 1,
    "thicklat.thick_lattice": lambda args, out: len(out),
    "repcat.hom": lambda args, out: _hom_unknowns(args),
}


class Tracer:
    """Installs the wrappers, holds spans in memory, and restores on close."""

    def __init__(self):
        self.spans: list = []  # [key, start, end, parent id, annotation]
        self.stats: dict[str, list] = {t[3]: [0, 0.0, 0.0] for t in TARGETS}  # calls, busy, self
        self.leaf_under: dict[tuple[int, str], list] = {}  # (span id, key) -> [calls, busy]
        self.stack: list = []  # frames [child time, nearest span id]
        self._saved: list = []
        self.missing: list[str] = []  # targets the library no longer has

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, cls, attr, key, kind in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(".".join(filter(None, (module, cls, attr))))
                continue
            self._saved.append((owner, attr, original))
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, key, kind))
            else:
                wrapped = self._wrap(original, key, kind)
            setattr(owner, attr, wrapped)

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, key, kind):
        stat = self.stats[key]
        if kind == COUNT:
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counted

        perf = time.perf_counter
        stack, spans, leaf_under = self.stack, self.spans, self.leaf_under
        annotate = ANNOTATE.get(key)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if kind == SPAN:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if kind == SPAN:
                    spans[span_id] = [key, t0, t1, parent[1], 0]
                else:
                    agg = leaf_under.get((span_id, key))
                    if agg is None:
                        agg = leaf_under[(span_id, key)] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
            if annotate:
                spans[span_id][4] = annotate(args, out)
            return out

        return traced

    # -- measurement ---------------------------------------------------------

    def run(self, fn):
        """Call fn under the root span and return its result."""
        root = [0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(root)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
        self.spans[root[1]] = ["measure", t0, t1, None, None]
        self.root_s = t1 - t0
        self.unattributed_s = self.root_s - root[0]
        return out

    def _spans_of(self, key):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] == key]

    def _leaf_calls_under(self, span_key, leaf_key) -> int:
        ids = {i for i, _ in self._spans_of(span_key)}
        return sum(agg[0] for (sid, k), agg in self.leaf_under.items() if k == leaf_key and sid in ids)

    def _cold_requests(self) -> int:
        """nc-query requests with an absolute_length call anywhere beneath."""
        cold = set()
        for (sid, key), agg in self.leaf_under.items():
            if key != "cartan.absolute_length" or not agg[0]:
                continue
            while sid is not None and self.spans[sid][0] != "cli.query_request":
                sid = self.spans[sid][3]
            if sid is not None:
                cold.add(sid)
        return len(cold)

    def metrics(self) -> dict[str, float]:
        st = self.stats
        calls = {k: v[0] for k, v in st.items()}
        busy = {k: v[1] for k, v in st.items()}
        own = {k: v[2] for k, v in st.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        enum_kept = sum(s[4] for _, s in self._spans_of("noncrossing.enumerate_nc"))
        hasse = self._spans_of("noncrossing.hasse")
        leq_in_hasse = {
            sid: agg[0] for (sid, k), agg in self.leaf_under.items() if k == "noncrossing.leq"
        }
        hasse_edges = sum(s[4] for i, s in hasse if leq_in_hasse.get(i))
        orbit_ids = {i for i, _ in self._spans_of("braid.hurwitz_orbit")}
        acts_in_orbit = sum(1 for _, s in self._spans_of("braid.braid_act") if s[3] in orbit_ids)
        new_facts = sum(s[4] for _, s in self._spans_of("braid.hurwitz_orbit"))
        thick_size = sum(s[4] for _, s in self._spans_of("thicklat.thick_lattice"))

        m = {
            "linalg.mat_mul.calls": calls["linalg.mat_mul"],
            "linalg.mat_mul.self_s": own["linalg.mat_mul"],
            "linalg.int_rank.calls": calls["linalg.int_rank"],
            "linalg.int_rank.self_s": own["linalg.int_rank"],
            "linalg.rref.calls": calls["linalg.rref"],
            "linalg.rref.self_s": own["linalg.rref"],
            "cartan.weyl_mul.calls": calls["cartan.weyl_mul"],
            "cartan.weyl_inverse.calls": calls["cartan.weyl_inverse"],
            "cartan.absolute_length.calls": calls["cartan.absolute_length"],
            "cartan.absolute_length.self_s": own["cartan.absolute_length"],
            "cartan.reflection_element.calls": calls["cartan.reflection_element"],
            "cartan.form.calls": calls["cartan.form"],
            "cartan.is_reflection.calls": calls["cartan.is_reflection"],
            "noncrossing.enumerate_nc.s": busy["noncrossing.enumerate_nc"],
            "noncrossing.enumerate_nc.yield": ratio(
                enum_kept, self._leaf_calls_under("noncrossing.enumerate_nc", "cartan.absolute_length")
            ),
            "noncrossing.hasse.s": busy["noncrossing.hasse"],
            "noncrossing.hasse.yield": ratio(hasse_edges, sum(leq_in_hasse.get(i, 0) for i, _ in hasse)),
            "noncrossing.leq.calls": calls["noncrossing.leq"],
            "noncrossing.canonical_word.s": busy["noncrossing.canonical_word"],
            "noncrossing.meet.s": busy["noncrossing.meet"],
            "noncrossing.join.s": busy["noncrossing.join"],
            "noncrossing.kreweras.s": busy["noncrossing.kreweras"],
            "noncrossing.co_kreweras.s": busy["noncrossing.co_kreweras"],
            "noncrossing.serialize.s": busy["noncrossing.to_json"] + busy["noncrossing.hasse_dot"],
            "braid.hurwitz_orbit.s": busy["braid.hurwitz_orbit"],
            "braid.braid_act.calls": calls["braid.braid_act"],
            "braid.orbit.yield": ratio(new_facts, acts_in_orbit),
            "braid.enumerate_factorizations.s": busy["braid.enumerate_factorizations"],
            "repcat.hom.calls": calls["repcat.hom"],
            "repcat.hom.self_s": own["repcat.hom"],
            "repcat.hom.unknowns": sum(s[4] for _, s in self._spans_of("repcat.hom")),
            "repcat.indecomposable_for_root.calls": calls["repcat.indecomposable_for_root"],
            "repcat.is_exceptional_sequence.calls": calls["repcat.is_exceptional_sequence"],
            "repcat.is_exceptional_sequence.s": busy["repcat.is_exceptional_sequence"],
            "repcat.ext1_dim.calls": calls["repcat.ext1_dim"],
            "thicklat.thick_lattice.s": busy["thicklat.thick_lattice"],
            "thicklat.thick_from_nc.calls": calls["thicklat.thick_from_nc"],
            "thicklat.thick_from_nc.per_element": ratio(calls["thicklat.thick_from_nc"], thick_size),
            "thicklat.thick_to_json.s": busy["thicklat.thick_to_json"],
            "thicklat.wide_subcategory_oracle.s": busy["thicklat.wide_subcategory_oracle"],
            "thicklat.kronecker_to_json.s": busy["thicklat.kronecker_to_json"],
            "thicklat.kronecker_leq.calls": calls["thicklat.kronecker_leq"],
            "derived.build_zdelta.calls": calls["derived.build_zdelta"],
            "derived.build_zdelta.s": busy["derived.build_zdelta"],
            "derived.knit_hammock.calls": calls["derived.knit_hammock"],
            "derived.knit_hammock.s": busy["derived.knit_hammock"],
            "derived.ell.calls": calls["derived.ell"],
            "derived.verify_mesh.s": busy["derived.verify_mesh"],
            "derived.hammocks_json.s": busy["derived.hammocks_json"],
            "cli.serialize.s": busy["cli.serialize"],
            "cli.query_request.cold_share": ratio(self._cold_requests(), calls["cli.query_request"]),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        m["trace.wall_s"] = self.root_s
        m["trace.unattributed_s"] = self.unattributed_s
        return m

    def write(self, path) -> None:
        """Spans as [name, start, end, parent]; leaf aggregates per span."""
        leaves = [[sid, key, n, busy] for (sid, key), (n, busy) in self.leaf_under.items()]
        with open(path, "w") as fh:
            json.dump({"spans": [s[:4] for s in self.spans], "leaves": leaves}, fh)
