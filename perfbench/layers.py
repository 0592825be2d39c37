"""Per-layer trace of one ``qident verify`` run, taken from outside ``src/``.

The layers are the package modules: laurent, qcombo, sums, hypergeom,
closed_forms and cli.  ``install`` wraps their public functions at the names
their callers look up (modules import by name, so e.g.
``qidentities.cli.phi_evaluate`` is replaced, not only the defining module's
global) and patches ``LaurentPoly``/``RationalFunction`` methods on the
class.  Each wrapped call records one span (name, start, end, parent span,
grid cell) in memory; the spans are written out once the run has ended.

Run as a script it executes ``qidentities.cli.main`` in-process with stdout
captured and prints one JSON object describing the run:

    PYTHONPATH=src python3 perfbench/layers.py --wrap 1 --spans OUT \\
        verify --identity thm2 --d1=1..3 --d2=1..2
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
import types
from array import array

# Operand sizes (len(a) * len(b) term products) that split multiplies into
# the small / medium / large buckets.
MUL_SMALL = 256
MUL_MEDIUM = 16384

# (span name, module defining the function, function name, modules whose
# global of that name is replaced).  A site missing from the program is
# skipped and reported, so a refactor shows up as lost coverage rather than
# a crash.
FUNCTIONS = [
    ("qcombo.qf_expand", "qcombo", "qf_expand", ("qcombo", "hypergeom", "cli")),
    ("qcombo.qf_to_rational", "qcombo", "qf_to_rational", ("qcombo", "hypergeom")),
    ("qcombo.qf_expand_ratio", "qcombo", "qf_expand_ratio", ("qcombo", "closed_forms")),
    ("qcombo.q_binomial", "qcombo", "q_binomial", ("sums", "cli")),
    ("qcombo.q_binomial", "qcombo", "q_binomial_signed", ("sums",)),
    ("sums.enumerate_indices", "sums", "enumerate_indices", ("sums", "cli")),
    ("sums.f_term", "sums", "f_term", ("sums", "cli")),
    ("sums.f_enumerated", "sums", "f_enumerated", ("sums", "cli")),
    ("sums.lhs", "sums", "theorem1_lhs", ("cli",)),
    ("sums.lhs", "sums", "theorem2_lhs", ("cli",)),
    ("hypergeom.phi_evaluate", "hypergeom", "phi_evaluate", ("hypergeom", "cli")),
    ("hypergeom.saalschutz_rhs", "hypergeom", "saalschutz_rhs", ("hypergeom", "cli")),
    ("closed_forms.rhs", "closed_forms", "theorem1_rhs", ("closed_forms", "cli")),
    ("closed_forms.rhs", "closed_forms", "theorem2_rhs", ("closed_forms", "cli")),
    ("closed_forms.rhs", "closed_forms", "prop3_rhs", ("cli",)),
    ("cli.cell", "cli", "_run_cell", ("cli",)),
]

# (span name, class in qidentities.laurent, method name)
METHODS = [
    ("laurent.add", "LaurentPoly", "__add__"),
    ("laurent.exact_div", "LaurentPoly", "exact_div"),
    ("laurent.to_pairs", "LaurentPoly", "to_pairs"),
    ("laurent.to_json_obj", "RationalFunction", "to_json_obj"),
    ("laurent.rf_eq", "RationalFunction", "__eq__"),
]

MUL_SPANS = ("laurent.mul.small", "laurent.mul.medium", "laurent.mul.large")
EXPAND_SPANS = ("qcombo.qf_expand", "qcombo.qf_to_rational", "qcombo.qf_expand_ratio")
ENCODE_SPANS = ("laurent.to_pairs", "laurent.to_json_obj", "cli.json_dumps")


class Tracer:
    """In-memory span store.  Spans are indexed by their open order."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.cell = array("l")
        self.stack = []
        self.current_cell = -1
        self.next_cell = 0
        self.counts = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, nid, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named by nid."""
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cell.append(self.current_cell)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = self.clock()
            self.stack.pop()

    def wrap(self, name, fn, after=None):
        """fn traced as span `name`; after(tracer, args, result) runs on
        each successful return."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            result = self.call(nid, fn, args, kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def wrap_mul(self, fn):
        """LaurentPoly.__mul__, bucketed by term products len(a) * len(b)."""
        small, medium, large = (self.name_id(n) for n in MUL_SPANS)

        def mul(a, b):
            n = len(a.terms) * len(b.terms)
            self.count("laurent.mul.term_products", n)
            nid = small if n < MUL_SMALL else medium if n < MUL_MEDIUM else large
            return self.call(nid, fn, (a, b), {})

        return mul

    def wrap_cell(self, fn):
        """cli._run_cell: every span inside carries the cell's index."""
        nid = self.name_id("cli.cell")

        def run_cell(*args, **kwargs):
            self.current_cell = self.next_cell
            self.next_cell += 1
            try:
                return self.call(nid, fn, args, kwargs)
            finally:
                self.current_cell = -1

        return run_cell

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        covered = [0] * len(self.end)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(self.end))]

    def spans_named(self, names):
        ids = {self._ids[n] for n in names if n in self._ids}
        return [i for i, nid in enumerate(self.name) if nid in ids]

    def total_ns(self, names):
        """Wall time covered by spans of the group: the durations of group
        spans that have no ancestor in the group, so nesting and recursion
        are not counted twice."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0
        for i in self.spans_named(names):
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def self_ns(self, names, self_times):
        return sum(self_times[i] for i in self.spans_named(names))

    def write(self, path):
        """Spans as raw arrays in <path>.bin plus a JSON header <path>.json."""
        fields = ("name", "start", "end", "parent", "cell")
        with open(path + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "names": self.names,
            "count": len(self.end),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "time_unit": "ns",
            "counts": self.counts,
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh, indent=1)


def _count_indices(tracer, args, result):
    tracer.count("sums.indices", len(result))


def _count_fraction(tracer, args, result):
    tracer.count("hypergeom.lhs_fraction_terms", len(result.num.terms) + len(result.den.terms))


AFTER = {
    "sums.enumerate_indices": _count_indices,
    "hypergeom.phi_evaluate": _count_fraction,
}


def install(tracer):
    """Wrap every layer boundary.  Returns (undo, missing): undo() restores
    the originals; missing lists the sites the program does not have."""
    import qidentities.cli
    import qidentities.closed_forms
    import qidentities.hypergeom
    import qidentities.laurent
    import qidentities.qcombo
    import qidentities.sums

    mods = {m.__name__.rsplit(".", 1)[1]: m for m in (
        qidentities.cli, qidentities.closed_forms, qidentities.hypergeom,
        qidentities.laurent, qidentities.qcombo, qidentities.sums)}
    saved = []
    missing = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for span, home, attr, sites in FUNCTIONS:
        fn = getattr(mods[home], attr, None)
        if fn is None:
            missing.append("%s.%s" % (home, attr))
            continue
        if attr == "_run_cell":
            traced = tracer.wrap_cell(fn)
        else:
            traced = tracer.wrap(span, fn, AFTER.get(span))
        for site in sites:
            if getattr(mods[site], attr, None) is fn:
                patch(mods[site], attr, traced)
            else:
                missing.append("%s.%s" % (site, attr))
    for span, cls_name, attr in METHODS:
        cls = getattr(mods["laurent"], cls_name)
        if attr in cls.__dict__:
            patch(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
        else:
            missing.append("%s.%s" % (cls_name, attr))
    lp = mods["laurent"].LaurentPoly
    patch(lp, "__mul__", tracer.wrap_mul(lp.__dict__["__mul__"]))
    # cli calls json.dumps through its own module global; give it a copy
    # of the json module whose dumps is traced.
    cli = mods["cli"]
    if isinstance(getattr(cli, "json", None), types.ModuleType):
        proxy = types.ModuleType("json")
        proxy.__dict__.update(cli.json.__dict__)
        proxy.dumps = tracer.wrap("cli.json_dumps", cli.json.dumps)
        patch(cli, "json", proxy)
    else:
        missing.append("cli.json")

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing


def _cache_metrics(fn, label):
    info = fn.cache_info()
    calls = info.hits + info.misses
    return {
        label + ".hit_ratio": (info.hits / calls if calls else 0.0, "ratio"),
        label + ".misses": (info.misses, "count"),
    }


def layer_metrics(tracer, wall_s):
    """Per-layer metrics {name: (value, unit)} from the spans and counts."""
    import qidentities.qcombo as qcombo

    st = tracer.self_times()

    def self_s(*names):
        return (tracer.self_ns(names, st) * 1e-9, "s")

    def total_s(*names):
        return (tracer.total_ns(names) * 1e-9, "s")

    def calls(*names):
        return (len(tracer.spans_named(names)), "count")

    def count(key):
        return (tracer.counts.get(key, 0), "count")

    # one qf_to_rational call per series term summed in phi_evaluate
    phi_id = tracer._ids.get("hypergeom.phi_evaluate")
    series_terms = sum(
        1
        for i in tracer.spans_named(["qcombo.qf_to_rational"])
        if tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == phi_id
    )
    encode = total_s(*ENCODE_SPANS)
    m = {
        "laurent.mul.calls": calls(*MUL_SPANS),
        "laurent.mul.self_s": self_s(*MUL_SPANS),
        "laurent.mul.term_products": count("laurent.mul.term_products"),
    }
    for name in MUL_SPANS:
        m[name + ".self_s"] = self_s(name)
    m.update({
        "laurent.rf_eq.total_s": total_s("laurent.rf_eq"),
        "laurent.exact_div.calls": calls("laurent.exact_div"),
        "laurent.exact_div.self_s": self_s("laurent.exact_div"),
        "laurent.add.self_s": self_s("laurent.add"),
        "laurent.to_pairs.self_s": self_s("laurent.to_pairs"),
        "qcombo.expand.calls": calls(*EXPAND_SPANS),
        "qcombo.expand.self_s": self_s(*EXPAND_SPANS),
        "qcombo.q_binomial.total_s": total_s("qcombo.q_binomial"),
    })
    m.update(_cache_metrics(qcombo.q_binomial, "qcombo.q_binomial"))
    m.update(_cache_metrics(qcombo.q_binomial_signed, "qcombo.q_binomial_signed"))
    m.update({
        "sums.indices": count("sums.indices"),
        "sums.enumerate_indices.self_s": self_s("sums.enumerate_indices"),
        "sums.f_term.calls": calls("sums.f_term"),
        "sums.f_term.total_s": total_s("sums.f_term"),
        "sums.f_enumerated.total_s": total_s("sums.f_enumerated"),
        "sums.lhs.total_s": total_s("sums.lhs"),
        "hypergeom.phi_evaluate.total_s": total_s("hypergeom.phi_evaluate"),
        "hypergeom.phi_evaluate.self_s": self_s("hypergeom.phi_evaluate"),
        "hypergeom.series_terms": (series_terms, "count"),
        "hypergeom.lhs_fraction_terms": count("hypergeom.lhs_fraction_terms"),
        "hypergeom.saalschutz_rhs.total_s": total_s("hypergeom.saalschutz_rhs"),
        "closed_forms.rhs.calls": calls("closed_forms.rhs"),
        "closed_forms.rhs.total_s": total_s("closed_forms.rhs"),
        "cli.cell.total_s": total_s("cli.cell"),
        "cli.encode.total_s": encode,
        "cli.encode.share": (encode[0] / wall_s, "ratio"),
        "trace.spans": (len(tracer.end), "count"),
        "trace.wall_s": (wall_s, "s"),
    })
    return m


def run_cli(argv, tracer=None):
    """qidentities.cli.main(argv) in-process, caches cold, stdout captured.

    Returns (exit code, wall seconds, stdout bytes, missing sites)."""
    import qidentities.cli
    import qidentities.qcombo as qcombo

    qcombo.q_binomial.cache_clear()
    qcombo.q_binomial_signed.cache_clear()
    undo, missing = install(tracer) if tracer is not None else (lambda: None, [])
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = qidentities.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crash in the program is a failed run, reported by the
                # caller's correctness check, not a crash of the benchmark
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
    finally:
        undo()
    return code, wall, buf.getvalue().encode(), missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wrap", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="write spans to SPANS.bin/.json")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = Tracer() if args.wrap else None
    code, wall, out, missing = run_cli(args.cli_argv, tracer)
    lines = out.rstrip(b"\n").rsplit(b"\n", 1)
    result = {
        "exit": code,
        "wall_s": wall,
        "sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
        "last_line": lines[-1].decode(errors="replace"),
        "missing_sites": missing,
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, wall)
        metrics["cli.stdout_bytes"] = (len(out), "bytes")
        metrics["trace.missing_sites"] = (len(missing), "count")
        result["metrics"] = metrics
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
