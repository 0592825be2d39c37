"""Command-line front end: single evaluations, grid verification, traces.

Exit codes: 0 = all verifications passed, 1 = at least one mismatch,
2 = usage or domain error.

Verification records are line-delimited JSON.  When written to a file via
--output they carry a measured elapsed_ms field; when streamed to stdout
the field is omitted so that identical reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .closed_forms import SURFACE_TAGS, nlog_value, prop3_rhs, theorem1_rhs, theorem2_rhs
from .errors import Degenerate, PoleInDenominator, QIdentitiesError
from .hypergeom import SaalschutzInstance, phi_evaluate, saalschutz_rhs
from .laurent import ONE, LaurentPoly, RationalFunction
from .qcombo import q_binomial, q_int, qf_expand
from .sums import FSumSpec, enumerate_indices, f_enumerated, f_term, theorem1_lhs, theorem2_lhs

_STYLE = {"text": "plain", "json": "json", "latex": "latex"}


def _parse_range(text):
    """Inclusive integer range "A..B", or a single integer "A" (a config
    file may also give a JSON integer)."""
    if type(text) is int:
        return range(text, text + 1)
    if not isinstance(text, str):
        raise ValueError("expected A..B or an integer, got %r" % (text,))
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError("empty range %r" % text)
    return range(lo, hi + 1)


def _require(args, parser, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        parser.error("missing required parameter(s): %s" % ", ".join(missing))


# -- eval ------------------------------------------------------------------


def _eval_value(args, parser) -> LaurentPoly:
    kind = args.kind
    if kind == "qbinom":
        _require(args, parser, ["n", "k"])
        return q_binomial(args.n, args.k)
    if kind == "qint":
        _require(args, parser, ["alpha"])
        return qf_expand(q_int(args.alpha))
    if kind == "f":
        _require(args, parser, ["D", "d1", "k0"])
        return f_enumerated(FSumSpec(args.D, args.d1, args.k0))
    if kind == "nlog":
        _require(args, parser, ["surface", "p", "r"])
        return nlog_value(args.surface, args.p, args.r)
    # lhs / rhs dispatch on --identity
    _require(args, parser, ["identity"])
    ident = args.identity
    if ident == "thm1":
        _require(args, parser, ["d0", "d1"])
        fn = theorem1_lhs if kind == "lhs" else theorem1_rhs
        return fn(args.d0, args.d1)
    if ident == "thm2":
        _require(args, parser, ["d1", "d2"])
        fn = theorem2_lhs if kind == "lhs" else theorem2_rhs
        return fn(args.d1, args.d2)
    if ident == "prop3":
        _require(args, parser, ["D", "d1", "k0"])
        if kind == "lhs":
            return f_enumerated(FSumSpec(args.D, args.d1, args.k0))
        return prop3_rhs(args.D, args.d1, args.k0)
    parser.error("identity must be thm1, thm2, or prop3 for eval")


def _cmd_eval(args, parser) -> int:
    value = _eval_value(args, parser)
    print(value.render(_STYLE[args.format]))
    return 0


# -- verify ----------------------------------------------------------------


def _run_cell(cell):
    """Compute one grid cell.  Top-level so it pickles for worker pools.

    cell = (identity, params-dict, corrupt-flag).  Returns a record dict,
    or None for a degenerate cell.  An ArithmeticError (two internal code
    paths disagreeing) gives a failed record carrying the message under
    "error", with null lhs and rhs.
    """
    identity, params, corrupt = cell
    start = time.perf_counter()
    try:
        if identity == "thm1":
            lhs = theorem1_lhs(params["d0"], params["d1"])
            rhs = theorem1_rhs(params["d0"], params["d1"])
        elif identity == "thm2":
            lhs = theorem2_lhs(params["d1"], params["d2"])
            rhs = theorem2_rhs(params["d1"], params["d2"])
        elif identity == "prop3":
            lhs = f_enumerated(FSumSpec(params["D"], params["d1"], params["k0"]))
            rhs = prop3_rhs(params["D"], params["d1"], params["k0"])
        else:
            inst = SaalschutzInstance(params["a"], params["b"], params["c"], params["N"])
            lhs = phi_evaluate(inst.lhs_series())
            rhs = saalschutz_rhs(inst)
    except (Degenerate, PoleInDenominator):
        # a lower-parameter Pochhammer symbol vanishes in range: the series
        # is undefined there, so the cell is degenerate rather than failed
        return None
    except ArithmeticError as exc:
        # two internal code paths disagreed: a failed cell, not a crash
        return {
            "identity": identity,
            "params": params,
            "lhs": None,
            "rhs": None,
            "equal": False,
            "error": "%s: %s" % (type(exc).__name__, exc),
            "elapsed_ms": int((time.perf_counter() - start) * 1000),
        }
    if corrupt:
        if isinstance(lhs, RationalFunction):
            lhs = RationalFunction(lhs.num + lhs.den, lhs.den)
        else:
            lhs = lhs + ONE
    if isinstance(lhs, RationalFunction):
        equal = lhs == rhs
        lhs_json = lhs.to_json_obj()
        rhs_json = rhs.to_json_obj()
    else:
        equal = lhs == rhs
        lhs_json = lhs.to_pairs()
        rhs_json = rhs.to_pairs()
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return {
        "identity": identity,
        "params": params,
        "lhs": lhs_json,
        "rhs": rhs_json,
        "equal": equal,
        "elapsed_ms": elapsed_ms,
    }


def _grid_cells(args, parser):
    """The cell list for the requested identity, in canonical parameter
    order.  Cells outside an identity's hypothesis are skipped up front
    and counted as degenerate."""
    ident = args.identity
    skipped = 0
    cells = []

    def ranges(*names):
        out = []
        for n in names:
            if getattr(args, n) is None:
                parser.error("verify --identity %s needs --%s A..B" % (ident, n))
            try:
                out.append(_parse_range(getattr(args, n)))
            except ValueError as exc:
                parser.error(str(exc))
        return out

    if ident == "thm1":
        (r0, r1) = ranges("d0", "d1")
        for d0 in r0:
            for d1 in r1:
                if d0 > d1 >= 1:
                    cells.append(("thm1", {"d0": d0, "d1": d1}))
                else:
                    skipped += 1
    elif ident == "thm2":
        (r1, r2) = ranges("d1", "d2")
        for d1 in r1:
            for d2 in r2:
                if d1 >= 1 and d2 >= 1:
                    cells.append(("thm2", {"d1": d1, "d2": d2}))
                else:
                    skipped += 1
    elif ident == "prop3":
        (rD, r1, r0) = ranges("D", "d1", "k0")
        for D in rD:
            for d1 in r1:
                for k0 in r0:
                    if D >= 1 and 1 <= k0 <= d1:
                        cells.append(("prop3", {"D": D, "d1": d1, "k0": k0}))
                    else:
                        skipped += 1
    elif ident == "saalschutz":
        (ra, rb, rc, rN) = ranges("a", "b", "c", "N")
        for a in ra:
            for b in rb:
                for c in rc:
                    for N in rN:
                        if N >= 0:
                            cells.append(
                                ("saalschutz", {"a": a, "b": b, "c": c, "N": N})
                            )
                        else:
                            skipped += 1
    else:
        parser.error("unknown identity %r" % ident)
    return cells, skipped


def _cmd_verify(args, parser) -> int:
    cells, skipped = _grid_cells(args, parser)
    work = [
        (ident, params, args.selftest_corrupt and i == 0)
        for i, (ident, params) in enumerate(cells)
    ]
    if args.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_cell, work, chunksize=16))
    else:
        results = [_run_cell(cell) for cell in work]

    out = open(args.output, "w") if args.output else sys.stdout
    timing = args.output is not None
    npass = nfail = 0
    ndegen = skipped
    try:
        for record in results:
            if record is None:
                ndegen += 1
                continue
            if record["equal"]:
                npass += 1
            else:
                nfail += 1
            if not timing:
                record = {k: v for k, v in record.items() if k != "elapsed_ms"}
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
        summary = {"pass": npass, "fail": nfail, "degenerate": ndegen}
        out.write(json.dumps(summary, separators=(",", ":")) + "\n")
    finally:
        if args.output:
            out.close()
    if args.output:
        print(json.dumps(summary, separators=(",", ":")))
    return 1 if nfail else 0


# -- explain ---------------------------------------------------------------


def _explain_terms(args, parser):
    """(label-dict, term) pairs for the requested identity instance."""
    ident = args.identity
    if ident == "prop3":
        _require(args, parser, ["D", "d1", "k0"])
        for idx in enumerate_indices(args.d1, args.k0):
            yield idx.to_json_obj(), f_term(args.D, idx)
    elif ident == "thm1":
        _require(args, parser, ["d0", "d1"])
        if not args.d0 > args.d1 >= 1:
            parser.error("thm1 requires d0 > d1 >= 1")
        for idx in enumerate_indices(args.d0 - args.d1):
            k0 = args.d1 - idx.mult_sum()
            if k0 < 0:
                continue
            label = {"k0": k0, **idx.to_json_obj()}
            yield label, f_term(2 * args.d0, idx) * q_binomial(2 * args.d1, k0)
    elif ident == "thm2":
        _require(args, parser, ["d1", "d2"])
        if args.d1 < 1 or args.d2 < 1:
            parser.error("thm2 requires d1 >= 1 and d2 >= 1")
        D = 2 * args.d1 + args.d2
        for idx in enumerate_indices(args.d1):
            yield idx.to_json_obj(), f_term(D, idx) * q_binomial(
                args.d2, idx.mult_sum()
            )
    else:
        parser.error("explain supports thm1, thm2, and prop3")


def _cmd_explain(args, parser) -> int:
    total = LaurentPoly()
    for label, term in _explain_terms(args, parser):
        total = total + term
        print("%s\t%s" % (json.dumps(label, separators=(",", ":")), term.render("plain")))
    print("total\t%s" % total.render("plain"))
    return 0


# -- entry point -------------------------------------------------------------


def _add_param_flags(p):
    for name in ("n", "k", "alpha", "D", "d0", "d1", "d2", "k0", "p", "r", "N"):
        p.add_argument("--%s" % name, type=int, default=None)
    p.add_argument("--surface", choices=SURFACE_TAGS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact evaluation and verification of q-binomial identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly")
    p_eval.add_argument(
        "--kind", required=True, choices=["qbinom", "qint", "f", "lhs", "rhs", "nlog"]
    )
    p_eval.add_argument("--identity", choices=["thm1", "thm2", "prop3"], default=None)
    p_eval.add_argument("--format", choices=sorted(_STYLE), default="text")
    _add_param_flags(p_eval)

    p_verify = sub.add_parser("verify", help="verify an identity over a parameter grid")
    p_verify.add_argument(
        "--identity", required=True, choices=["thm1", "thm2", "prop3", "saalschutz"]
    )
    for name in ("d0", "d1", "d2", "D", "k0", "a", "b", "c", "N"):
        p_verify.add_argument("--%s" % name, default=None, metavar="A..B")
    p_verify.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default 1)"
    )
    p_verify.add_argument("--output", default=None, metavar="FILE")
    p_verify.add_argument("--config", default=None, metavar="FILE")
    p_verify.add_argument(
        "--selftest-corrupt",
        action="store_true",
        help="perturb one side of the first cell; the run must then fail",
    )

    p_explain = sub.add_parser("explain", help="list each summand of an identity LHS")
    p_explain.add_argument(
        "--identity", required=True, choices=["thm1", "thm2", "prop3"]
    )
    _add_param_flags(p_explain)
    return parser


def _apply_config(args, parser):
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error("cannot read config file: %s" % exc)
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and getattr(args, attr) in (None, False):
                setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    try:
        if args.command == "eval":
            return _cmd_eval(args, parser)
        if args.command == "verify":
            if args.jobs is None:
                args.jobs = 1
            if type(args.jobs) is not int or args.jobs < 1:
                parser.error("--jobs must be an integer >= 1, got %r" % (args.jobs,))
            return _cmd_verify(args, parser)
        return _cmd_explain(args, parser)
    except QIdentitiesError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
