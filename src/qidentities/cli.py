"""Command-line front end: single evaluations, grid verification, traces.

Every identity the tool checks is one entry of IDENTITIES: its parameter
names (flag, grid-axis and JSON-key order), its hypothesis, both sides, and
the summands that explain lists.  eval, verify and explain all dispatch
through that registry, so adding an identity is one entry.

Exit codes: 0 = all verifications passed, 1 = at least one mismatch,
2 = usage or domain error.  A usage error found after parsing, such as an
--output file that cannot be opened, prints the subcommand's own usage
line; a domain error or a library ValueError prints one line on stderr.

Verification records are line-delimited JSON, written in cell order as the
cells finish and then a summary line, so no list of records is kept and an
interrupted run keeps the records it wrote.  Records written to a file via
--output carry a measured elapsed_ms field; on stdout it is omitted so
that identical reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple

from .closed_forms import SURFACE_TAGS, nlog_value, prop3_rhs, theorem1_rhs, theorem2_rhs
from .errors import Degenerate, PoleInDenominator, QIdentitiesError
from .hypergeom import SaalschutzInstance, phi_evaluate, saalschutz_rhs
from .laurent import ONE, LaurentPoly, RationalFunction
from .qcombo import q_binomial, q_int, qf_expand
from .sums import (
    FSumSpec,
    enumerate_indices,
    f_enumerated,
    f_term,
    theorem1_lhs,
    theorem1_terms,
    theorem2_lhs,
    theorem2_terms,
)

_STYLE = {"text": "plain", "json": "json", "latex": "latex"}


class Identity(NamedTuple):
    """One registry entry.  holds, lhs, rhs and terms take the parameter
    values in params order.  holds is the hypothesis, used only to skip
    grid cells up front; terms yields explain's (label, summand) pairs, or
    is None when explain does not support the identity."""

    params: tuple
    holds: Callable
    lhs: Callable
    rhs: Callable
    terms: Callable | None = None


def _prop3_terms(D, d1, k0):
    for idx in enumerate_indices(d1, k0):
        yield idx.to_json_obj(), f_term(D, idx)


# The entries look the library functions up in this module's globals at
# call time, so patching e.g. cli.theorem2_lhs (as a tracer or a test does)
# reaches every subcommand.
IDENTITIES = {
    "thm1": Identity(
        ("d0", "d1"),
        holds=lambda d0, d1: d0 > d1 >= 1,
        lhs=lambda d0, d1: theorem1_lhs(d0, d1),
        rhs=lambda d0, d1: theorem1_rhs(d0, d1),
        terms=lambda d0, d1: theorem1_terms(d0, d1),
    ),
    "thm2": Identity(
        ("d1", "d2"),
        holds=lambda d1, d2: d1 >= 1 and d2 >= 1,
        lhs=lambda d1, d2: theorem2_lhs(d1, d2),
        rhs=lambda d1, d2: theorem2_rhs(d1, d2),
        terms=lambda d1, d2: theorem2_terms(d1, d2),
    ),
    "prop3": Identity(
        ("D", "d1", "k0"),
        holds=lambda D, d1, k0: D >= 1 and 1 <= k0 <= d1,
        lhs=lambda D, d1, k0: f_enumerated(FSumSpec(D, d1, k0)),
        rhs=lambda D, d1, k0: prop3_rhs(D, d1, k0),
        terms=_prop3_terms,
    ),
    "saalschutz": Identity(
        ("a", "b", "c", "N"),
        holds=lambda a, b, c, N: N >= 0,
        lhs=lambda a, b, c, N: phi_evaluate(SaalschutzInstance(a, b, c, N).lhs_series()),
        rhs=lambda a, b, c, N: saalschutz_rhs(SaalschutzInstance(a, b, c, N)),
    ),
}


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
    """The values of the named flags, in order; a usage error if any is
    missing."""
    values = [getattr(args, n) for n in names]
    missing = [n for n, v in zip(names, values) if v is None]
    if missing:
        parser.error("missing required parameter(s): %s" % ", ".join(missing))
    return values


# -- eval ------------------------------------------------------------------


def _eval_value(args, parser) -> LaurentPoly:
    kind = args.kind
    if kind == "qbinom":
        return q_binomial(*_require(args, parser, ["n", "k"]))
    if kind == "qint":
        return qf_expand(q_int(*_require(args, parser, ["alpha"])))
    if kind == "f":
        return f_enumerated(FSumSpec(*_require(args, parser, ["D", "d1", "k0"])))
    if kind == "nlog":
        return nlog_value(*_require(args, parser, ["surface", "p", "r"]))
    # lhs / rhs of the identity named by --identity
    (name,) = _require(args, parser, ["identity"])
    ident = IDENTITIES[name]
    side = ident.lhs if kind == "lhs" else ident.rhs
    return side(*_require(args, parser, ident.params))


def _cmd_eval(args, parser) -> int:
    value = _eval_value(args, parser)
    print(value.render(_STYLE[args.format]))
    return 0


# -- verify ----------------------------------------------------------------


def _run_cell(cell):
    """Compute one grid cell.  Top-level so it pickles for worker pools.

    cell = (identity, params-dict, corrupt-flag, timing-flag).  Returns the
    cell's record in its final form, or None for a degenerate cell.  An
    ArithmeticError (two internal code paths disagreeing) gives a failed
    record carrying the message under "error", with null lhs and rhs.  The
    measured elapsed_ms is added only when the timing flag is set.
    """
    identity, params, corrupt, timing = cell
    ident = IDENTITIES[identity]
    start = time.perf_counter()
    record = {"identity": identity, "params": params}
    try:
        lhs = ident.lhs(*params.values())
        rhs = ident.rhs(*params.values())
    except (Degenerate, PoleInDenominator):
        # a lower-parameter Pochhammer symbol vanishes in range: the series
        # is undefined there, so the cell is degenerate rather than failed
        return None
    except ArithmeticError as exc:
        # two internal code paths disagreed: a failed cell, not a crash
        error = "%s: %s" % (type(exc).__name__, exc)
        record.update(lhs=None, rhs=None, equal=False, error=error)
    else:
        rational = isinstance(lhs, RationalFunction)
        if corrupt:
            lhs = RationalFunction(lhs.num + lhs.den, lhs.den) if rational else lhs + ONE
        equal = lhs == rhs
        if rational:
            record.update(lhs=lhs.to_json_obj(), rhs=rhs.to_json_obj())
        else:
            record.update(lhs=lhs.to_pairs(), rhs=rhs.to_pairs())
        record["equal"] = equal
    if timing:
        record["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    return record


def _grid_cells(args, parser):
    """The params dicts of the requested identity's grid, in canonical
    order (the last parameter varies fastest).  Cells outside the
    identity's hypothesis are skipped up front and counted as degenerate."""
    ident = IDENTITIES[args.identity]
    ranges = []
    for name in ident.params:
        if getattr(args, name) is None:
            parser.error("verify --identity %s needs --%s A..B" % (args.identity, name))
        try:
            ranges.append(_parse_range(getattr(args, name)))
        except ValueError as exc:
            parser.error(str(exc))
    cells = []
    skipped = 0
    for values in itertools.product(*ranges):
        if ident.holds(*values):
            cells.append(dict(zip(ident.params, values)))
        else:
            skipped += 1
    return cells, skipped


def _cmd_verify(args, parser) -> int:
    if args.jobs is None:
        args.jobs = 1
    if type(args.jobs) is not int or args.jobs < 1:
        parser.error("--jobs must be an integer >= 1, got %r" % (args.jobs,))
    cells, skipped = _grid_cells(args, parser)
    timing = args.output is not None
    work = [
        (args.identity, params, args.selftest_corrupt and i == 0, timing)
        for i, params in enumerate(cells)
    ]
    workers = min(args.jobs, os.cpu_count() or 1, len(work))
    tally = {"pass": 0, "fail": 0, "degenerate": skipped}
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if timing:
            try:
                out = stack.enter_context(open(args.output, "w"))
            except OSError as exc:
                parser.error("cannot open output file: %s" % exc)
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            records = pool.map(_run_cell, work, chunksize=16)
        else:
            records = map(_run_cell, work)
        # Executor.map yields in submission order, so stdout is independent
        # of --jobs
        for record in records:
            if record is None:
                tally["degenerate"] += 1
                continue
            tally["pass" if record["equal"] else "fail"] += 1
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
        summary = json.dumps(tally, separators=(",", ":"))
        out.write(summary + "\n")
    if timing:
        print(summary)
    return 1 if tally["fail"] else 0


# -- explain ---------------------------------------------------------------


def _cmd_explain(args, parser) -> int:
    """One label/summand line per term of the identity's left-hand side,
    then their total."""
    ident = IDENTITIES[args.identity]
    total = LaurentPoly()
    for label, term in ident.terms(*_require(args, parser, ident.params)):
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
    with_terms = [name for name, ident in IDENTITIES.items() if ident.terms]

    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly")
    p_eval.add_argument(
        "--kind", required=True, choices=["qbinom", "qint", "f", "lhs", "rhs", "nlog"]
    )
    p_eval.add_argument("--identity", choices=with_terms, default=None)
    p_eval.add_argument("--format", choices=sorted(_STYLE), default="text")
    _add_param_flags(p_eval)

    p_verify = sub.add_parser("verify", help="verify an identity over a parameter grid")
    p_verify.add_argument("--identity", required=True, choices=list(IDENTITIES))
    for name in dict.fromkeys(p for ident in IDENTITIES.values() for p in ident.params):
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
    p_explain.add_argument("--identity", required=True, choices=with_terms)
    _add_param_flags(p_explain)

    # post-parse usage errors are reported against the subcommand's parser
    p_eval.set_defaults(run=_cmd_eval, subparser=p_eval)
    p_verify.set_defaults(run=_cmd_verify, subparser=p_verify)
    p_explain.set_defaults(run=_cmd_explain, subparser=p_explain)
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
    args = build_parser().parse_args(argv)
    _apply_config(args, args.subparser)
    try:
        return args.run(args, args.subparser)
    except (QIdentitiesError, ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
