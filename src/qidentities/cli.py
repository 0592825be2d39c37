"""Command-line front end: single evaluations, grid verification, traces.

Every identity the tool checks is one entry of IDENTITIES: its parameter
names (flag, grid-axis and JSON-key order), its hypothesis, both sides, and
the summands that explain lists.  eval, verify and explain all dispatch
through that registry, so adding an identity is one entry.

Exit codes: 0 = no cell failed, 1 = at least one cell failed (a mismatch
or an internal disagreement; with --selftest-corrupt, the perturbed first
non-degenerate cell, so only a grid with none exits 0), 2 = usage or
domain error, a worker process that died, or from run() a failed write
(such as a full disk), and from run() 141 = the reader closed stdout.
A usage error found after parsing, such as an --output file that cannot
be opened, a flag the subcommand does not take, or a parameter flag that
the chosen --kind or --identity does not read, prints the subcommand's own
usage line; a domain error, a library ValueError, an OverflowError (a huge
exponent), a MemoryError (an exponent or count too large to expand in
memory) or a BrokenProcessPool (a worker process died) prints one line on
stderr.

Verification records are line-delimited JSON, written in cell order as the
cells finish and then a summary line.  The cells are generated as they run,
so no list of cells or of records is kept, and an interrupted run keeps the
records it wrote.  Records written to a file via
--output carry a measured elapsed_ms field; on stdout it is omitted so
that identical reruns are byte-identical.

The qident console script and python -m qidentities.cli call run(), not
main(): once main() has returned, run() moves every live object into the
collector's permanent generation (gc.freeze), so the collections the
interpreter makes at exit do not traverse the caches and values the run
built; the process is ending, and nothing there needs collecting.  main()
itself never freezes, so calling it in process, as the tests do, leaves
the collector as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

from .closed_forms import SURFACE_TAGS, nlog_value, prop3_rhs, theorem1_rhs, theorem2_rhs
from .errors import Degenerate, InvalidHypothesis, NotDivisible, QIdentitiesError
from .hypergeom import SaalschutzInstance, phi_evaluate, saalschutz_rhs
from .laurent import ONE, LaurentPoly, RationalFunction
from .qcombo import q_binomial, q_int, qf_expand
from .sums import (
    FSumSpec,
    enumerate_indices,
    f_enumerated,
    f_term,
    prop3_lhs,
    theorem1_lhs,
    theorem1_terms,
    theorem2_lhs,
    theorem2_terms,
)

_STYLE = {"text": "plain", "json": "json", "latex": "latex"}


class Identity(NamedTuple):
    """One registry entry.  holds, lhs, rhs and terms take the parameter
    values in params order.  holds is the hypothesis, checked by each grid
    cell before it computes either side and used to reject eval of either
    side outside it; terms yields explain's (label, summand) pairs, or is
    None when explain does not support the identity."""

    params: tuple
    holds: Callable
    lhs: Callable
    rhs: Callable
    terms: Callable | None = None


def _prop3_terms(D, d1, k0):
    # the refined sum's own domain check, the one eval --kind f makes
    spec = FSumSpec(D, d1, k0)
    for idx in enumerate_indices(spec.d1, spec.k0):
        yield idx.to_json_obj(), f_term(spec.D, idx)


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
        lhs=lambda D, d1, k0: prop3_lhs(D, d1, k0),
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


# The eval kinds other than lhs and rhs: the parameter flags each reads,
# in argument order, and the value they name.  Like IDENTITIES, the
# functions are looked up in this module's globals at call time.
_KINDS = {
    "qbinom": (("n", "k"), lambda n, k: q_binomial(n, k)),
    "qint": (("alpha",), lambda alpha: qf_expand(q_int(alpha))),
    "f": (("D", "d1", "k0"), lambda D, d1, k0: f_enumerated(FSumSpec(D, d1, k0))),
    "nlog": (("surface", "p", "r"), lambda surface, p, r: nlog_value(surface, p, r)),
}


def _parse_range(text):
    """Inclusive integer range "A..B", or a single integer "A" (a config
    file may also give a JSON integer)."""
    if type(text) is int:
        return range(text, text + 1)
    try:
        lo, sep, hi = text.partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
    except (AttributeError, ValueError):
        # not a string, or an end that is not an integer
        raise ValueError("expected A..B or an integer, got %r" % (text,)) from None
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


def _reject_unread(args, parser, read, chosen):
    """A usage error if a parameter flag of the subcommand that is not in
    `read` was given: the chosen kind or identity would ignore it."""
    unread = [
        "--" + p for p in args.param_flags if p not in read and getattr(args, p) is not None
    ]
    if unread:
        parser.error("%s does not read %s" % (chosen, ", ".join(unread)))


# -- eval ------------------------------------------------------------------


def _eval_value(args, parser) -> LaurentPoly:
    kind = args.kind
    if kind in _KINDS:
        names, value = _KINDS[kind]
        _reject_unread(args, parser, names, "--kind " + kind)
        return value(*_require(args, parser, names))
    # lhs / rhs of the identity named by --identity
    (name,) = _require(args, parser, ["identity"])
    ident = IDENTITIES[name]
    _reject_unread(
        args, parser, ("identity", *ident.params), "--kind %s --identity %s" % (kind, name)
    )
    values = _require(args, parser, ident.params)
    if not ident.holds(*values):
        raise InvalidHypothesis(
            "outside the %s hypothesis: %s"
            % (name, ", ".join("%s=%d" % p for p in zip(ident.params, values)))
        )
    side = ident.lhs if kind == "lhs" else ident.rhs
    return side(*values)


def _cmd_eval(args, parser) -> int:
    value = _eval_value(args, parser)
    print(value.render(_STYLE[args.format]))
    return 0


# -- verify ----------------------------------------------------------------


def _run_cell(cell, corrupt=False):
    """Compute one grid cell.  Top-level so it pickles for worker pools.

    cell = (identity, params-dict, timing-flag).  Returns the cell's
    record in its final form, or None for a cell that is not checked: one
    outside the identity's hypothesis, or a degenerate one.  With corrupt
    the left-hand side is perturbed before the comparison, for
    --selftest-corrupt.  An ArithmeticError (two internal code paths
    disagreeing), or a value the expansion kernel finds not polynomial
    (NotDivisible), gives a failed record carrying the message under
    "error", with null lhs and rhs; an OverflowError or a MemoryError (an
    exponent too large to expand) propagates.  The measured elapsed_ms is
    added only with the timing flag.
    """
    identity, params, timing = cell
    ident = IDENTITIES[identity]
    if not ident.holds(*params.values()):
        return None
    start = time.perf_counter()
    record = {"identity": identity, "params": params}
    try:
        lhs = ident.lhs(*params.values())
        rhs = ident.rhs(*params.values())
    except Degenerate:
        # a lower-parameter Pochhammer symbol vanishes in range: the series
        # is undefined there, so the cell is degenerate rather than failed
        return None
    except (OverflowError, MemoryError):
        # a bad input, not a refutation: main reports it on stderr
        raise
    except (ArithmeticError, NotDivisible) as exc:
        # an internal disagreement: a failed cell, not a crash
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
            # equal polynomials have one canonical form, so encode it once
            pairs = lhs.to_pairs()
            record.update(lhs=pairs, rhs=pairs if equal else rhs.to_pairs())
        record["equal"] = equal
    if timing:
        record["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    return record


def _grid_ranges(args, parser):
    """The validated ranges of the requested identity's grid axes, in
    params order; their product, with the last parameter varying fastest,
    is the grid in canonical order."""
    ident = IDENTITIES[args.identity]
    _reject_unread(args, parser, ident.params, "--identity " + args.identity)
    ranges = []
    for name in ident.params:
        if getattr(args, name) is None:
            parser.error("verify --identity %s needs --%s A..B" % (args.identity, name))
        try:
            ranges.append(_parse_range(getattr(args, name)))
        except ValueError as exc:
            parser.error("--%s: %s" % (name, exc))
    return ranges


def _cmd_verify(args, parser) -> int:
    if args.jobs is None:
        args.jobs = 1
    if type(args.jobs) is not int or args.jobs < 1:
        parser.error("--jobs must be an integer >= 1, got %r" % (args.jobs,))
    ranges = _grid_ranges(args, parser)
    timing = args.output is not None
    names = IDENTITIES[args.identity].params
    cells = ((args.identity, dict(zip(names, v)), timing) for v in itertools.product(*ranges))
    workers = min(args.jobs, os.cpu_count() or 1, math.prod(len(r) for r in ranges))
    tally = {"pass": 0, "fail": 0, "degenerate": 0}
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if timing:
            try:
                out = stack.enter_context(open(args.output, "w"))
            except OSError as exc:
                parser.error("cannot open output file: %s" % exc)
        if workers > 1:
            # imported here: it loads multiprocessing, which eval, explain
            # and serial runs never need
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # runs first on the way out: an error, such as a closed stdout,
            # drops the queued chunks instead of waiting for them all
            stack.callback(pool.shutdown, cancel_futures=True)
            records = pool.map(_run_cell, cells, chunksize=16)
        else:
            records = map(_run_cell, cells)
        # Executor.map yields in submission order, so stdout is independent
        # of --jobs, and the first record that is not None is the first
        # cell that is not degenerate: the negative control reruns that
        # cell here, perturbed
        corrupt = args.selftest_corrupt
        for record in records:
            if record is None:
                tally["degenerate"] += 1
                continue
            if corrupt:
                cell = (args.identity, record["params"], timing)
                record, corrupt = _run_cell(cell, corrupt=True), False
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
    _reject_unread(args, parser, ident.params, "--identity " + args.identity)
    total = LaurentPoly()
    for label, term in ident.terms(*_require(args, parser, ident.params)):
        total = total + term
        print("%s\t%s" % (json.dumps(label, separators=(",", ":")), term.render("plain")))
    print("total\t%s" % total.render("plain"))
    return 0


# -- entry point -------------------------------------------------------------


def _add_param_flags(p, names):
    for name in names:
        p.add_argument("--%s" % name, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact evaluation and verification of q-binomial identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    with_terms = [name for name, ident in IDENTITIES.items() if ident.terms]
    term_params = [*dict.fromkeys(p for n in with_terms for p in IDENTITIES[n].params)]

    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly")
    p_eval.add_argument("--kind", required=True, choices=[*_KINDS, "lhs", "rhs"])
    p_eval.add_argument("--identity", choices=with_terms, default=None)
    p_eval.add_argument("--format", choices=sorted(_STYLE), default="text")
    kind_params = (p for names, _ in _KINDS.values() for p in names if p != "surface")
    eval_params = [*dict.fromkeys([*kind_params, *term_params])]
    _add_param_flags(p_eval, eval_params)
    p_eval.add_argument("--surface", choices=SURFACE_TAGS, default=None)

    p_verify = sub.add_parser("verify", help="verify an identity over a parameter grid")
    p_verify.add_argument("--identity", required=True, choices=list(IDENTITIES))
    verify_params = [*dict.fromkeys(p for ident in IDENTITIES.values() for p in ident.params)]
    for name in verify_params:
        p_verify.add_argument("--%s" % name, default=None, metavar="A..B")
    p_verify.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default 1)"
    )
    p_verify.add_argument("--output", default=None, metavar="FILE")
    p_verify.add_argument("--config", default=None, metavar="FILE")
    p_verify.add_argument(
        "--selftest-corrupt",
        action="store_true",
        help="perturb one side of the first non-degenerate cell; the run must then fail",
    )

    p_explain = sub.add_parser("explain", help="list each summand of an identity LHS")
    p_explain.add_argument("--identity", required=True, choices=with_terms)
    _add_param_flags(p_explain, term_params)

    # post-parse usage errors are reported against the subcommand's parser;
    # param_flags are the flags _reject_unread checks
    p_eval.set_defaults(
        run=_cmd_eval, subparser=p_eval, param_flags=["identity", *eval_params, "surface"]
    )
    p_verify.set_defaults(run=_cmd_verify, subparser=p_verify, param_flags=verify_params)
    p_explain.set_defaults(run=_cmd_explain, subparser=p_explain, param_flags=term_params)
    return parser


# The JSON type a --config value must have, for the flags whose values no
# later check validates: ranges go through _parse_range and "jobs" through
# _cmd_verify.
_CONFIG_TYPES = {
    "output": (str, "a string"),
    "selftest_corrupt": (bool, "true or false"),
}


def _apply_config(args, parser):
    """Fill the flags left unset from the --config JSON object; a null
    value leaves the default.  A file that is not a JSON object, a key that
    names no flag of the subcommand, or a value of the wrong JSON type, is a
    usage error."""
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error("cannot read config file: %s" % exc)
        if not isinstance(defaults, dict):
            parser.error(
                "config file must hold a JSON object, got %.40s" % json.dumps(defaults)
            )
        flags = {a.dest for a in parser._actions if a.option_strings}
        flags -= {"help", "config"}
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if attr not in flags:
                parser.error(
                    "config key %s names no %s flag" % (json.dumps(key), args.command)
                )
            current = getattr(args, attr)
            # an unset flag is None (False for --selftest-corrupt); compared
            # by identity, since an explicit --jobs 0 == False must stay
            if value is None or (current is not None and current is not False):
                continue
            if attr in _CONFIG_TYPES:
                expected, described = _CONFIG_TYPES[attr]
                if type(value) is not expected:
                    parser.error(
                        "config value for %s must be %s, got %s"
                        % (key, described, json.dumps(value))
                    )
            setattr(args, attr, value)


def _pool_errors():
    """BrokenProcessPool, a worker that died (say, ended by the OOM killer),
    if a run has loaded the pool's module; else nothing."""
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process else ()


def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.subparser.error("unrecognized arguments: %s" % " ".join(extras))
    _apply_config(args, args.subparser)
    try:
        return args.run(args, args.subparser)
    # the tuple is built only when an exception arrives, so no launch
    # imports the pool; a dead worker refutes nothing either
    except (QIdentitiesError, ValueError, OverflowError, *_pool_errors()) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except MemoryError:
        # raised with no message of its own
        print("MemoryError: out of memory; an exponent or count is too large",
              file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """main(argv) and a flush of stdout, then gc.freeze(); returns main's
    exit code.  The entry point of the console script and of python -m
    qidentities.cli.

    If the reader closes stdout (e.g. qident verify ... | head -1), the run
    stops quietly with 141, what a shell reports for a filter killed by
    SIGPIPE.  Any other failed write, to stdout or to an --output file
    (e.g. a full disk), prints one OSError line on stderr and returns 2, so
    it cannot read as exit 1, a refuted identity.  Either way fd 1 then
    points at os.devnull, so the flush at exit cannot fail again and print
    a traceback."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = 141
        else:
            print("OSError: %s" % exc, file=sys.stderr)
            code = 2
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
