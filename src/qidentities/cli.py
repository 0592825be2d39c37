"""Command-line front end: single evaluations, grid verification, traces.

Every identity the tool checks is one entry of IDENTITIES: its parameter
names (flag, grid-axis and JSON-key order) and its hypothesis, both taken
from its errors.HYPOTHESES statement, both sides, and the summands that
explain lists.  eval, verify and explain all dispatch through that
registry and take every identity in it, each with one flag per parameter
of any identity, so adding an identity is one HYPOTHESES statement and
one entry.  eval refuses values outside the hypothesis with
errors.require, the check the theorems' sides make themselves, so eval,
explain and eval --kind nlog give one message for them.  A side
or summand is a LaurentPoly, or for a series an unreduced RationalFunction,
and both render in every --format style.

Exit codes: 0 = no cell failed, 1 = at least one cell failed (a mismatch
or an internal disagreement; with --selftest-corrupt, the perturbed first
non-degenerate cell, so only a grid with none exits 0), 2 = usage or
domain error, a worker process or pool thread that died, or from run() a
failed write (such as a full disk), and from run() 141 = the reader
closed stdout.
A usage error found after parsing, such as an --output file that cannot
be opened, a flag the subcommand does not take (a flag is read only as
spelled, never from a prefix such as --al for --alpha), a parameter flag
that the chosen --kind or --identity does not read, or a --config file
that names one flag twice, prints the subcommand's own usage line; a
domain error, a library ValueError, an OverflowError (a huge exponent), a
MemoryError (an exponent or count too large to expand in memory) or a
BrokenProcessPool (a worker process or the pool's manager thread died)
prints one line on stderr.

Verification records are line-delimited JSON, written in cell order as the
cells finish and then a summary line.  The cells are generated as they run,
each range read one value at a time, so no list of cells or of records is
kept, a range may have any length, and an interrupted run keeps the
records it wrote.  A cell is the tuple of its parameter values in the
identity's params order, as the grid yields it and as eval and explain
pass values to the registry.  Each cell writes its own record as JSON
text straight from its sides' coefficient lists, so with --jobs the
workers do the encoding and the parent only tallies verdicts and writes
lines.  A worker receives the identity and the timing flag once per
chunk, not once per cell, and the parent pairs each result with its
cell's tuple from a second lazy walk of the grid.  The chunks are sized
from the grid's cell count alone (_pooled): 16 cells first, then each
twice the one before, up to CHUNK_CELLS and to the size that still gives
each worker 16 chunks.  The parent keeps at most 4 chunks per worker in
flight, so its memory does not grow with the grid either, and an error,
such as a closed stdout, ends the pool's workers, and no other process,
instead of waiting for their chunks.
Records written to a file via --output carry a measured elapsed_ms
field; on stdout it is omitted so that identical reruns are
byte-identical.

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
import collections
import contextlib
import functools
import gc
import itertools
import json
import math
import os
import sys
import time

from .closed_forms import SURFACE_TAGS, nlog_value, prop3_rhs, theorem1_rhs, theorem2_rhs
from .errors import HYPOTHESES, Degenerate, NotDivisible, QIdentitiesError, require
from .hypergeom import SaalschutzInstance, phi_evaluate, saalschutz_rhs, series_terms
from .laurent import ONE, LaurentPoly, RationalFunction
from .qcombo import q_binomial, q_int, qf_expand, qf_to_rational
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


class Identity(collections.namedtuple("Identity", "params holds lhs rhs terms")):
    """One registry entry.  params, the tuple of parameter names, and
    holds, the hypothesis, are the identity's errors.HYPOTHESES entry;
    holds, lhs, rhs and terms take the parameter values in params order.
    Each grid cell checks holds before it computes either side, and eval
    rejects values outside it with errors.require, the check the
    theorems' sides make themselves; terms yields explain's (label,
    summand) pairs, whose summands add up to the left-hand side."""

    __slots__ = ()


def _prop3_terms(D, d1, k0):
    # the refined sum's own domain check, the one eval --kind f makes
    spec = FSumSpec(D, d1, k0)
    for idx in enumerate_indices(spec.d1, spec.k0):
        yield idx.to_json_obj(), f_term(spec.D, idx)


def _saalschutz_terms(a, b, c, N):
    series = SaalschutzInstance(a, b, c, N).lhs_series()
    for k, term in enumerate(series_terms(series)):
        yield {"k": k}, qf_to_rational(term)


# Each entry's params and holds are its errors.HYPOTHESES entry.  The sides
# look the library functions up in this module's globals at call time, so
# patching e.g. cli.theorem2_lhs (as a tracer or a test does) reaches every
# subcommand.
IDENTITIES = {
    "thm1": Identity(
        *HYPOTHESES["thm1"],
        lhs=lambda *values: theorem1_lhs(*values),
        rhs=lambda *values: theorem1_rhs(*values),
        terms=lambda *values: theorem1_terms(*values),
    ),
    "thm2": Identity(
        *HYPOTHESES["thm2"],
        lhs=lambda *values: theorem2_lhs(*values),
        rhs=lambda *values: theorem2_rhs(*values),
        terms=lambda *values: theorem2_terms(*values),
    ),
    "prop3": Identity(
        *HYPOTHESES["prop3"],
        lhs=lambda *values: prop3_lhs(*values),
        rhs=lambda *values: prop3_rhs(*values),
        terms=_prop3_terms,
    ),
    "saalschutz": Identity(
        *HYPOTHESES["saalschutz"],
        lhs=lambda *values: phi_evaluate(SaalschutzInstance(*values).lhs_series()),
        rhs=lambda *values: saalschutz_rhs(SaalschutzInstance(*values)),
        terms=_saalschutz_terms,
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
    """Inclusive integer range "A..B", or a single integer "A": the type of
    verify's range flags, so argparse names the flag of a malformed one.  A
    range may have any length: the grid reads it one value at a time."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError("expected A..B or an integer, got %r" % text) from None
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return range(lo, hi + 1)


def _params(args, parser, names, chosen):
    """The values of the named parameter flags, in order.  A usage error if
    a parameter flag of the subcommand that is not in `names` was given,
    as the `chosen` kind or identity would ignore it (unless chosen is
    None), and then if one of `names` is missing."""
    unread = [
        "--" + p for p in args.param_flags if p not in names and getattr(args, p) is not None
    ]
    if chosen and unread:
        parser.error("%s does not read %s" % (chosen, ", ".join(unread)))
    values = [getattr(args, n) for n in names]
    missing = [n for n, v in zip(names, values) if v is None]
    if missing:
        parser.error("missing required parameter(s): %s" % ", ".join(missing))
    return values


# -- eval ------------------------------------------------------------------


def _cmd_eval(args, parser) -> int:
    kind = args.kind
    if kind in _KINDS:
        names, value = _KINDS[kind]
        value = value(*_params(args, parser, names, "--kind " + kind))
    else:
        # lhs / rhs of the identity named by --identity, checked first: it
        # names the parameters read
        (name,) = _params(args, parser, ["identity"], None)
        ident = IDENTITIES[name]
        chosen = "--kind %s --identity %s" % (kind, name)
        _, *values = _params(args, parser, ("identity", *ident.params), chosen)
        value = (ident.lhs if kind == "lhs" else ident.rhs)(*require(name, *values))
    print(value.render(_STYLE[args.format]))
    return 0


# -- verify ----------------------------------------------------------------


def _run_cell(identity, timing, values, corrupt=False):
    """Compute one grid cell of the named identity.  Top-level so it
    pickles for worker pools.

    values is the cell: the tuple of its parameter values in the
    identity's params order, as _grid yields it; the record's params
    object pairs them with their names.  Returns (equal, line): the
    verdict and the cell's record as one JSON line in its final form,
    written as text straight from the sides' coefficient lists (to_json),
    so that a pool worker, not the parent, encodes it; or None for a
    cell that is not checked: one outside the identity's hypothesis, or a
    degenerate one.  With corrupt the left-hand side is perturbed before
    the comparison, for --selftest-corrupt.  An ArithmeticError (two
    internal code paths disagreeing), or a value the expansion kernel
    finds not polynomial (NotDivisible), gives a failed record carrying
    the message under "error", with null lhs and rhs; an OverflowError or
    a MemoryError (an exponent too large to expand) propagates.  The
    measured elapsed_ms is added only with the timing flag.
    """
    ident = IDENTITIES[identity]
    if not ident.holds(*values):
        return None
    start = time.perf_counter()
    try:
        # the closed form first: where it is degenerate, as a q-Saalschutz
        # denominator that vanishes, the series is never summed
        rhs = ident.rhs(*values)
        lhs = ident.lhs(*values)
    except Degenerate:
        # a lower-parameter Pochhammer symbol vanishes in range, and so does
        # a closed-form denominator: the series is undefined there, so the
        # cell is degenerate rather than failed
        return None
    except (OverflowError, MemoryError):
        # a bad input, not a refutation: main reports it on stderr
        raise
    except (ArithmeticError, NotDivisible) as exc:
        # an internal disagreement: a failed cell, not a crash; its message
        # is the one field that may need escaping
        equal, lhs_json, rhs_json = False, "null", "null"
        tail = ',"error":' + json.dumps("%s: %s" % (type(exc).__name__, exc))
    else:
        rational = isinstance(lhs, RationalFunction)
        if corrupt:
            lhs = RationalFunction(lhs.num + lhs.den, lhs.den) if rational else lhs + ONE
        equal = lhs == rhs
        lhs_json = lhs.to_json()
        # equal polynomials have one canonical form, so encode it once
        rhs_json = lhs_json if equal and not rational else rhs.to_json()
        tail = ""
    if timing:
        tail += ',"elapsed_ms":%d' % int((time.perf_counter() - start) * 1000)
    # the compact text json.dumps writes for the record, keys in this order
    return equal, '{"identity":"%s","params":{%s},"lhs":%s,"rhs":%s,"equal":%s%s}\n' % (
        identity,
        ",".join(['"%s":%d' % kv for kv in zip(ident.params, values)]),
        lhs_json,
        rhs_json,
        "true" if equal else "false",
        tail,
    )


# The most cells in one chunk, so that at most 4 x workers x CHUNK_CELLS
# cells are in flight however cheap they are.  Only a grid of 16 x workers x
# CHUNK_CELLS cells or more reaches it: the 300,000 mostly degenerate cells
# of the CI's long --jobs 2 grid ran in 2.5, 1.9 and 1.5 s with caps of 64,
# 256 and 1024 (5.0 s in 16-cell chunks); 256 takes most of that gain with
# a quarter of 1024's cells in flight.
CHUNK_CELLS = 256


def _run_chunk(identity, timing, cells):
    """_run_cell over a list of one identity's cells, in order: one task
    for a pool worker, which receives the identity and the timing flag
    once and each cell as its tuple of values."""
    return [_run_cell(identity, timing, values) for values in cells]


def _pooled(pool, identity, timing, cells, count, workers):
    """_run_cell of each of the `count` cells, the named identity's value
    tuples, in cell order, run by the pool of `workers` workers in chunks
    sized from the count alone; each chunk is one _run_chunk task.  The
    first chunk holds min(16, limit) cells, so the first record of a long
    grid comes after 16 cells, and each later one twice the one before, up
    to the limit: CHUNK_CELLS, or fewer on a grid too small to give each
    worker 16 chunks of it, so that costly cells late in a grid are still
    spread over the workers.  At most 4 chunks per worker are submitted and
    not yet read, so neither the queued cells nor the finished results grow
    with the grid."""
    limit = min(CHUNK_CELLS, -(-count // (16 * workers)))
    size = min(16, limit)
    window = 4 * workers
    pending = collections.deque()
    while chunk := list(itertools.islice(cells, size)):
        pending.append(pool.submit(_run_chunk, identity, timing, chunk))
        size = min(2 * size, limit)
        if len(pending) == window:
            yield from _result(pool, pending.popleft())
    for future in pending:
        yield from _result(pool, future)


def _result(pool, future):
    """future.result(), or BrokenProcessPool once the pool's manager
    thread, which alone completes its futures, has died with the future
    still pending (say, when it could not start a queue's feeder thread):
    a plain result() would wait forever."""
    from concurrent.futures import TimeoutError
    from concurrent.futures.process import BrokenProcessPool

    while True:
        try:
            # the timeout bounds only how late a dead manager is noticed;
            # a finished chunk is returned at once
            return future.result(timeout=1.0)
        except TimeoutError:
            manager = getattr(pool, "_executor_manager_thread", None)
            if manager is not None and not manager.is_alive() and not future.done():
                raise BrokenProcessPool(
                    "the process pool's manager thread died; its chunks cannot finish"
                ) from None


def _close_pool(pool, others, exc_type, exc, tb):
    """Exit callback of a pool started while the multiprocessing children
    `others` ran: one shutdown that drops the chunks still queued.  After
    an error, such as a closed stdout, it first ends the pool's workers,
    every child not in `others`, so that the shutdown does not wait for
    the chunks they are running; the caller's own children are left be,
    and a normal exit ends nothing."""
    if exc_type is not None:
        import multiprocessing

        for worker in multiprocessing.active_children():
            if worker not in others:
                worker.terminate()
        # a worker ended while sending a result leaves the pool's manager
        # thread waiting for the rest of it, and the shutdown waiting for
        # that thread, as long as a write end of the result pipe is open;
        # this process holds the last one, and never writes to it
        results = getattr(pool, "_result_queue", None)
        if results is not None:
            results._writer.close()
    pool.shutdown(cancel_futures=True)


def _usable_cpus():
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (taskset, a container's cpuset), else the CPU
    count, 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _grid(ranges):
    """The tuples of the ranges' product in canonical order, the last
    range varying fastest, each range read lazily: itertools.product
    would copy every range into a tuple before its first cell."""
    if not ranges:
        yield ()
        return
    for head in _grid(ranges[:-1]):
        for v in ranges[-1]:
            yield head + (v,)


def _cmd_verify(args, parser) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be an integer >= 1, got %d" % args.jobs)
    identity = args.identity
    # the axes in params order: their product, the last varying fastest,
    # is the grid in canonical order, and each of its tuples is one cell
    ranges = _params(args, parser, IDENTITIES[identity].params, "--identity " + identity)
    timing = args.output is not None
    # from the bounds, as a range longer than sys.maxsize has no len()
    count = math.prod(r.stop - r.start for r in ranges)
    workers = min(args.jobs, _usable_cpus(), count)
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
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            others = set(multiprocessing.active_children())
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.push(functools.partial(_close_pool, pool, others))
            results = _pooled(pool, identity, timing, _grid(ranges), count, workers)
        else:
            results = map(functools.partial(_run_cell, identity, timing), _grid(ranges))
        # the results come in cell order, so stdout is independent of
        # --jobs, and a second walk of the grid pairs each with its cell;
        # the first that is not None is the first cell that is not
        # degenerate: the negative control reruns that cell here, perturbed
        corrupt = args.selftest_corrupt
        for values, result in zip(_grid(ranges), results):
            if result is None:
                tally["degenerate"] += 1
                continue
            equal, line = result
            if corrupt:
                (equal, line), corrupt = _run_cell(identity, timing, values, corrupt=True), False
            tally["pass" if equal else "fail"] += 1
            out.write(line)
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
    values = _params(args, parser, ident.params, "--identity " + args.identity)
    total = None
    for label, term in ident.terms(*values):
        # the first summand starts the total, so a series' fractions add up
        # as phi_evaluate adds them; an empty sum is the zero polynomial
        total = term if total is None else total + term
        print("%s\t%s" % (json.dumps(label, separators=(",", ":")), term.render("plain")))
    print("total\t%s" % (LaurentPoly() if total is None else total).render("plain"))
    return 0


# -- entry point -------------------------------------------------------------


def _add_param_flags(p, names):
    for name in names:
        p.add_argument("--%s" % name, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is read only as spelled, never as a
    # prefix, so adding a flag cannot change what a command line means
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact evaluation and verification of q-binomial identities.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the parameters of every identity, the flags of all three subcommands
    identity_params = [*dict.fromkeys(p for ident in IDENTITIES.values() for p in ident.params)]

    p_eval = sub.add_parser("eval", help="evaluate one quantity exactly", allow_abbrev=False)
    p_eval.add_argument("--kind", required=True, choices=[*_KINDS, "lhs", "rhs"])
    p_eval.add_argument("--identity", choices=list(IDENTITIES), default=None)
    p_eval.add_argument("--format", choices=sorted(_STYLE), default="text")
    kind_params = (p for names, _ in _KINDS.values() for p in names if p != "surface")
    eval_params = [*dict.fromkeys([*kind_params, *identity_params])]
    _add_param_flags(p_eval, eval_params)
    p_eval.add_argument("--surface", choices=SURFACE_TAGS, default=None)

    p_verify = sub.add_parser(
        "verify", help="verify an identity over a parameter grid", allow_abbrev=False
    )
    p_verify.add_argument("--identity", required=True, choices=list(IDENTITIES))
    for name in identity_params:
        p_verify.add_argument("--%s" % name, type=_parse_range, default=None, metavar="A..B")
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_verify.add_argument("--output", default=None, metavar="FILE")
    p_verify.add_argument("--config", default=None, metavar="FILE")
    p_verify.add_argument(
        "--selftest-corrupt",
        action="store_true",
        help="perturb one side of the first non-degenerate cell; the run must then fail",
    )

    p_explain = sub.add_parser(
        "explain", help="list each summand of an identity LHS", allow_abbrev=False
    )
    p_explain.add_argument("--identity", required=True, choices=list(IDENTITIES))
    _add_param_flags(p_explain, identity_params)

    # post-parse usage errors are reported against the subcommand's parser;
    # param_flags are the flags _params checks for one not read
    p_eval.set_defaults(
        run=_cmd_eval, subparser=p_eval, param_flags=["identity", *eval_params, "surface"]
    )
    p_verify.set_defaults(run=_cmd_verify, subparser=p_verify, param_flags=identity_params)
    p_explain.set_defaults(run=_cmd_explain, subparser=p_explain, param_flags=identity_params)
    return parser


def _parse_with_config(parser, argv, args):
    """argv parsed again with the values of the --config JSON object as the
    defaults of the subcommand's flags, so that argparse converts and checks
    each one as the text typed after its flag, and an explicit flag wins.  A
    key is a flag's name, with - or _; a switch takes true or false, null
    leaves the default, and any other value is that text: a string, or for a
    flag of type int an integer, or for a range either.  A file that is not a
    JSON object, a key that names no flag a file may set, or two keys that
    name one flag (its - and _ spellings) is a usage error, and so is a
    value of another JSON type, unless the flag is given too."""
    sub = args.subparser
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        sub.error("cannot read config file: %s" % exc)
    if not isinstance(config, dict):
        sub.error("config file must hold a JSON object, got %.40s" % json.dumps(config))
    flags = {a.dest: a for a in sub._actions if a.option_strings}
    json_types = {
        None: ((str,), "a string"),
        int: ((int,), "an integer"),
        _parse_range: ((str, int), "a string or an integer"),
    }
    defaults, keys = {}, {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        # --identity is required on the command line, so a file's would never apply
        if dest in ("help", "config", "identity"):
            sub.error("config key %s names a flag a config file may not set" % json.dumps(key))
        action = flags.get(dest)
        if action is None:
            sub.error("config key %s names no %s flag" % (json.dumps(key), args.command))
        if dest in keys:
            sub.error("config keys %s and %s both name %s"
                      % (json.dumps(keys[dest]), json.dumps(key), action.option_strings[0]))
        keys[dest] = key
        if value is None:
            continue
        switch = action.nargs == 0
        allowed, described = ((bool,), "true or false") if switch else json_types[action.type]
        # by type, not isinstance: true is no integer here
        if type(value) not in allowed:
            # like a malformed text, reported only if no flag replaces it
            value = argparse.ArgumentTypeError(
                "config value for %s must be %s, got %s" % (key, described, json.dumps(value))
            )
        elif not switch:
            value = str(value)
        defaults[dest] = value
    sub.set_defaults(**defaults)
    args = parser.parse_known_args(argv)[0]
    for value in vars(args).values():
        if isinstance(value, argparse.ArgumentTypeError):
            sub.error(str(value))
    return args


def _pool_errors():
    """BrokenProcessPool, a worker that died (say, ended by the OOM killer)
    or a pool whose manager thread died, if a run has loaded the pool's
    module; else nothing."""
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process else ()


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.subparser.error("unrecognized arguments: %s" % " ".join(extras))
    if getattr(args, "config", None):
        args = _parse_with_config(parser, argv, args)
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
