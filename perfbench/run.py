"""Benchmark of the ``qident verify`` command.

Run from the repository root (stdlib only; the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload thm-grid --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` times the real CLI: every repetition is a fresh ``python3 -m
qidentities.cli verify ...`` process, so interpreter start, import and cold
q-binomial caches are paid as a user pays them.  Wall time is spawn to exit;
CPU time and peak RSS cover the process tree (``os.wait4`` rusage).
Repetitions run back to back for ``--seconds`` seconds and the medians are
reported.  ``setup_s`` is the median launch time of a trivial ``qident
eval`` (interpreter start, import, argparse); one launch precedes each
repetition, so that their median sees the same host load as the
repetitions.

The time metrics (``wall_s``, ``cells_per_s``, ``cpu_s``, ``setup_s``) are
given at a fixed reference speed of the host: each launch's time is scaled
by ``REF_S`` over the time of a fixed reference kernel, run on the same CPUs
just before and just after it (see ``timed_run``).  A host whose speed
drifts over minutes then reads the same; a change to the program moves the
metrics as it moves the raw times, which are printed in the notes.

``--trace 1`` prints per-layer metrics instead.  It runs the workload once
untraced as above (for ``cli.cpu_util``), then twice in-process through
``layers.py`` at ``--jobs 1``: once plain and once with every layer boundary
wrapped.  The ratio of those two is ``trace.overhead``.

Every run is checked: exit code 0, the summary line, ``"fail":0``, the cell
count, and, where the inputs are the recorded ones, the stdout sha256 from
``workloads.json``.  A failed check counts the run's cells as failed and
makes the benchmark exit 1.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

A nonzero ``--seed`` moves the two saalschutz workloads to other inputs:
the a window shifts by s and the b window by -s, s drawn from the workload's
``ab_shifts``.  That keeps the cell count, the a + b distribution and so the
degenerate count, and the work per cell close to seed 0 (see workloads.json).

Tests: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def load_spec():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def inputs(workload, seed):
    """The parameter ranges {name: (lo, hi)} of a workload for a seed."""
    ranges = {p: tuple(r) for p, r in workload["ranges"].items()}
    if seed and workload["ab_shifts"]:
        s = random.Random(seed).choice(workload["ab_shifts"])
        ranges["a"] = (ranges["a"][0] + s, ranges["a"][1] + s)
        ranges["b"] = (ranges["b"][0] - s, ranges["b"][1] - s)
    return ranges


def expectation(workload, ranges):
    """What a correct run prints: the cell count always, and the recorded
    summary and digest when the inputs are the recorded ones."""
    exp = {"cells": math.prod(hi - lo + 1 for lo, hi in ranges.values())}
    recorded = workload.get("seed0")
    base = {p: tuple(r) for p, r in workload["ranges"].items()}
    if recorded and ranges == base:
        exp["summary"] = recorded["summary"]
        exp["sha256"] = recorded["sha256"]
    return exp


def verify_argv(workload, ranges, jobs):
    argv = ["verify", "--identity", workload["identity"]]
    argv += ["--%s=%d..%d" % (p, lo, hi) for p, (lo, hi) in ranges.items()]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return argv


def launch(argv):
    """Run argv to exit.  Returns a dict: wall_s (spawn to exit), cpu_s and
    peak_rss_mb (the process tree, from wait4), exit, stdout (bytes)."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        # own session, so an interrupted run can stop the whole tree (the
        # CLI's pool workers included)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                                start_new_session=True)
        try:
            out = proc.stdout.read()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": out,
    }


def stderr_tail():
    with open(os.path.join(OUT, "stderr.txt"), "rb") as fh:
        return fh.read()[-2000:].decode(errors="replace")


def last_line(out: bytes) -> str:
    return out.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode(errors="replace")


def parse_summary(line):
    """The CLI's final {"pass", "fail", "degenerate"} line as a dict, or None."""
    try:
        summary = json.loads(line)
    except ValueError:
        return None
    if isinstance(summary, dict) and sorted(summary) == ["degenerate", "fail", "pass"]:
        return summary
    return None


def gate(exp, exit_code, digest, summary_line):
    """Problems with one run's output; an empty list means correct."""
    problems = []
    if exit_code != 0:
        problems.append("exit code %s" % exit_code)
    summary = parse_summary(summary_line)
    if summary is None:
        return problems + ["no summary line (last line %r)" % summary_line[:200]]
    if "summary" in exp and summary != exp["summary"]:
        problems.append("summary %s, expected %s" % (summary_line, json.dumps(exp["summary"])))
    if summary["fail"] != 0:
        problems.append("%d failed cells" % summary["fail"])
    if sum(summary.values()) != exp["cells"]:
        problems.append("%d cells, expected %d" % (sum(summary.values()), exp["cells"]))
    if "sha256" in exp and digest != exp["sha256"]:
        problems.append("stdout sha256 %s, expected %s" % (digest, exp["sha256"]))
    return problems


def cli_command(argv):
    return [sys.executable, "-m", "qidentities.cli"] + argv


def checked_launches(argv, expected_stdout, count, tally):
    """Launch argv count times, checking its stdout; returns the launches."""
    runs = []
    for _ in range(count):
        r = launch(argv)
        tally["attempted"] += 1
        if r["exit"] != 0 or r["stdout"].decode(errors="replace") != expected_stdout:
            tally["failed"] += 1
            tally["problems"].append("%s: exit %s, stdout %r" % (
                " ".join(argv[1:]), r["exit"], r["stdout"][:200]))
        runs.append(r)
    return runs


REF_S = 0.15  # nominal time of reference_kernel(); see timed_run()


def reference_kernel(rounds=144):
    """A fixed sparse-polynomial multiply loop, independent of the package,
    so no change to the program speeds it up.  It does the kind of work the
    workloads do, dict-keyed products of small Python ints, so a busy host
    slows it much as it slows the program.  About 0.15 s on a 2-vCPU VM
    with Python 3.11."""
    a = {e: (e * 7919) % 1000003 + 1 for e in range(-60, 60)}
    b = {e: (e * 104729) % 999983 - 500000 for e in range(0, 90, 2)}
    check = 0
    for _ in range(rounds):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        check += len(out) + sum(out.values()) % 7
        a = {e: c % 1000003 for e, c in out.items() if -60 <= e < 60}
    return check


def pin(cpus):
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def workload_cpus(jobs):
    """The CPUs a workload runs on: as many as it has jobs.  The benchmark
    pins itself (and so every process it launches) to them, so that the
    reference kernel runs where the program runs."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:max(1, jobs)])


def reference_s(cpus):
    """Mean time of the reference kernel on each CPU in cpus."""
    times = []
    for cpu in sorted(cpus) if cpus else [None]:
        if cpu is not None:
            pin({cpu})
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    if cpus:
        pin(cpus)
    return statistics.fmean(times)


def timed_run(spec, workload, seed, seconds):
    """End-to-end metrics with tracing off.

    On a shared host the speed of a CPU swings by 20-40% within seconds and
    drifts over minutes (measured on a 2-vCPU VM: raw medians of 55 s runs
    spread up to 33%), and code that runs on the same CPU at about the same
    time sees about the same swing.  So the reference kernel runs between
    repetitions, on the repetition's CPUs, and every time is reported at
    the reference speed: measured time x REF_S / (mean reference time just
    before and just after it).  Raw times are in the notes."""
    ranges = inputs(workload, seed)
    exp = expectation(workload, ranges)
    argv = cli_command(verify_argv(workload, ranges, workload["jobs"]))
    setup_argv = cli_command(spec["setup"]["argv"])
    tally = {"attempted": 0, "failed": 0, "problems": []}
    cpus = workload_cpus(workload["jobs"])
    saved = os.sched_getaffinity(0) if cpus else None
    setup = []
    reps = []
    first_digest = None
    try:
        pin(cpus)
        ref_before = reference_s(cpus)  # also warms up the interpreter
        start = time.perf_counter()
        while True:
            iteration = time.perf_counter()
            launches = checked_launches(setup_argv, spec["setup"]["stdout"], 1, tally)
            r = launch(argv)
            ref_after = reference_s(cpus)
            scale = REF_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            for x in launches + [r]:
                x["scale"] = scale
            setup += launches
            digest = hashlib.sha256(r["stdout"]).hexdigest()
            first_digest = first_digest or digest
            problems = gate(exp, r["exit"], digest, last_line(r["stdout"]))
            if digest != first_digest:
                problems.append("stdout differs between repetitions")
            if r["exit"] != 0:
                problems.append("stderr: " + stderr_tail())
            tally["attempted"] += exp["cells"]
            if problems:
                tally["failed"] += exp["cells"]
                tally["problems"] += problems
            reps.append(r)
            # stop when the next iteration would not fit in the budget
            now = time.perf_counter()
            if now - start + (now - iteration) > seconds:
                break
    finally:
        if saved:
            pin(saved)

    def median(runs, key):
        return statistics.median(r[key] * r["scale"] for r in runs)

    def raw(runs, key):
        return " ".join("%.3f" % r[key] for r in runs)

    wall = median(reps, "wall_s")
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (exp["cells"] / wall, "1/s"),
        "cpu_s": (median(reps, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (median(setup, "wall_s"), "s"),
    }
    notes = [
        "cpus %s; reference speed x%s" % (
            sorted(cpus) if cpus else "any", " ".join("%.3f" % r["scale"] for r in reps)),
        "reps %d: raw wall_s %s" % (len(reps), raw(reps, "wall_s")),
        "setup launches %d: raw wall_s %s" % (len(setup), raw(setup, "wall_s")),
        "failed_ratio %.6f (%d of %d)" % (
            tally["failed"] / tally["attempted"], tally["failed"], tally["attempted"]),
    ]
    return tally, metrics, argv, notes


def layers_run(argv, wrap, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "layers.py"), "--wrap", str(wrap)]
    if spans:
        cmd += ["--spans", spans]
    r = launch(cmd + argv)
    if r["exit"] != 0:
        raise RuntimeError("layers.py failed: " + stderr_tail())
    return json.loads(last_line(r["stdout"]))


def traced_run(spec, workload, seed):
    """Per-layer metrics: one untraced CLI run, then a plain and a traced
    in-process run at --jobs 1."""
    ranges = inputs(workload, seed)
    exp = expectation(workload, ranges)
    jobs = workload["jobs"]
    argv = verify_argv(workload, ranges, jobs)
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def check(label, exit_code, digest, line, reference=None):
        problems = gate(exp, exit_code, digest, line)
        if reference is not None and digest != reference:
            problems.append("stdout differs from the untraced run")
        tally["attempted"] += exp["cells"]
        if problems:
            tally["failed"] += exp["cells"]
            tally["problems"] += ["%s: %s" % (label, p) for p in problems]

    r = launch(cli_command(argv))
    digest = hashlib.sha256(r["stdout"]).hexdigest()
    check("untraced", r["exit"], digest, last_line(r["stdout"]))
    argv1 = verify_argv(workload, ranges, 1)
    plain = layers_run(argv1, 0)
    check("in-process", plain["exit"], plain["sha256"], plain["last_line"], digest)
    spans = os.path.join(OUT, "spans-%s-seed%d" % (workload["name"], seed))
    traced = layers_run(argv1, 1, spans)
    check("traced", traced["exit"], traced["sha256"], traced["last_line"], digest)

    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    summary = parse_summary(traced["last_line"]) or {"degenerate": 0}  # else the check failed
    metrics["cli.cells"] = (exp["cells"], "count")
    metrics["cli.degenerate"] = (summary["degenerate"], "count")
    metrics["cli.cpu_util"] = (r["cpu_s"] / (jobs * r["wall_s"]), "ratio")
    metrics["trace.overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    notes = [
        "untraced wall_s %.3f cpu_s %.3f (jobs %d); in-process plain %.3f s, traced %.3f s"
        % (r["wall_s"], r["cpu_s"], jobs, plain["wall_s"], traced["wall_s"]),
        "spans written to %s.bin/.json" % os.path.relpath(spans, ROOT),
    ]
    if traced["missing_sites"]:
        notes.append("untraced call sites (not in the program): %s" % ", ".join(traced["missing_sites"]))
    return tally, metrics, cli_command(argv), notes


def env_line():
    load = " ".join("%.2f" % v for v in os.getloadavg())
    return "python %s, nproc %s, loadavg %s" % (sys.version.split()[0], os.cpu_count(), load)


def report(name, seed, argv, metrics, notes, tally):
    print("== %s (seed %d): %s" % (name, seed, " ".join(argv[1:])))
    print("   %s" % env_line())
    for key, (value, unit) in metrics.items():
        print("   %-36s %16.6g %s" % (key, value, unit))
    for note in notes:
        print("   %s" % note)
    for problem in tally["problems"]:
        print("   CHECK FAILED: %s" % problem)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of qident verify.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "qidentities", "cli.py")):
        print("perfbench: no qidentities package under %s" % SRC, file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for w in spec["workloads"]:
        if w["name"] not in chosen:
            continue
        if args.trace:
            tally, metrics, cmd, notes = traced_run(spec, w, args.seed)
        else:
            tally, metrics, cmd, notes = timed_run(spec, w, args.seed, args.seconds)
        report(w["name"], args.seed, cmd, metrics, notes, tally)
        attempted += tally["attempted"]
        failed += tally["failed"]
        prefix = "" if len(chosen) == 1 else w["name"] + "/"
        for key, (value, unit) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
