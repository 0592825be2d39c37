"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run

TINY_RANGES = {
    "thm-grid": {"d1": [1, 3], "d2": [1, 2]},
    "saalschutz-grid": {"a": [-2, 2], "b": [-2, 2], "c": [-2, 2], "N": [1, 2]},
    "saalschutz-deep": {"a": [1, 1], "b": [3, 3], "c": [5, 5], "N": [3, 4]},
}


def spec_and_tiny(name):
    """The benchmark spec and a tiny copy of one workload (no recorded
    digest, so only the counts are checked)."""
    spec = run.load_spec()
    w = next(w for w in spec["workloads"] if w["name"] == name)
    return spec, dict(w, ranges=TINY_RANGES[name], seed0=None)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1
        return self.t


def test_self_time_of_nested_calls():
    tracer = layers.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def body():
        mid()
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    # clock ticks: outer 1..8, mid 2..5, leaf 3..4, leaf 6..7
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["outer", "mid", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert durations == [7, 3, 1, 1]
    # outer: 7 - (mid 3 + leaf 1); mid: 3 - leaf 1
    assert tracer.self_times() == [3, 2, 1, 1]
    assert tracer.self_ns(["leaf"], tracer.self_times()) == 2


def test_group_total_counts_nested_spans_once():
    tracer = layers.Tracer(clock=FakeClock())

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.wrap("rec", fact)
    assert traced(3) == 6
    # four nested spans; only the outermost is counted in the total
    assert len(tracer.spans_named(["rec"])) == 4
    assert tracer.total_ns(["rec"]) == tracer.end[0] - tracer.start[0]


def test_spans_carry_cell_ids_and_exceptions_close_spans():
    tracer = layers.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("degenerate")

    inner = tracer.wrap("inner", boom)

    def cell(_):
        try:
            inner()
        except ValueError:
            return None

    run_cell = tracer.wrap_cell(cell)
    run_cell(0)
    run_cell(1)
    assert list(tracer.cell) == [0, 0, 1, 1]
    assert all(e > s for s, e in zip(tracer.start, tracer.end))
    assert tracer.stack == [] and tracer.current_cell == -1


def test_install_wraps_every_site_and_undo_restores():
    import qidentities.cli as cli
    import qidentities.laurent as laurent
    import qidentities.sums as sums

    before = (cli.phi_evaluate, sums.q_binomial_signed, laurent.LaurentPoly.__mul__, cli.json)
    undo, missing = layers.install(layers.Tracer())
    try:
        assert missing == []
        assert cli.phi_evaluate is not before[0]
        assert sums.q_binomial_signed is not before[1]
        assert laurent.LaurentPoly.__mul__ is not before[2]
    finally:
        undo()
    assert (cli.phi_evaluate, sums.q_binomial_signed, laurent.LaurentPoly.__mul__, cli.json) == before


def test_gate_rejects_selftest_corrupt_output():
    _, w = spec_and_tiny("thm-grid")
    ranges = run.inputs(w, 0)
    exp = run.expectation(w, ranges)
    r = run.launch(run.cli_command(run.verify_argv(w, ranges, 1) + ["--selftest-corrupt"]))
    digest = hashlib.sha256(r["stdout"]).hexdigest()
    problems = run.gate(exp, r["exit"], digest, run.last_line(r["stdout"]))
    assert "exit code 1" in problems
    assert "1 failed cells" in problems


def test_gate_rejects_flipped_digest():
    _, w = spec_and_tiny("thm-grid")
    ranges = run.inputs(w, 0)
    exp = run.expectation(w, ranges)
    r = run.launch(run.cli_command(run.verify_argv(w, ranges, 1)))
    digest = hashlib.sha256(r["stdout"]).hexdigest()
    line = run.last_line(r["stdout"])
    assert run.gate(dict(exp, sha256=digest), r["exit"], digest, line) == []
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    problems = run.gate(dict(exp, sha256=flipped), r["exit"], digest, line)
    assert len(problems) == 1 and "sha256" in problems[0]


def test_nonzero_seed_shifts_windows_but_keeps_cells():
    spec = run.load_spec()
    for w in spec["workloads"]:
        base = run.inputs(w, 0)
        for seed in range(1, 6):
            ranges = run.inputs(w, seed)
            assert ranges == run.inputs(w, seed)
            assert run.expectation(w, ranges)["cells"] == run.expectation(w, base)["cells"]
            if w["ab_shifts"]:
                assert ranges != base
                assert ranges["a"][0] + ranges["b"][0] == base["a"][0] + base["b"][0]
                assert "sha256" not in run.expectation(w, ranges)


def test_times_are_reported_at_the_reference_speed(monkeypatch):
    spec, w = spec_and_tiny("thm-grid")
    # a host at half the reference speed: every time is halved
    monkeypatch.setattr(run, "reference_s", lambda cpus: 2 * run.REF_S)
    tally, metrics, _, notes = run.timed_run(spec, w, 0, seconds=0)
    assert tally["failed"] == 0, tally["problems"]
    raw = [n for n in notes if n.startswith("reps 1: raw wall_s ")]
    assert len(raw) == 1
    assert metrics["wall_s"][0] == pytest.approx(float(raw[0].split()[-1]) / 2, abs=1e-3)


def test_workload_cpus_match_jobs():
    cpus = sorted(os.sched_getaffinity(0))
    assert run.workload_cpus(1) == {cpus[0]}
    assert run.workload_cpus(2) == set(cpus[:2])
    assert os.sched_getaffinity(0) == set(cpus)


@pytest.mark.parametrize("name", sorted(TINY_RANGES))
def test_smoke_each_workload(name):
    spec, w = spec_and_tiny(name)
    declared = benchmark_json()

    tally, metrics, _, _ = run.timed_run(spec, w, 0, seconds=0)
    assert tally["failed"] == 0, tally["problems"]
    assert sorted(metrics) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())

    tally, metrics, _, _ = run.traced_run(spec, w, 0)
    assert tally["failed"] == 0, tally["problems"]
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert metrics["trace.missing_sites"][0] == 0
    assert metrics["laurent.mul.calls"][0] > 0
    if name == "thm-grid":
        assert metrics["hypergeom.phi_evaluate.total_s"][0] == 0
        assert metrics["sums.f_term.calls"][0] > 0
    else:
        assert metrics["sums.lhs.total_s"][0] == 0
        assert metrics["hypergeom.series_terms"][0] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = benchmark_json()["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "thm-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
