"""Command-line interface tests."""

import collections
import concurrent.futures
import itertools
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from qidentities import q_binomial, theorem1_lhs
from qidentities.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# -- eval --------------------------------------------------------------------


def test_eval_qbinom_text(capsys):
    rc, out = run(capsys, "eval", "--kind", "qbinom", "--n", "4", "--k", "2")
    assert rc == 0
    assert out == "q^2 + q + 2 + q^(-1) + q^(-2)\n"


def test_eval_qint_zero(capsys):
    rc, out = run(capsys, "eval", "--kind", "qint", "--alpha", "0")
    assert rc == 0
    assert out == "0\n"


def test_eval_rhs_thm2(capsys):
    rc, out = run(
        capsys, "eval", "--kind", "rhs", "--identity", "thm2", "--d1", "1", "--d2", "1"
    )
    assert rc == 0
    assert out == "q + 1 + q^(-1)\n"


def test_eval_json_format(capsys):
    rc, out = run(
        capsys, "eval", "--kind", "qbinom", "--n", "3", "--k", "1", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out) == [[2, "1"], [0, "1"], [-2, "1"]]


def test_eval_latex_format(capsys):
    rc, out = run(
        capsys, "eval", "--kind", "qint", "--alpha", "1", "--format", "latex"
    )
    assert rc == 0
    assert out == "q^{1/2} - q^{-1/2}\n"


def test_eval_f_and_lhs(capsys):
    rc, out = run(
        capsys, "eval", "--kind", "f", "--D", "8", "--d1", "2", "--k0", "2"
    )
    assert rc == 0
    assert out.strip() == q_binomial(8, 2).render("plain")
    rc, out = run(
        capsys, "eval", "--kind", "lhs", "--identity", "thm1", "--d0", "2", "--d1", "1"
    )
    assert rc == 0
    assert out.strip() == theorem1_lhs(2, 1).render("plain")


def test_eval_nlog(capsys):
    rc, out = run(
        capsys, "eval", "--kind", "nlog", "--surface", "dP1_04", "--p", "2", "--r", "1"
    )
    assert rc == 0
    assert out == "q^(3/2) + q^(1/2) + q^(-1/2) + q^(-3/2)\n"


def test_eval_missing_parameter_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--kind", "qbinom", "--n", "4"])
    assert info.value.code == 2


def test_eval_domain_error_exit_code(capsys):
    rc = main(["eval", "--kind", "rhs", "--identity", "thm1", "--d0", "2", "--d1", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "InvalidHypothesis" in err


@pytest.mark.parametrize("kind", ["lhs", "rhs"])
@pytest.mark.parametrize("params", [
    ["--D", "4", "--d1", "0", "--k0", "1"],
    ["--D", "4", "--d1", "2", "--k0", "3"],
    ["--D", "0", "--d1", "2", "--k0", "1"],
], ids=["d1-zero", "k0-above-d1", "D-zero"])
def test_eval_prop3_outside_hypothesis_is_domain_error(capsys, kind, params):
    # both sides share one domain: the lhs used to print the empty sum 0
    assert main(["eval", "--kind", kind, "--identity", "prop3", *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidHypothesis: outside the prop3 hypothesis")
    assert len(captured.err.splitlines()) == 1


# -- verify -------------------------------------------------------------------


def parse_records(out):
    lines = out.strip().splitlines()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


def test_verify_thm1_grid(capsys):
    rc, out = run(
        capsys, "verify", "--identity", "thm1", "--d0", "2..5", "--d1", "1..4"
    )
    assert rc == 0
    records, summary = parse_records(out)
    assert all(r["equal"] for r in records)
    assert summary == {"pass": 10, "fail": 0, "degenerate": 6}
    assert records[0]["params"] == {"d0": 2, "d1": 1}
    assert "elapsed_ms" not in records[0]


def test_verify_prop3_grid(capsys):
    rc, out = run(
        capsys,
        "verify", "--identity", "prop3",
        "--D", "2..10", "--d1", "1..5", "--k0", "1..5",
    )
    assert rc == 0
    _, summary = parse_records(out)
    assert summary["fail"] == 0
    assert summary["pass"] == 9 * 15  # valid (d1, k0) pairs per D


def test_verify_saalschutz_counts_degenerates(capsys):
    rc, out = run(
        capsys,
        "verify", "--identity", "saalschutz",
        "--a", "2..4", "--b", "4..4", "--c", "0..6", "--N", "1..2",
    )
    assert rc == 0
    records, summary = parse_records(out)
    assert summary["fail"] == 0
    assert summary["degenerate"] > 0
    assert all(r["equal"] for r in records)
    assert set(records[0]["lhs"]) == {"num", "den"}


def test_degenerate_saalschutz_cells_sum_no_series(monkeypatch):
    # the closed form goes first, so a cell whose denominator vanishes is
    # skipped before any series term is expanded.  Here a = q^-1 ends the
    # series after one term, before the lower parameter c = q^-1 vanishes,
    # but the closed form's (c; q)_3 vanishes
    import itertools

    import qidentities.cli as cli
    from qidentities import hypergeom

    calls = []
    original = hypergeom.qf_to_rational

    def spy(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(hypergeom, "qf_to_rational", spy)
    assert cli._run_cell("saalschutz", False, (-2, 1, -2, 3)) is None
    assert calls == []
    degenerate = 0
    for a, b, c, n in itertools.product(range(-3, 4), range(-3, 4), range(-3, 4), (1, 2, 3)):
        before = len(calls)
        result = cli._run_cell("saalschutz", False, (a, b, c, n))
        if result is None:
            degenerate += 1
            assert len(calls) == before, (a, b, c, n)
        else:
            assert result[0] is True
    assert 0 < degenerate < 7**3 * 3


def test_verify_selftest_corrupt_fails(capsys):
    rc, out = run(
        capsys, "verify", "--identity", "thm1", "--d0", "2..4", "--d1", "1..3"
    )
    assert rc == 0
    rc, out = run(
        capsys,
        "verify", "--identity", "thm1", "--d0", "2..4", "--d1", "1..3",
        "--selftest-corrupt",
    )
    assert rc == 1
    records, summary = parse_records(out)
    assert summary["fail"] == 1
    assert records[0]["equal"] is False


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_selftest_corrupt_perturbs_the_first_non_degenerate_cell(capsys, jobs):
    # the lower parameter c = x^-2 vanishes in range, so the first cell is
    # degenerate and the negative control must perturb the second
    rc, out = run(
        capsys,
        "verify", "--identity", "saalschutz", "--a", "1", "--b", "1", "--c=-2..-1",
        "--N", "2", "--selftest-corrupt", "--jobs", jobs,
    )
    assert rc == 1
    (record,), summary = parse_records(out)
    assert summary == {"pass": 0, "fail": 1, "degenerate": 1}
    assert record["params"]["c"] == -1 and record["equal"] is False


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_selftest_corrupt_reruns_the_first_checked_cell_from_its_tuple(
        monkeypatch, capsys, jobs):
    # (1, 1), (1, 2) and (2, 2) lie outside d0 > d1 >= 1; each cell, in a
    # worker at --jobs 2, finds that itself, so the control perturbs (2, 1)
    # by rerunning the tuple its result is paired with: no record is parsed
    import types

    import qidentities.cli as cli

    def no_parse(*args, **kwargs):
        raise AssertionError("verify parsed a record")

    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__, loads=no_parse)
    monkeypatch.setattr(cli, "json", proxy)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    rc, out = run(
        capsys, "verify", "--identity", "thm1", "--d0", "1..3", "--d1", "1..2",
        "--selftest-corrupt", "--jobs", jobs,
    )
    assert rc == 1
    records, summary = parse_records(out)
    assert summary == {"pass": 2, "fail": 1, "degenerate": 3}
    assert [r["params"] for r in records] == [
        {"d0": 2, "d1": 1}, {"d0": 3, "d1": 1}, {"d0": 3, "d1": 2},
    ]
    assert [r["equal"] for r in records] == [False, True, True]


def test_selftest_corrupt_leaves_the_series_memo_clean(capsys):
    # c = x^-3 and c = x^5 give one series, with lower parameters
    # {x^-3, x^5} (d = ab q^(1-N)/c), so the perturbed first cell's series
    # is summed again, from the memo, by the last cell, which must pass
    # with the lhs it has without the control
    argv = ["verify", "--identity", "saalschutz", "--a", "1", "--b", "3",
            "--c=-3..5", "--N", "2", "--jobs", "1"]
    rc, clean = run(capsys, *argv)
    assert rc == 0
    rc, out = run(capsys, *argv, "--selftest-corrupt")
    assert rc == 1
    records, summary = parse_records(out)
    assert summary == {"pass": 4, "fail": 1, "degenerate": 4}
    assert [r["params"]["c"] for r in records] == [-3, -1, 1, 3, 5]
    assert [r["equal"] for r in records] == [False, True, True, True, True]
    clean_records, _ = parse_records(clean)
    assert records[1:] == clean_records[1:]
    assert records[0]["lhs"] != clean_records[0]["lhs"] == clean_records[-1]["lhs"]


def test_serial_verify_checks_each_hypothesis_in_its_cell(monkeypatch, capsys):
    # the grid is a lazy stream: a serial run checks each cell's hypothesis
    # just before it computes the cell, not every cell's first
    import qidentities.cli as cli

    thm1 = cli.IDENTITIES["thm1"]
    calls = []

    def holds(d0, d1):
        calls.append(("holds", d0, d1))
        return thm1.holds(d0, d1)

    def lhs(d0, d1):
        calls.append(("lhs", d0, d1))
        return thm1.lhs(d0, d1)

    monkeypatch.setitem(cli.IDENTITIES, "thm1", thm1._replace(holds=holds, lhs=lhs))
    rc, out = run(capsys, "verify", "--identity", "thm1", "--d0", "1..3", "--d1", "1..2")
    assert rc == 0
    assert out.splitlines()[-1] == '{"pass":3,"fail":0,"degenerate":3}'
    assert calls == [
        ("holds", 1, 1), ("holds", 1, 2), ("holds", 2, 1), ("lhs", 2, 1),
        ("holds", 2, 2), ("holds", 3, 1), ("lhs", 3, 1), ("holds", 3, 2), ("lhs", 3, 2),
    ]


def test_equal_polynomial_sides_are_encoded_once(monkeypatch, capsys):
    import qidentities.cli as cli
    from qidentities import ONE, LaurentPoly, theorem2_rhs

    encoded = []
    to_json = LaurentPoly.to_json
    monkeypatch.setattr(
        LaurentPoly, "to_json", lambda self: encoded.append(self) or to_json(self)
    )
    equal, line = cli._run_cell("thm2", False, (2, 3))
    record = json.loads(line)
    assert equal is record["equal"] is True and len(encoded) == 1
    assert line.endswith("}\n") and line.count("\n") == 1
    assert record["lhs"] == record["rhs"]
    # an unequal cell encodes each side on its own
    encoded.clear()
    equal, line = cli._run_cell("thm2", False, (2, 3), corrupt=True)
    assert equal is False and len(encoded) == 2
    rhs = theorem2_rhs(2, 3)
    assert json.loads(line)["rhs"] == rhs.to_pairs() == record["rhs"]
    # the negative control's first cell is unequal: each side is its own
    rc, out = run(
        capsys, "verify", "--identity", "thm2", "--d1", "2", "--d2", "3..4",
        "--selftest-corrupt",
    )
    assert rc == 1
    (first, second), _ = parse_records(out)
    assert first["rhs"] == rhs.to_pairs() == record["rhs"]
    assert first["lhs"] == (rhs + ONE).to_pairs()
    assert second["lhs"] == second["rhs"] == theorem2_rhs(2, 4).to_pairs()


def dict_record_line(identity, params, corrupt=False, error=None, elapsed_ms=None):
    """A cell's record built as a dict and run through json.dumps, as
    verify wrote it before it wrote the text straight from to_json."""
    import qidentities.cli as cli
    from qidentities import ONE, RationalFunction

    record = {"identity": identity, "params": params}
    if error is not None:
        record.update(lhs=None, rhs=None, equal=False, error=error)
    else:
        ident = cli.IDENTITIES[identity]
        lhs, rhs = ident.lhs(*params.values()), ident.rhs(*params.values())
        if isinstance(lhs, RationalFunction):
            if corrupt:
                lhs = RationalFunction(lhs.num + lhs.den, lhs.den)
            record.update(lhs=lhs.to_json_obj(), rhs=rhs.to_json_obj())
        else:
            if corrupt:
                lhs = lhs + ONE
            record.update(lhs=lhs.to_pairs(), rhs=rhs.to_pairs())
        record["equal"] = lhs == rhs
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    return json.dumps(record, separators=(",", ":")) + "\n"


RECORD_CELLS = [
    ("thm1", {"d0": 5, "d1": 3}),
    ("thm2", {"d1": 3, "d2": 4}),
    ("prop3", {"D": 3, "d1": 4, "k0": 2}),
    ("saalschutz", {"a": 1, "b": -3, "c": 2, "N": 3}),
]


@pytest.mark.parametrize("corrupt", [False, True], ids=["equal", "unequal"])
@pytest.mark.parametrize("identity, params", RECORD_CELLS, ids=[c[0] for c in RECORD_CELLS])
def test_record_line_is_the_dict_records_dump(identity, params, corrupt):
    import qidentities.cli as cli

    equal, line = cli._run_cell(identity, False, tuple(params.values()), corrupt=corrupt)
    assert equal is not corrupt
    assert line == dict_record_line(identity, params, corrupt=corrupt)


def test_failed_record_line_escapes_its_message(monkeypatch):
    import qidentities.cli as cli

    message = 'path (a) says "1", path (b) says \\x, at q\u2192\u00bd'

    def disagree(d1, d2):
        raise ArithmeticError(message)

    monkeypatch.setattr(cli, "theorem2_lhs", disagree)
    params = {"d1": 2, "d2": 3}
    equal, line = cli._run_cell("thm2", False, tuple(params.values()))
    assert equal is False
    error = "ArithmeticError: " + message
    assert line == dict_record_line("thm2", params, error=error)
    assert line.isascii() and json.loads(line)["error"] == error


@pytest.mark.parametrize("identity, params", RECORD_CELLS[1::2], ids=["thm2", "saalschutz"])
def test_timed_record_line_is_the_dict_records_dump(monkeypatch, identity, params):
    import types

    import qidentities.cli as cli

    clock = iter([100.0, 100.0421])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    _, line = cli._run_cell(identity, True, tuple(params.values()))
    elapsed_ms = int((100.0421 - 100.0) * 1000)
    assert line == dict_record_line(identity, params, elapsed_ms=elapsed_ms)
    assert json.loads(line)["elapsed_ms"] == 42


def test_verify_jobs_deterministic(capsys):
    args = ["verify", "--identity", "prop3", "--D", "2..8", "--d1", "1..4", "--k0", "1..4"]
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args, "--jobs", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("args", [
    ["--identity", "thm1", "--d0", "2..9", "--d1", "1..8"],
    ["--identity", "thm2", "--d1", "1..6", "--d2", "1..6"],
])
def test_verify_theorem_grids_same_stdout_with_a_real_pool(monkeypatch, capsys, args):
    # each worker fills its own refined-sum and index memos, one chunk
    # after another; the records must not depend on which worker ran
    # a cell or what it ran before
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("qidentities.cli._usable_cpus", lambda: 2)
    rc1, out1 = run(capsys, "verify", *args, "--jobs", "1")
    assert sizes == []
    rc2, out2 = run(capsys, "verify", *args, "--jobs", "2")
    assert sizes == [2]
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1.splitlines()[-1])["fail"] == 0


class ForkedPool(concurrent.futures.ProcessPoolExecutor):
    """A real pool whose workers are forked, so that they run what a test
    patched in this process."""

    def __init__(self, max_workers):
        import multiprocessing

        super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))


def test_verify_saalschutz_records_are_encoded_in_the_workers(tmp_path, monkeypatch, capsys):
    # each worker writes its cells' fraction records; the parent encodes
    # only the summary line, and stdout is the serial run's
    import types

    import qidentities.cli as cli
    from qidentities import RationalFunction

    log = tmp_path / "encode.log"

    def logged(kind, encode):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write("%s %d\n" % (kind, os.getpid()))
            return encode(*args, **kwargs)
        return wrapper

    proxy = types.ModuleType("json")
    proxy.__dict__.update(json.__dict__, dumps=logged("dumps", json.dumps))
    monkeypatch.setattr(cli, "json", proxy)
    monkeypatch.setattr(RationalFunction, "to_json", logged("record", RationalFunction.to_json))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkedPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    args = ["verify", "--identity", "saalschutz", "--a=-2..2", "--b=-2..2", "--c=-2..2",
            "--N", "1..2"]

    def encodings(jobs):
        rc, out = run(capsys, *args, "--jobs", jobs)
        lines = log.read_text().splitlines()
        calls = collections.Counter(
            (kind, int(pid) == os.getpid()) for kind, pid in map(str.split, lines)
        )
        log.unlink()
        return rc, out, calls

    rc1, out1, serial = encodings("1")
    rc2, out2, pool = encodings("2")
    assert rc1 == rc2 == 0
    assert out1 == out2
    records, summary = parse_records(out1)
    assert summary == {"pass": 143, "fail": 0, "degenerate": 107}
    assert set(records[0]["lhs"]) == {"num", "den"}
    # one to_json per side of each of the 143 records, and one json.dumps,
    # the summary's, in the parent
    assert serial == {("record", True): 2 * 143, ("dumps", True): 1}
    assert pool == {("record", False): 2 * 143, ("dumps", True): 1}


def test_selftest_corrupt_with_a_real_pool_perturbs_a_cell_of_a_later_chunk(
        monkeypatch, capsys):
    # N < 0 lies outside the hypothesis, so the first 20 cells, the whole
    # first chunk among them, are not checked; the control reruns N = 0
    # from the params of the line a worker encoded
    import qidentities.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    args = ["verify", "--identity", "saalschutz", "--a", "1", "--b", "1", "--c", "1",
            "--N=-20..2", "--selftest-corrupt"]
    rc1, out1 = run(capsys, *args, "--jobs", "1")
    rc2, out2 = run(capsys, *args, "--jobs", "2")
    assert rc1 == rc2 == 1
    assert out1 == out2
    records, summary = parse_records(out2)
    assert summary == {"pass": 2, "fail": 1, "degenerate": 20}
    assert [(r["params"]["N"], r["equal"]) for r in records] == [
        (0, False), (1, True), (2, True),
    ]


def test_verify_reruns_byte_identical(capsys):
    args = ["verify", "--identity", "thm2", "--d1", "1..3", "--d2", "1..3"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_output_file_carries_timing(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    rc, out = run(
        capsys,
        "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
        "--output", str(target),
    )
    assert rc == 0
    summary = json.loads(out.strip())
    assert summary == {"pass": 4, "fail": 0, "degenerate": 0}
    lines = target.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert all("elapsed_ms" in r and r["elapsed_ms"] >= 0 for r in records)
    assert json.loads(lines[-1]) == summary


def test_verify_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"d1": "1..3", "d2": "1..2"}))
    rc, out = run(
        capsys,
        "verify", "--identity", "thm2", "--config", str(config), "--d2", "1..3",
    )
    assert rc == 0
    _, summary = parse_records(out)
    # the explicit flag wins over the config value for d2
    assert summary == {"pass": 9, "fail": 0, "degenerate": 0}


def test_verify_missing_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm1", "--d0", "2..4"])
    assert info.value.code == 2


def test_verify_bad_jobs_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm1", "--d0", "2..4", "--d1", "1..2",
              "--jobs", "0"])
    assert info.value.code == 2


def test_verify_internal_disagreement_is_failed_cell(tmp_path, monkeypatch, capsys):
    import qidentities.cli as cli

    def disagree(d1, d2):
        raise ArithmeticError("internal disagreement in theorem2_lhs(%d, %d)" % (d1, d2))

    monkeypatch.setattr(cli, "theorem2_lhs", disagree)
    rc, out = run(
        capsys, "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
        "--jobs", "1",
    )
    assert rc == 1
    records, summary = parse_records(out)
    assert summary == {"pass": 0, "fail": 4, "degenerate": 0}
    assert [r["params"] for r in records] == [
        {"d1": 1, "d2": 1}, {"d1": 1, "d2": 2}, {"d1": 2, "d2": 1}, {"d1": 2, "d2": 2},
    ]
    assert all(r["equal"] is False for r in records)
    assert records[0]["error"] == (
        "ArithmeticError: internal disagreement in theorem2_lhs(1, 1)"
    )
    assert list(records[0]) == ["identity", "params", "lhs", "rhs", "equal", "error"]
    # written to a file, the same record also carries its timing, last
    target = tmp_path / "report.jsonl"
    rc, out = run(
        capsys, "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
        "--jobs", "1", "--output", str(target),
    )
    assert rc == 1
    assert json.loads(out) == summary
    records, _ = parse_records(target.read_text())
    assert list(records[0]) == [
        "identity", "params", "lhs", "rhs", "equal", "error", "elapsed_ms",
    ]


def test_verify_expansion_error_is_failed_cell(monkeypatch, capsys):
    import qidentities.cli as cli
    from qidentities import NotDivisible

    original = cli.theorem2_rhs

    def not_divisible_once(d1, d2):
        if (d1, d2) == (1, 2):
            raise NotDivisible("no exact quotient by 1 - x^4")
        return original(d1, d2)

    monkeypatch.setattr(cli, "theorem2_rhs", not_divisible_once)
    rc, out = run(
        capsys, "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
        "--jobs", "1",
    )
    assert rc == 1
    records, summary = parse_records(out)
    assert summary == {"pass": 3, "fail": 1, "degenerate": 0}
    assert [r["params"] for r in records] == [
        {"d1": 1, "d2": 1}, {"d1": 1, "d2": 2}, {"d1": 2, "d2": 1}, {"d1": 2, "d2": 2},
    ]
    assert [r["equal"] for r in records] == [True, False, True, True]
    assert records[1] == {
        "identity": "thm2", "params": {"d1": 1, "d2": 2}, "lhs": None, "rhs": None,
        "equal": False, "error": "NotDivisible: no exact quotient by 1 - x^4",
    }


def test_verify_negative_ranges_readme_spelling(capsys):
    rc, out = run(
        capsys,
        "verify", "--identity", "saalschutz",
        "--a=-2..0", "--b=-1..0", "--c=-1..1", "--N", "1..1",
    )
    assert rc == 0
    records, summary = parse_records(out)
    assert summary["fail"] == 0
    assert summary["pass"] + summary["degenerate"] == 3 * 2 * 3
    assert min(r["params"]["a"] for r in records) < 0


def test_verify_config_integer_range(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"d1": 2, "d2": "1..3"}))
    rc, out = run(capsys, "verify", "--identity", "thm2", "--config", str(config))
    assert rc == 0
    records, summary = parse_records(out)
    assert summary == {"pass": 3, "fail": 0, "degenerate": 0}
    assert {r["params"]["d1"] for r in records} == {2}


def test_verify_config_bad_range_type_is_usage_error(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"d1": [1, 2], "d2": "1..2"}))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--config", str(config)])
    assert info.value.code == 2


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs each submitted task at once,
    in this process, and returns its completed Future, which holds the
    result or, as a worker's would, the exception the task raised."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def test_verify_config_jobs_is_applied(tmp_path, monkeypatch, capsys):
    used = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            used.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2"]
    rc, expected = run(capsys, *args)
    assert rc == 0 and used == []
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"jobs": 2}))
    rc, out = run(capsys, *args, "--config", str(config))
    assert rc == 0 and used == [2]
    assert out == expected
    # an explicit flag still wins over the config value
    rc, out = run(capsys, *args, "--config", str(config), "--jobs", "1")
    assert rc == 0 and used == [2]


@pytest.mark.parametrize("jobs", [0, -3, "2", 1.5, True, None])
def test_verify_config_bad_jobs_is_usage_error(tmp_path, capsys, jobs):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"jobs": jobs}))
    argv = ["verify", "--identity", "thm2", "--d1", "1", "--d2", "1",
            "--config", str(config)]
    if jobs is None:
        # JSON null leaves the default in place
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    if type(jobs) is int:
        # an integer is the text typed after --jobs, which _cmd_verify checks
        assert "--jobs must be an integer >= 1, got %d" % jobs in err
    else:
        assert "config value for jobs must be an integer, got %s" % json.dumps(jobs) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "config file must hold a JSON object, got [1, 2]"),
    ('"d1"', 'config file must hold a JSON object, got "d1"'),
    ("null", "config file must hold a JSON object, got null"),
    ('{"selftest_corrupt": "no"}',
     'config value for selftest_corrupt must be true or false, got "no"'),
    ('{"selftest-corrupt": 1}',
     "config value for selftest-corrupt must be true or false, got 1"),
    ('{"output": 5}', "config value for output must be a string, got 5"),
    ('{"output": ["x.jsonl"]}',
     'config value for output must be a string, got ["x.jsonl"]'),
    # the - and _ spellings of one flag: neither may silently win
    ('{"selftest_corrupt": true, "selftest-corrupt": false, "d1": "1", "d2": "1"}',
     'config keys "selftest_corrupt" and "selftest-corrupt" both name --selftest-corrupt'),
    ('{"selftest-corrupt": null, "selftest_corrupt": true}',
     'config keys "selftest-corrupt" and "selftest_corrupt" both name --selftest-corrupt'),
], ids=["array", "string", "null", "corrupt-string", "corrupt-int", "output-int",
        "output-array", "corrupt-twice", "corrupt-twice-one-null"])
def test_verify_config_bad_shape_is_usage_error(tmp_path, capsys, content, message):
    config = tmp_path / "grid.json"
    config.write_text(content)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--d1", "1", "--d2", "1",
              "--config", str(config)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qident verify")
    assert captured.err.splitlines()[-1] == "qident verify: error: " + message
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "key", ["job", "run", "subparser", "command", "help", "config", "identity"])
def test_verify_config_unknown_key_is_usage_error(tmp_path, capsys, key):
    # help, config and identity name flags, but no flag a file may set:
    # --identity is required on the command line, so a file's value could
    # never take effect
    fixed = key in ("help", "config", "identity")
    message = "names a flag a config file may not set" if fixed else "names no verify flag"
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({key: 2, "d1": "1..2"}))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--d2", "1", "--config", str(config)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        'qident verify: error: config key "%s" %s' % (key, message)
    )


def test_verify_config_known_key_still_applies(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"selftest-corrupt": True, "d1": "1..2"}))
    rc, out = run(capsys, "verify", "--identity", "thm2", "--d2", "1",
                  "--config", str(config))
    assert rc == 1
    records, summary = parse_records(out)
    assert summary == {"pass": 1, "fail": 1, "degenerate": 0}
    assert [r["params"]["d1"] for r in records] == [1, 2]


def test_verify_config_does_not_replace_explicit_jobs_zero(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"jobs": 2}))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--d1", "1", "--d2", "1",
              "--jobs", "0", "--config", str(config)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs must be an integer >= 1, got 0" in captured.err


def test_verify_config_typed_values_are_applied(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(
        {"output": str(out_file), "selftest_corrupt": True, "jobs": None}
    ))
    rc, out = run(capsys, "verify", "--identity", "thm2", "--d1", "1", "--d2", "1",
                  "--config", str(config))
    assert rc == 1
    assert json.loads(out) == {"pass": 0, "fail": 1, "degenerate": 0}
    records, summary = parse_records(out_file.read_text())
    assert records[0]["equal"] is False and "elapsed_ms" in records[0]


CONFIG_CASES = [
    ({"d1": "1..3"}, ["--d1", "1..3"]),
    ({"d1": 2}, ["--d1", "2"]),
    ({"d1": "1..3", "jobs": 2}, ["--d1", "1..3", "--jobs", "2"]),
    ({"d1": "1..2", "output": "records.jsonl"}, ["--d1", "1..2", "--output", "records.jsonl"]),
    ({"d1": "1..2", "selftest-corrupt": True}, ["--d1", "1..2", "--selftest-corrupt"]),
    ({"d1": "1..2", "selftest_corrupt": False}, ["--d1", "1..2"]),
    ({"d1": "1..2", "jobs": None, "output": None, "a": None}, ["--d1", "1..2"]),
    # rejected: one usage line and exit 2
    ({"jobs": "2"}, None), ({"jobs": 1.5}, None), ({"jobs": True}, None), ({"jobs": 0}, None),
    ({"output": 5}, None), ({"output": ["x"]}, None),
    ({"selftest_corrupt": "no"}, None), ({"selftest_corrupt": 1}, None),
    ({"d1": [1, 2]}, None), ({"d1": True}, None), ({"d1": "x..2"}, None),
]


@pytest.mark.parametrize(
    "config, flags", CONFIG_CASES, ids=[json.dumps(c) for c, _ in CONFIG_CASES])
def test_verify_config_is_the_same_flags(tmp_path, monkeypatch, capsys, config, flags):
    # each config value is the text typed after its flag: the same exit
    # code, stdout, worker count and --output records either way
    import qidentities.cli as cli

    used = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            used.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(json.dumps({"d1": "1", **config}))
    argv = ["verify", "--identity", "thm2", "--d2", "1..2"]
    if flags is None:
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", "grid.json"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: qident verify")
        lines = captured.err.splitlines()
        assert [l for l in lines if "error:" in l] == [lines[-1]]
        assert "Traceback" not in captured.err
        return

    def outcome(*extra):
        used.clear()
        rc, out = run(capsys, *argv, *extra)
        records = []
        if os.path.exists("records.jsonl"):
            records, _ = parse_records(open("records.jsonl").read())
            os.remove("records.jsonl")
            for r in records:
                del r["elapsed_ms"]
        return rc, out, list(used), records

    assert outcome("--config", "grid.json") == outcome(*flags)


def test_verify_config_bad_value_under_an_explicit_flag_is_unused(tmp_path, capsys):
    # an explicit flag wins over any config value, malformed or of the
    # wrong JSON type, as it wins over a valid one
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"d1": [1, 2], "d2": "x..2", "jobs": "2", "output": 5}))
    argv = ["verify", "--identity", "thm2", "--d1", "1", "--d2", "1", "--jobs", "1"]
    target = str(tmp_path / "records.jsonl")
    assert run(capsys, *argv, "--output", target) == run(
        capsys, *argv, "--output", target, "--config", str(path))
    # without --output, the file's output value applies, and is rejected
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", str(path)])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "qident verify: error: config value for output must be a string, got 5\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_interrupted_run_keeps_finished_records(
        tmp_path, monkeypatch, capsys, jobs):
    # the 20th cell raises: a serial run keeps the 19 records before it, a
    # pool the 18 of the six 3-cell chunks before the one that raised (96
    # cells at 2 workers give 3-cell chunks, 16 per worker)
    import qidentities.cli as cli

    original = cli.theorem2_lhs
    calls = []

    def fail_20th(d1, d2):
        calls.append((d1, d2))
        if len(calls) == 20:
            raise RuntimeError("interrupted")
        return original(d1, d2)

    monkeypatch.setattr(cli, "theorem2_lhs", fail_20th)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    target = tmp_path / "report.jsonl"
    with pytest.raises(RuntimeError):
        main(["verify", "--identity", "thm2", "--d1", "1..8", "--d2", "1..12",
              "--jobs", str(jobs), "--output", str(target)])
    lines = target.read_text().splitlines()
    kept = {1: 19, 2: 18}[jobs]
    assert [json.loads(line)["params"] for line in lines] == [
        {"d1": d1, "d2": d2} for d1 in range(1, 9) for d2 in range(1, 13)
    ][:kept]
    assert all(json.loads(line)["equal"] is True for line in lines)


def test_verify_unopenable_output_runs_no_cell(monkeypatch, capsys):
    import qidentities.cli as cli

    ran = []
    monkeypatch.setattr(cli, "_run_cell", ran.append)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1",
              "--output", "/nonexistent/x.jsonl"])
    assert info.value.code == 2
    assert ran == []


# -- explain -------------------------------------------------------------------


def test_explain_prop3(capsys):
    rc, out = run(
        capsys, "explain", "--identity", "prop3", "--D", "8", "--d1", "2", "--k0", "2"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    label, term = lines[0].split("\t")
    assert json.loads(label) == {"parts": [1], "mults": [2]}
    assert term == q_binomial(8, 2).render("plain")
    assert lines[1] == "total\t" + q_binomial(8, 2).render("plain")


def test_explain_thm1_lists_k0(capsys):
    rc, out = run(capsys, "explain", "--identity", "thm1", "--d0", "2", "--d1", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    label = json.loads(lines[0].split("\t")[0])
    assert label == {"k0": 0, "parts": [1], "mults": [1]}


def test_explain_totals_match_eval(capsys):
    # prop3's explain takes any d1, k0 >= 0, d1 = 0 and k0 > d1 included, so
    # its terms sum to eval --kind f; eval --kind lhs keeps to the hypothesis
    grid = [("thm1", ["--kind", "lhs", "--identity", "thm1"], ("--d0", d0, "--d1", d1))
            for d0 in range(2, 6) for d1 in range(1, d0)]
    grid += [("thm2", ["--kind", "lhs", "--identity", "thm2"], ("--d1", d1, "--d2", d2))
             for d1 in range(1, 5) for d2 in range(1, 5)]
    grid += [("prop3", ["--kind", "f"], ("--D", D, "--d1", d1, "--k0", k0))
             for D in range(1, 5) for d1 in range(5) for k0 in range(6)]
    for ident, kind, params in grid:
        params = [str(p) for p in params]
        rc, explain_out = run(capsys, "explain", "--identity", ident, *params)
        assert rc == 0, params
        total = explain_out.strip().splitlines()[-1].split("\t", 1)[1]
        rc, eval_out = run(capsys, "eval", *kind, *params)
        assert (rc, total) == (0, eval_out.strip()), (ident, params)


def test_explain_prop3_lists_the_empty_index_at_weight_zero(capsys):
    rc, out = run(capsys, "explain", "--identity", "prop3", "--D", "4", "--d1", "0", "--k0", "0")
    assert rc == 0
    assert out == '{"parts":[],"mults":[]}\t1\ntotal\t1\n'


def test_explain_total_matches_library_value(capsys):
    from qidentities import theorem2_lhs

    _, out = run(capsys, "explain", "--identity", "thm2", "--d1", "3", "--d2", "2")
    total = out.strip().splitlines()[-1].split("\t", 1)[1]
    assert total == theorem2_lhs(3, 2).render("plain")


SAALSCHUTZ_POINT = ["--identity", "saalschutz", "--a", "1", "--b", "3", "--c", "5", "--N", "2"]


def test_explain_saalschutz_lists_the_series_terms(capsys):
    # each term k = 0..N is a fraction, and they add up to eval's lhs text
    rc, out = run(capsys, "explain", *SAALSCHUTZ_POINT)
    assert rc == 0
    lines = out.splitlines()
    assert [json.loads(line.split("\t")[0]) for line in lines[:-1]] == [{"k": k} for k in range(3)]
    assert lines[0] == '{"k":0}\t(1)/(1)'
    rc, lhs = run(capsys, "eval", "--kind", "lhs", *SAALSCHUTZ_POINT)
    assert (rc, lines[-1]) == (0, "total\t" + lhs.rstrip("\n"))


@pytest.mark.parametrize("command", [
    ["explain"], ["eval", "--kind", "lhs"], ["eval", "--kind", "rhs"],
], ids=["explain", "eval-lhs", "eval-rhs"])
@pytest.mark.parametrize("params, error", [
    (["--a", "1", "--b", "1", "--c=-2", "--N", "2"], "Degenerate"),
    (["--a", "1", "--b", "3", "--c", "5", "--N=-1"], "(InvalidHypothesis|ValueError)"),
], ids=["degenerate", "negative-N"])
def test_saalschutz_cell_not_checked_is_one_line(capsys, command, params, error):
    assert main([*command, "--identity", "saalschutz", *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(error + r": .+\n", captured.err), captured.err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--kind", "f", "--D", "4", "--d1", "-1", "--k0", "1"],
     "ValueError: d1 and k0 must be nonnegative\n"),
    (["explain", "--identity", "prop3", "--D", "8", "--d1", "2", "--k0", "-1"],
     "ValueError: d1 and k0 must be nonnegative\n"),
], ids=["eval-f", "explain-prop3-negative-k0"])
def test_library_value_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


HUGE = "99999999999999999999"  # past any list index, so x^HUGE cannot expand
SAALSCHUTZ_HUGE = ["verify", "--identity", "saalschutz", "--a", HUGE, "--b", "1..2",
                   "--c", "1", "--N", "1"]


@pytest.mark.parametrize("argv", [
    ["eval", "--kind", "qint", "--alpha", HUGE],
    ["eval", "--kind", "qbinom", "--n", HUGE, "--k", "1"],
    SAALSCHUTZ_HUGE + ["--jobs", "1"],
    SAALSCHUTZ_HUGE + ["--jobs", "2"],
], ids=["eval-qint", "eval-qbinom", "verify-serial", "verify-pool"])
def test_exponent_too_large_to_expand_is_one_line(monkeypatch, capsys, argv):
    # a bad input, not a refuted identity: exit 2 and no failed record
    import qidentities.cli as cli

    pools = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            pools.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"OverflowError: factor x-exponent \d+ is too large to expand\n", captured.err
    )
    assert pools == ([2] if argv[-1] == "2" else [])


def _run_capped(argv):
    """The CLI in a fresh interpreter whose address space is capped at 1 GB,
    so a count that gets built instead of rejected fails fast with a
    MemoryError rather than exhausting the machine."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "qidentities.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60, preexec_fn=cap,
    )


def _communicate_or_kill(proc, timeout=60):
    """proc.communicate(); past the timeout, kill proc's process group (it
    was started with start_new_session), pool workers too, before the
    TimeoutExpired fails the test."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise


SAALSCHUTZ_HUGE_N = ["verify", "--identity", "saalschutz", "--a", "1", "--b", "1",
                     "--N", HUGE]


THM2_D2_OUT_OF_MEMORY = ["--identity", "thm2", "--d1", "1", "--d2", "100000000000"]


TOO_LARGE_EXPONENT = (
    "OverflowError: factor x-exponent 199999999999999999998 is too large to expand\n"
)


@pytest.mark.parametrize("argv, error", [
    (["eval", "--kind", "rhs", "--identity", "thm2", "--d1", "1", "--d2", HUGE],
     TOO_LARGE_EXPONENT),
    (["eval", "--kind", "nlog", "--surface", "F0_04", "--p", "1", "--r", HUGE],
     TOO_LARGE_EXPONENT),
    (["eval", "--kind", "rhs", "--identity", "prop3", "--D", "1", "--d1", HUGE,
      "--k0", "2"], "OverflowError: factor x-exponent "),
    (SAALSCHUTZ_HUGE_N + ["--c", "1"], "OverflowError: Pochhammer count "),
    (["eval", "--kind", "qint", "--alpha", "10000000000"], "MemoryError: "),
    (["eval", "--kind", "rhs"] + THM2_D2_OUT_OF_MEMORY, "MemoryError: "),
    (["verify"] + THM2_D2_OUT_OF_MEMORY + ["--jobs", "1"], "MemoryError: "),
    (["verify"] + THM2_D2_OUT_OF_MEMORY + ["--jobs", "2"], "MemoryError: "),
], ids=["thm2-rhs", "nlog", "prop3-rhs", "saalschutz", "qint-memory",
        "thm2-rhs-memory", "verify-memory-serial", "verify-memory-jobs-2"])
def test_count_too_large_to_expand_is_one_line(argv, error):
    # a Pochhammer count past any list index is rejected before a factor
    # list is built, and a factor x^e with e past any list index before it
    # is expanded; one that fits a list index but not memory runs out of
    # it, and is reported the same way
    done = _run_capped(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(error) and done.stderr.count("\n") == 1


def test_huge_q_binomial_on_a_short_row_side_is_exact():
    # qbinom(0, H - 1) = 0 and qbinom(H - 1, H - 1) = 1 on its short side,
    # so the refined sum's closed form is the exact zero however large H is
    done = _run_capped(["eval", "--kind", "rhs", "--identity", "prop3", "--D", "1",
                        "--d1", HUGE, "--k0", HUGE])
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_huge_pochhammer_count_vanishing_in_range_stays_degenerate():
    # (q^-1; q)_N vanishes at its second factor, however large N is
    done = _run_capped(SAALSCHUTZ_HUGE_N + ["--c", "-2"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == '{"pass":0,"fail":0,"degenerate":1}\n'


@pytest.mark.parametrize("axes", [
    ["--a", "1", "--b", "1", "--c", "1", "--N", "1..100000000000"],
    ["--a", "1..100000000000", "--b", "1", "--c", "1", "--N", "1"],
    ["--a", "1", "--b", "1", "--c", "1", "--N", "1..100000000000000000000"],
    ["--a", "1..100000000000000000000", "--b", "1", "--c", "1", "--N", "1"],
], ids=["last-axis", "first-axis", "last-axis-past-maxsize", "first-axis-past-maxsize"])
def test_verify_reads_a_long_grid_axis_lazily(axes):
    # an axis of 10^11 values is read one value at a time, so the first
    # record comes at once; under the 200 MB address-space cap a copy of
    # the axis fails fast with a MemoryError instead of filling memory. An
    # axis of 10^20 values, more than sys.maxsize, has no len() and runs
    # the same way
    import resource
    import threading

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "qidentities.cli", "verify", "--identity", "saalschutz"]
    with subprocess.Popen(argv + axes, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, preexec_fn=cap) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
        finally:
            watchdog.cancel()
            proc.kill()
        err = proc.stderr.read()
    assert first, err
    assert json.loads(first)["params"] == {"a": 1, "b": 1, "c": 1, "N": 1}


def test_verify_long_grid_at_jobs_2_under_a_memory_cap():
    # the parent keeps at most 4 chunks per worker in flight, so a pool run
    # needs no more memory for 300,000 cells than for 300; with every chunk
    # submitted at once this grid peaked at 145 MB of RSS, and under the cap
    # it ended in a MemoryError or hung. Under a cap much above 80 MB glibc
    # can reserve a 64 MB malloc arena for a pool thread, and a later
    # thread's stack may then not fit
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (80 << 20, 80 << 20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "qidentities.cli", "verify", "--identity", "saalschutz",
            "--a", "1", "--b", "1", "--c=-2", "--N", "1..300000", "--jobs", "2"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, preexec_fn=cap, start_new_session=True) as proc:
        out, err = _communicate_or_kill(proc)
    assert (proc.returncode, err) == (0, "")
    record, summary = out.splitlines()
    assert json.loads(record)["params"] == {"a": 1, "b": 1, "c": -2, "N": 1}
    assert summary == '{"pass":1,"fail":0,"degenerate":299999}'


@pytest.mark.parametrize("argv, flags", [
    # explain takes only the parameters of the identities it explains
    (["explain", "--identity", "thm2", "--d1", "2", "--d2", "1",
      "--alpha", "7", "--surface", "F0_04"], "--alpha 7 --surface F0_04"),
    # only verify runs a pool
    (["eval", "--kind", "qbinom", "--n", "4", "--k", "2", "--jobs", "2"], "--jobs 2"),
], ids=["explain-alpha-surface", "eval-jobs"])
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, argv, flags):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + flags in captured.err


@pytest.mark.parametrize("argv, message", [
    (["explain", "--identity", "thm2", "--d1", "2", "--d2", "1",
      "--d0", "9", "--k0", "5", "--D", "3"],
     "qident explain: error: --identity thm2 does not read --d0, --D, --k0\n"),
    (["eval", "--kind", "qbinom", "--n", "4", "--k", "2",
      "--alpha", "3", "--surface", "F0_04", "--d0", "7"],
     "qident eval: error: --kind qbinom does not read --alpha, --d0, --surface\n"),
    (["eval", "--kind", "lhs", "--identity", "thm1", "--d0", "3", "--d1", "1",
      "--d2", "4"],
     "qident eval: error: --kind lhs --identity thm1 does not read --d2\n"),
    (["eval", "--kind", "qint", "--alpha", "1", "--identity", "thm1"],
     "qident eval: error: --kind qint does not read --identity\n"),
    (["eval", "--kind", "qbinom", "--n", "4", "--k", "2", "--N", "9"],
     "qident eval: error: --kind qbinom does not read --N\n"),
    (["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1", "--a", "3", "--N", "2"],
     "qident verify: error: --identity thm2 does not read --a, --N\n"),
], ids=["explain", "eval-kind", "eval-identity", "eval-identity-flag", "eval-kind-N",
        "verify"])
def test_flag_the_choice_does_not_read_is_usage_error(capsys, argv, message):
    # a flag of the subcommand that the chosen --identity or --kind ignores
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qident %s " % argv[0])
    assert captured.err.endswith(message)
    assert len([l for l in captured.err.splitlines() if "error:" in l]) == 1


def test_verify_config_range_the_identity_does_not_read_is_usage_error(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"d1": "1..2", "d2": "1", "a": "0..3"}))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--config", str(config)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("qident verify: error: --identity thm2 does not read --a\n")


def test_unrecognized_argument_gets_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--kind", "qbinom", "--n", "4", "--k", "2", "--jobs", "2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qident eval [-h] --kind")
    assert captured.err.endswith("qident eval: error: unrecognized arguments: --jobs 2\n")


@pytest.mark.parametrize("argv, prefix", [
    (["eval", "--kind", "qint", "--al", "3"], "--al 3"),
    (["verify", "--identity", "thm2", "--d1", "1", "--d2", "1", "--sel"], "--sel"),
    (["explain", "--identity", "thm2", "--d1", "3", "--d2", "2", "--iden", "thm1"], "--iden thm1"),
], ids=["eval-alpha", "verify-selftest-corrupt", "explain-identity"])
def test_flag_prefix_is_not_read_as_the_flag(capsys, argv, prefix):
    # a unique prefix of a flag (--alpha, --selftest-corrupt, --identity)
    # is no spelling of it: one usage message, nothing run
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qident %s [-h]" % argv[0])
    assert captured.err.count("usage:") == 1
    assert captured.err.endswith(
        "qident %s: error: unrecognized arguments: %s\n" % (argv[0], prefix))


def _printed_after_import(expr, *flags):
    """What a fresh interpreter, started with flags, prints for expr once
    it imported qidentities.cli."""
    code = "import sys, qidentities.cli; print(%s)" % expr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_does_not_load_process_pool():
    # multiprocessing is imported only on the path that starts workers
    assert _printed_after_import("'concurrent.futures.process' in sys.modules") == "False\n"


def test_import_does_not_load_typing_dataclasses_or_inspect():
    # every launch pays for what the import loads; the package's value
    # types and the registry's Identity are namedtuple subclasses, which
    # need none of these modules.  -S keeps site, which may import typing
    # itself, from loading any of them first.
    printed = _printed_after_import(
        "sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules))", "-S")
    assert printed == "[]\n"


# -- exit path -----------------------------------------------------------------


def test_run_freezes_once_after_main(monkeypatch, capsys):
    import qidentities.cli as cli

    events = []
    real_main = cli.main

    def spy_main(argv=None):
        events.append("main")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", spy_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    # the negative control fails its first cell, so the exit code is 1
    argv = ["verify", "--identity", "thm2", "--d1", "1", "--d2", "1..2", "--selftest-corrupt"]
    assert cli.run(argv) == 1
    assert events == ["main", "freeze"]
    assert cli.run(["eval", "--kind", "qint", "--alpha", "1"]) == 0
    assert events == ["main", "freeze"] * 2
    out = capsys.readouterr().out
    assert out.endswith('{"pass":1,"fail":1,"degenerate":0}\nq^(1/2) - q^(-1/2)\n')


def test_main_never_freezes(monkeypatch, capsys):
    import qidentities.cli as cli

    def freeze():
        raise AssertionError("main() froze the collector")

    monkeypatch.setattr(cli.gc, "freeze", freeze)
    assert main(["eval", "--kind", "qint", "--alpha", "1"]) == 0
    assert main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1"]) == 0
    assert main(["explain", "--identity", "thm2", "--d1", "2", "--d2", "1"]) == 0


SAALSCHUTZ_GRID = ["verify", "--identity", "saalschutz", "--a=-6..6", "--b=-6..6",
                   "--c=-6..6", "--N", "1..5"]


@pytest.mark.parametrize("argv", [
    SAALSCHUTZ_GRID + ["--jobs", "1"],
    SAALSCHUTZ_GRID + ["--jobs", "2"],
    ["explain", "--identity", "thm2", "--d1", "12", "--d2", "10"],
    # the first 16-cell chunk takes well under a second, the next ones
    # minutes: the run must end the workers' chunks, not wait for them
    ["verify", "--identity", "saalschutz", "--a", "1", "--b", "1", "--c", "1",
     "--N", "1..1024", "--jobs", "2"],
], ids=["verify-serial", "verify-pool", "explain", "verify-pool-running-chunks"])
def test_closed_stdout_ends_the_run_quietly(argv):
    # each command writes far more than a pipe holds, so the reader's close
    # reaches the CLI while it is still writing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qidentities.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = _communicate_or_kill(proc)
    assert (proc.returncode, err) == (141, b"")


THM2_GRID = ["verify", "--identity", "thm2", "--d1", "1..3", "--d2", "1..3"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, stdout", [
    (["eval", "--kind", "qint", "--alpha", "1"], "/dev/full"),
    (["explain", "--identity", "thm2", "--d1", "3", "--d2", "2"], "/dev/full"),
    (THM2_GRID, "/dev/full"),
    (THM2_GRID + ["--output", "/dev/full"], os.devnull),
], ids=["eval", "explain", "verify", "verify-output"])
def test_failed_write_is_one_line(argv, stdout):
    # a full disk is not a refuted identity: exit 2, not 1, and no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with open(stdout, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "qidentities.cli", *argv], env=env,
            stdout=out, stderr=subprocess.PIPE, timeout=60,
        )
    assert proc.returncode == 2
    assert re.fullmatch(rb"OSError: .*\n", proc.stderr), proc.stderr


def test_closed_stdout_cancels_the_queued_cells(monkeypatch):
    # an error ends the pool's workers, not the caller's own children, then
    # drops the queued chunks; a normal exit only shuts the pool down
    import io
    import multiprocessing

    import qidentities.cli as cli

    calls = []

    class Worker:
        def __init__(self, name):
            self.name = name

        def terminate(self):
            calls.append("terminate " + self.name)

    children = [Worker("caller's child")]

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            children.append(Worker("pool worker"))

        def shutdown(self, wait=True, *, cancel_futures=False):
            calls.append(cancel_futures)

    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(multiprocessing, "active_children", lambda: list(children))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli.sys, "stdout", ClosedStdout())
    argv = ["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1", "--jobs", "2"]
    with pytest.raises(BrokenPipeError):
        main(argv)
    assert calls == ["terminate pool worker", True]
    calls.clear()
    monkeypatch.setattr(cli.sys, "stdout", io.StringIO())
    assert main(argv) == 0
    assert calls == [True]


def test_dead_worker_is_one_line_not_a_failed_cell(monkeypatch, capsys):
    # a worker that dies (as one the OOM killer ends) refutes nothing: exit
    # 2 with one line, not a traceback and exit 1, and the queued chunks
    # are dropped
    import qidentities.cli as cli

    cancelled = []

    class RecordingPool(ForkedPool):
        # forked, so the workers run the patched registry entry below
        def shutdown(self, wait=True, *, cancel_futures=False):
            cancelled.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    thm2 = cli.IDENTITIES["thm2"]

    def lhs(d1, d2):
        if (d1, d2) == (2, 2):
            os._exit(1)
        return thm2.lhs(d1, d2)

    monkeypatch.setitem(cli.IDENTITIES, "thm2", thm2._replace(lhs=lhs))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    rc = main(["verify", "--identity", "thm2", "--d1", "1..6", "--d2", "1..6", "--jobs", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert re.fullmatch(r"BrokenProcessPool: .*\n", captured.err), captured.err
    # the 36 cells run in 2-cell chunks: only chunks that finished before
    # the one that died, those of cells before (2, 2), may have written
    # their records, in cell order, and there is no summary line
    before = [{"d1": 1, "d2": d2} for d2 in range(1, 7)] + [{"d1": 2, "d2": 1}]
    params = [json.loads(line)["params"] for line in captured.out.splitlines()]
    assert params == before[:len(params)] and len(params) % 2 == 0
    assert cancelled[0] is True


def test_dead_pool_manager_thread_is_one_line_not_a_hang():
    # the pool's manager thread starts the call queue's feeder thread; if
    # that cannot start (say, under a tight address-space cap), the manager
    # dies and no chunk ever completes.  The run must notice, exit 2 and end
    # stderr with one BrokenProcessPool line, not wait forever
    script = "\n".join([
        "import multiprocessing.queues, os, sys",
        "from qidentities import cli",
        "def refuse(self):",
        "    raise RuntimeError(\"can't start new thread\")",
        "multiprocessing.queues.Queue._start_thread = refuse",
        "cli._usable_cpus = lambda: 2",
        "sys.exit(cli.run(%r))" % (THM2_GRID + ["--jobs", "2"]),
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True, text=True,
    )
    out, err = _communicate_or_kill(proc, timeout=30)
    # (Python 3.12's pool reports the same fault as its workers lost)
    assert (proc.returncode, out) == (2, "")
    assert re.fullmatch(r"BrokenProcessPool: .*", err.splitlines()[-1]), err


def test_worker_ended_while_sending_a_result_does_not_hang_the_close():
    # a worker ended after the length header of a result and before its
    # bytes, as a closed stdout can end one, leaves the manager thread
    # reading the rest; the close after an error must still return
    script = "\n".join([
        "import multiprocessing, os, struct, time",
        "from concurrent.futures import ProcessPoolExecutor",
        "from qidentities import cli",
        "sent = multiprocessing.get_context('fork').Event()",
        "def half_a_result():",
        "    results = multiprocessing.current_process()._args[1]",
        "    os.write(results._writer.fileno(), struct.pack('!i', 1 << 20))",
        "    sent.set()",
        "    time.sleep(60)",
        "pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context('fork'))",
        "pool.submit(half_a_result)",
        "assert sent.wait(20)",
        "cli._close_pool(pool, set(), BrokenPipeError, BrokenPipeError(), None)",
        "print('closed')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True, text=True,
    )
    out, err = _communicate_or_kill(proc, timeout=30)
    assert (proc.returncode, out, err) == (0, "closed\n", "")


def test_pool_internals_read_by_the_pool_fixes_exist():
    # _result reads the pool's manager thread and _close_pool the write end
    # of its result pipe, both private and read through getattr(..., None):
    # a Python that renames either turns those fixes off without an error,
    # and the two tests above then fail only by their 30 s timeouts
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(abs, -1).result(timeout=30) == 1
        assert getattr(pool, "_executor_manager_thread", None) is not None
        assert getattr(getattr(pool, "_result_queue", None), "_writer", None) is not None


@pytest.mark.parametrize("cells, jobs, sizes", [
    (9, 2, [1] * 9),
    (20, 3, [1] * 20),
    (100, 2, [4] * 25),
    (127, 2, [4] * 31 + [3]),
    (300, 2, [10] * 30),
    (3000, 2, [16, 32, 64] + [94] * 30 + [68]),
])
def test_verify_small_grid_is_spread_over_the_workers(monkeypatch, capsys, cells, jobs, sizes):
    # the chunks hold min(16, limit) cells first and then twice the one
    # before, up to limit = ceil(cells / (16 * workers)), so a small grid
    # still gives each worker 16 chunks
    import qidentities.cli as cli

    submitted = []

    class RecordingPool(SerialPool):
        def submit(self, fn, identity, timing, chunk):
            submitted.append(len(chunk))
            return super().submit(fn, identity, timing, chunk)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    # N < 0 lies outside the hypothesis, so the cells cost nothing to run
    rc, out = run(capsys, "verify", "--identity", "saalschutz", "--a", "1", "--b", "1",
                  "--c", "1", "--N=-%d..-1" % cells, "--jobs", str(jobs))
    assert (rc, out) == (0, '{"pass":0,"fail":0,"degenerate":%d}\n' % cells)
    assert submitted == sizes


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_pool_task_carries_the_identity_and_timing_once(tmp_path, monkeypatch, capsys, output):
    # each task is _run_chunk(identity, timing, cells): the identity and
    # the timing flag once, and each cell as its tuple of ints in params
    # order, so the chunks together are the grid
    import qidentities.cli as cli

    tasks = []

    class RecordingPool(SerialPool):
        def submit(self, fn, *args):
            tasks.append((fn, args))
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["verify", "--identity", "thm1", "--d0", "1..6", "--d1", "1..5", "--jobs", "2"]
    if output:
        argv += ["--output", str(tmp_path / "report.jsonl")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(tasks) == 30
    cells = []
    for fn, args in tasks:
        assert fn is cli._run_chunk
        identity, timing, chunk = args
        assert (identity, timing) == ("thm1", output)
        assert all(type(v) is tuple and [type(x) for x in v] == [int, int] for v in chunk)
        cells += chunk
    assert cells == [(d0, d1) for d0 in range(1, 7) for d1 in range(1, 6)]


@pytest.mark.parametrize("cells, workers, sizes", [
    (9, 2, [1] * 9),
    (3000, 3, [16, 32] + [63] * 46 + [54]),
    (5000, 2, [16, 32, 64, 128] + [157] * 30 + [50]),
    (20000, 2, [16, 32, 64, 128] + [256] * 77 + [48]),
])
def test_pooled_chunks_follow_the_cell_count(monkeypatch, cells, workers, sizes):
    # the chunks double from 16 up to min(CHUNK_CELLS, ceil(cells / (16 *
    # workers))), the cells come back in order, and no more than 4 chunks
    # per worker are ever submitted and unread
    import qidentities.cli as cli

    submitted, unread = [], []

    class CountingPool(SerialPool):
        def submit(self, fn, identity, timing, chunk):
            future = super().submit(fn, identity, timing, chunk)
            submitted.append(len(chunk))
            unread.append(future)
            read = future.result

            def result(timeout=None):
                unread.remove(future)
                return read(timeout)

            future.result = result
            assert len(unread) <= 4 * workers
            return future

    monkeypatch.setattr(cli, "_run_cell", lambda identity, timing, values: values)
    results = list(
        cli._pooled(CountingPool(workers), "thm2", False, iter(range(cells)), cells, workers)
    )
    assert results == list(range(cells))
    assert unread == []
    assert submitted == sizes


def test_verify_growing_chunks_with_a_real_pool_same_stdout(monkeypatch, capsys):
    # 729 cheap Saalschutz cells, which go in chunks of 16 and then 23
    # cells: stdout must still be the serial run's, byte for byte
    import qidentities.cli as cli

    sizes = []

    class RecordingPool(ForkedPool):
        def submit(self, fn, identity, timing, chunk):
            sizes.append(len(chunk))
            return super().submit(fn, identity, timing, chunk)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    args = ["verify", "--identity", "saalschutz", "--a=-4..4", "--b=-4..4", "--c=-4..4",
            "--N", "1"]
    rc1, out1 = run(capsys, *args, "--jobs", "1")
    rc2, out2 = run(capsys, *args, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert sizes == [16] + [23] * 31


def test_error_at_jobs_2_ends_only_the_pools_workers(monkeypatch, capsys):
    # a caller's own child process outlives a pool run that fails: only
    # the workers the pool started are ended
    import multiprocessing
    import time

    import qidentities.cli as cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30,))
    child.start()
    try:
        # every N is past any exponent that can be expanded: each cell
        # raises OverflowError in a worker
        rc = main(["verify", "--identity", "saalschutz", "--a", "1", "--b", "1", "--c", "1",
                   "--N", "99999999999999999990..99999999999999999999", "--jobs", "2"])
        assert rc == 2
        assert "OverflowError" in capsys.readouterr().err
        assert child.is_alive() and child.exitcode is None
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()


# -- usage errors after parsing# -- usage errors after parsing ---------------------------------------------------


@pytest.mark.parametrize("argv, usage, message", [
    (["verify", "--identity", "thm1", "--d0", "2..4"],
     "usage: qident verify", "missing required parameter(s): d1"),
    (["verify", "--identity", "thm1", "--d0", "2..4", "--d1", "1..2", "--jobs", "0"],
     "usage: qident verify", "--jobs must be an integer >= 1, got 0"),
    (["verify", "--identity", "thm2", "--d1", "3..1", "--d2", "1"],
     "usage: qident verify", "empty range '3..1'"),
    (["verify", "--identity", "thm2", "--config", "/nonexistent/grid.json"],
     "usage: qident verify", "cannot read config file"),
    (["eval", "--kind", "qbinom", "--n", "4"],
     "usage: qident eval", "missing required parameter(s): k"),
    (["explain", "--identity", "prop3", "--D", "4"],
     "usage: qident explain", "missing required parameter(s): d1, k0"),
    (["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1",
      "--output", "/nonexistent/x.jsonl"],
     "usage: qident verify", "cannot open output file"),
    (["verify", "--identity", "thm2", "--d1", "1..", "--d2", "1"],
     "usage: qident verify", "--d1: expected A..B or an integer, got '1..'"),
    (["verify", "--identity", "thm2", "--d1", "1...3", "--d2", "1"],
     "usage: qident verify", "--d1: expected A..B or an integer, got '1...3'"),
    (["verify", "--identity", "thm2", "--d2", "1", "--config", "bad-d1.json"],
     "usage: qident verify", "--d1: expected A..B or an integer, got 'x..2'"),
])
def test_post_parse_usage_error_names_subcommand(
        tmp_path, monkeypatch, capsys, argv, usage, message):
    # the --config case reads bad-d1.json from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-d1.json").write_text(json.dumps({"d1": "x..2"}))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert message in captured.err


# -- worker cap ---------------------------------------------------------------------


@pytest.mark.parametrize("jobs, cpus, expected", [
    (64, 3, [3]),      # capped by the CPU count
    (64, 8, [4]),      # capped by the 4 cells
    (2, 8, [2]),       # the flag itself
    (64, 1, []),       # one CPU: serial, no pool
    (64, None, []),    # unknown CPU count counts as one
])
def test_verify_jobs_capped(monkeypatch, capsys, jobs, cpus, expected):
    # on a platform with no affinity mask, the CPU count caps the workers
    import qidentities.cli as cli

    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)

    used = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            used.append(max_workers)

    args = ["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2"]
    rc, serial = run(capsys, *args)
    assert rc == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    rc, out = run(capsys, *args, "--jobs", str(jobs))
    assert rc == 0
    assert used == expected
    assert out == serial


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
def test_verify_jobs_capped_by_the_cpus_the_process_may_run_on(monkeypatch, capsys):
    # pinned to one CPU of eight (taskset -c 0), --jobs 2 runs serially:
    # two workers would only share that CPU
    import qidentities.cli as cli

    used = []

    class RecordingPool(SerialPool):
        def __init__(self, max_workers):
            used.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    rc, _ = run(capsys, "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
                "--jobs", "2")
    assert rc == 0
    assert used == []
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 5})
    rc, _ = run(capsys, "verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
                "--jobs", "2")
    assert used == [2]
