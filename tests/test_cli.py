"""Command-line interface tests."""

import concurrent.futures
import json
import os
import re
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
def test_selftest_corrupt_reruns_the_first_checked_cell_from_its_record(
        monkeypatch, capsys, jobs):
    # (1, 1), (1, 2) and (2, 2) lie outside d0 > d1 >= 1; each cell, in a
    # worker at --jobs 2, finds that itself, so the control perturbs (2, 1)
    # by rerunning it from the params its record carries
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
    to_pairs = LaurentPoly.to_pairs
    monkeypatch.setattr(
        LaurentPoly, "to_pairs", lambda self: encoded.append(self) or to_pairs(self)
    )
    record = cli._run_cell(("thm2", {"d1": 2, "d2": 3}, False))
    assert record["equal"] is True and len(encoded) == 1
    assert record["lhs"] == record["rhs"]
    # the negative control's first cell is unequal: each side is its own
    rc, out = run(
        capsys, "verify", "--identity", "thm2", "--d1", "2", "--d2", "3..4",
        "--selftest-corrupt",
    )
    assert rc == 1
    (first, second), _ = parse_records(out)
    rhs = theorem2_rhs(2, 3)
    assert first["rhs"] == to_pairs(rhs) == record["rhs"]
    assert first["lhs"] == to_pairs(rhs + ONE)
    assert second["lhs"] == second["rhs"] == to_pairs(theorem2_rhs(2, 4))


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
    # each worker fills its own refined-sum and index memos, one 16-cell
    # chunk after another; the records must not depend on which worker ran
    # a cell or what it ran before
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc1, out1 = run(capsys, "verify", *args, "--jobs", "1")
    assert sizes == []
    rc2, out2 = run(capsys, "verify", *args, "--jobs", "2")
    assert sizes == [2]
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1.splitlines()[-1])["fail"] == 0


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


def test_verify_config_jobs_is_applied(tmp_path, monkeypatch, capsys):
    used = []

    class SerialPool:
        def __init__(self, max_workers):
            used.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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
    assert "--jobs must be an integer >= 1" in err
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
], ids=["array", "string", "null", "corrupt-string", "corrupt-int", "output-int",
        "output-array"])
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


@pytest.mark.parametrize("key", ["job", "run", "subparser", "command", "help", "config"])
def test_verify_config_unknown_key_is_usage_error(tmp_path, capsys, key):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({key: 2, "d1": "1..2"}))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm2", "--d2", "1", "--config", str(config)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        'qident verify: error: config key "%s" names no verify flag' % key
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


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs the cells lazily, in order,
    in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_interrupted_run_keeps_finished_records(
        tmp_path, monkeypatch, capsys, jobs):
    import qidentities.cli as cli

    original = cli.theorem2_lhs
    calls = []

    def fail_third(d1, d2):
        calls.append((d1, d2))
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return original(d1, d2)

    monkeypatch.setattr(cli, "theorem2_lhs", fail_third)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    target = tmp_path / "report.jsonl"
    with pytest.raises(RuntimeError):
        main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2",
              "--jobs", str(jobs), "--output", str(target)])
    lines = target.read_text().splitlines()
    assert [json.loads(line)["params"] for line in lines] == [
        {"d1": 1, "d2": 1}, {"d1": 1, "d2": 2},
    ]
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
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
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


@pytest.mark.parametrize("argv, flags", [
    # explain takes only the parameters of the identities it explains
    (["explain", "--identity", "thm2", "--d1", "2", "--d2", "1",
      "--alpha", "7", "--surface", "F0_04"], "--alpha 7 --surface F0_04"),
    # no eval kind reads --N
    (["eval", "--kind", "qbinom", "--n", "4", "--k", "2", "--N", "9"], "--N 9"),
], ids=["explain-alpha-surface", "eval-N"])
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
    (["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1", "--a", "3", "--N", "2"],
     "qident verify: error: --identity thm2 does not read --a, --N\n"),
], ids=["explain", "eval-kind", "eval-identity", "eval-identity-flag", "verify"])
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
        main(["eval", "--kind", "qbinom", "--n", "4", "--k", "2", "--N", "9"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qident eval [-h] --kind")
    assert captured.err.endswith("qident eval: error: unrecognized arguments: --N 9\n")


def _printed_after_import(expr):
    """What a fresh interpreter prints for expr once it imported qidentities.cli."""
    code = "import sys, qidentities.cli; print(%s)" % expr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_does_not_load_process_pool():
    # multiprocessing is imported only on the path that starts workers
    assert _printed_after_import("'concurrent.futures.process' in sys.modules") == "False\n"


def test_import_does_not_load_dataclasses_or_inspect():
    # every launch pays for what the import loads; the package's value
    # types are namedtuple subclasses, which need neither module
    printed = _printed_after_import("sorted({'dataclasses', 'inspect'} & set(sys.modules))")
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
], ids=["verify-serial", "verify-pool", "explain"])
def test_closed_stdout_ends_the_run_quietly(argv):
    # each command writes far more than a pipe holds, so the reader's close
    # reaches the CLI while it is still writing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qidentities.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
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
    import qidentities.cli as cli

    calls = []

    class RecordingPool(SerialPool):
        def shutdown(self, wait=True, *, cancel_futures=False):
            calls.append(cancel_futures)

    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.sys, "stdout", ClosedStdout())
    with pytest.raises(BrokenPipeError):
        main(["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1", "--jobs", "2"])
    assert calls == [True]


def test_dead_worker_is_one_line_not_a_failed_cell(monkeypatch, capsys):
    # a worker that dies (as one the OOM killer ends) refutes nothing: exit
    # 2 with one line, not a traceback and exit 1, and the queued chunks
    # are dropped
    import multiprocessing

    import qidentities.cli as cli

    cancelled = []

    class ForkedPool(concurrent.futures.ProcessPoolExecutor):
        # forked, so the workers run the patched registry entry below
        def __init__(self, max_workers):
            super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))

        def shutdown(self, wait=True, *, cancel_futures=False):
            cancelled.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    thm2 = cli.IDENTITIES["thm2"]

    def lhs(d1, d2):
        if (d1, d2) == (2, 2):
            os._exit(1)
        return thm2.lhs(d1, d2)

    monkeypatch.setitem(cli.IDENTITIES, "thm2", thm2._replace(lhs=lhs))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkedPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    rc = main(["verify", "--identity", "thm2", "--d1", "1..3", "--d2", "1..3", "--jobs", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert re.fullmatch(r"BrokenProcessPool: .*\n", captured.err), captured.err
    # the one 16-cell chunk died, so no record and no summary line
    assert captured.out == ""
    assert cancelled[0] is True


# -- usage errors after parsing ---------------------------------------------------


@pytest.mark.parametrize("argv, usage, message", [
    (["verify", "--identity", "thm1", "--d0", "2..4"],
     "usage: qident verify", "verify --identity thm1 needs --d1 A..B"),
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
    import qidentities.cli as cli

    used = []

    class RecordingPool:
        def __init__(self, max_workers):
            used.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    args = ["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2"]
    rc, serial = run(capsys, *args)
    assert rc == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    rc, out = run(capsys, *args, "--jobs", str(jobs))
    assert rc == 0
    assert used == expected
    assert out == serial
