"""Command-line interface tests."""

import json

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


def test_verify_jobs_deterministic(capsys):
    args = ["verify", "--identity", "prop3", "--D", "2..8", "--d1", "1..4", "--k0", "1..4"]
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args, "--jobs", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


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
    import qidentities.cli as cli

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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
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
    for ident, params in (
        ("thm1", ["--d0", "4", "--d1", "2"]),
        ("thm2", ["--d1", "2", "--d2", "3"]),
        ("prop3", ["--D", "9", "--d1", "4", "--k0", "2"]),
    ):
        _, explain_out = run(capsys, "explain", "--identity", ident, *params)
        total = explain_out.strip().splitlines()[-1].split("\t", 1)[1]
        _, eval_out = run(capsys, "eval", "--kind", "lhs", "--identity", ident, *params)
        assert total == eval_out.strip()


def test_explain_total_matches_library_value(capsys):
    from qidentities import theorem2_lhs

    _, out = run(capsys, "explain", "--identity", "thm2", "--d1", "3", "--d2", "2")
    total = out.strip().splitlines()[-1].split("\t", 1)[1]
    assert total == theorem2_lhs(3, 2).render("plain")


@pytest.mark.parametrize("argv, message", [
    (["explain", "--identity", "prop3", "--D", "4", "--d1", "0", "--k0", "1"],
     "ValueError: d must be >= 1\n"),
    (["eval", "--kind", "f", "--D", "4", "--d1", "-1", "--k0", "1"],
     "ValueError: d1 and k0 must be nonnegative\n"),
], ids=["explain-prop3", "eval-f"])
def test_library_value_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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
])
def test_post_parse_usage_error_names_subcommand(capsys, argv, usage, message):
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

    args = ["verify", "--identity", "thm2", "--d1", "1..2", "--d2", "1..2"]
    rc, serial = run(capsys, *args)
    assert rc == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    rc, out = run(capsys, *args, "--jobs", str(jobs))
    assert rc == 0
    assert used == expected
    assert out == serial
