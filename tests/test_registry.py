"""The CLI's identity registry: one entry per identity drives eval, verify
and explain."""

import json

import pytest

from qidentities import InvalidHypothesis, LaurentPoly
from qidentities.cli import IDENTITIES, build_parser, main
from qidentities.sums import theorem1_terms, theorem2_terms

# a few cells per identity, some outside its hypothesis
TINY_GRIDS = {
    "thm1": {"d0": "1..3", "d1": "0..2"},
    "thm2": {"d1": "0..2", "d2": "1..2"},
    "prop3": {"D": "0..3", "d1": "1..2", "k0": "0..2"},
    "saalschutz": {"a": "1..2", "b": "2..3", "c": "3..5", "N": "-1..2"},
}

# one point inside each hypothesis, in params order
POINTS = {
    "thm1": (5, 2),
    "thm2": (3, 2),
    "prop3": (3, 5, 2),
    "saalschutz": (1, 3, 5, 2),
}


def identity_choices(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    (action,) = [a for a in sub._actions if a.dest == "identity"]
    return list(action.choices)


def test_identity_choices_come_from_registry():
    with_terms = [name for name, ident in IDENTITIES.items() if ident.terms]
    assert identity_choices("verify") == list(IDENTITIES)
    assert identity_choices("eval") == with_terms
    assert identity_choices("explain") == with_terms
    assert with_terms == ["thm1", "thm2", "prop3"]


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_every_entry_passes_a_tiny_grid(capsys, name):
    ident = IDENTITIES[name]
    assert set(TINY_GRIDS[name]) == set(ident.params)
    argv = ["verify", "--identity", name]
    for param, span in TINY_GRIDS[name].items():
        argv.append("--%s=%s" % (param, span))
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    assert summary["pass"] > 0 and summary["fail"] == 0
    assert summary["degenerate"] > 0  # out-of-hypothesis cells are skipped
    for record in records:
        assert list(record["params"]) == list(ident.params)
        assert ident.holds(*record["params"].values())


@pytest.mark.parametrize("name", [n for n, i in IDENTITIES.items() if i.terms])
def test_terms_total_equals_lhs(name):
    ident = IDENTITIES[name]
    point = POINTS[name]
    assert ident.holds(*point)
    total = sum((term for _, term in ident.terms(*point)), LaurentPoly())
    assert total == ident.lhs(*point) == ident.rhs(*point)


@pytest.mark.parametrize("argv", [
    ["explain", "--identity", "thm1", "--d0", "2", "--d1", "2"],
    ["explain", "--identity", "thm2", "--d1", "0", "--d2", "2"],
])
def test_explain_out_of_hypothesis_is_domain_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidHypothesis: ")
    assert len(captured.err.splitlines()) == 1


def test_theorem_terms_check_hypothesis_on_first_next():
    for terms in (theorem1_terms(2, 2), theorem2_terms(0, 2)):
        with pytest.raises(InvalidHypothesis):
            next(terms)


def test_late_binding_reaches_every_subcommand(monkeypatch, capsys):
    import qidentities.cli as cli

    seen = []
    original = cli.theorem1_rhs

    def spy(d0, d1):
        seen.append((d0, d1))
        return original(d0, d1)

    monkeypatch.setattr(cli, "theorem1_rhs", spy)
    assert main(["eval", "--kind", "rhs", "--identity", "thm1", "--d0", "3", "--d1", "1"]) == 0
    assert main(["verify", "--identity", "thm1", "--d0", "3", "--d1", "1..2"]) == 0
    assert seen == [(3, 1), (3, 1), (3, 2)]
