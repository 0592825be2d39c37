"""The CLI's identity registry: one entry per identity drives eval, verify
and explain."""

import functools
import itertools
import json
import operator

import pytest

from qidentities import Degenerate, InvalidHypothesis
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
    for command in ("eval", "verify", "explain"):
        assert identity_choices(command) == list(IDENTITIES)


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


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_terms_total_equals_lhs(name):
    ident = IDENTITIES[name]
    point = POINTS[name]
    assert ident.holds(*point)
    # the summands are polynomials, or fractions for a series
    total = functools.reduce(operator.add, (term for _, term in ident.terms(*point)))
    assert total == ident.lhs(*point) == ident.rhs(*point)


# per identity, the span of every parameter in a box around its hypothesis
HYPOTHESIS_BOXES = {
    "thm1": range(-1, 5),
    "thm2": range(-1, 5),
    "prop3": range(-1, 4),
    "saalschutz": range(-2, 3),
}


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_holds_is_the_closed_form_hypothesis(name):
    # holds restates the hypothesis the closed form checks itself; the two
    # must agree on every point of the box, a degenerate one counting as
    # inside (a q-Saalschutz N < 0 is a ValueError of its instance)
    ident = IDENTITIES[name]
    refused = ValueError if name == "saalschutz" else InvalidHypothesis
    for point in itertools.product(HYPOTHESIS_BOXES[name], repeat=len(ident.params)):
        try:
            ident.rhs(*point)
        except Degenerate:
            pass
        except refused:
            assert not ident.holds(*point), point
            continue
        assert ident.holds(*point), point


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_eval_json_is_the_verify_record_text(capsys, name):
    # eval --format json and verify encode a side with one encoder
    flags = ["--%s=%d" % p for p in zip(IDENTITIES[name].params, POINTS[name])]
    sides = []
    for kind in ("lhs", "rhs"):
        assert main(["eval", "--kind", kind, "--identity", name, "--format", "json", *flags]) == 0
        sides.append(capsys.readouterr().out.rstrip("\n"))
    assert main(["verify", "--identity", name, *flags]) == 0
    record = capsys.readouterr().out.splitlines()[0]
    assert ',"lhs":%s,"rhs":%s,"equal":true}' % tuple(sides) in record


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
