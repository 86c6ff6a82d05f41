"""CLI surface: formats, exit codes, parse-back."""

import json
import subprocess
import sys

import pytest

from satkit.hecke import HeckeElement, basis, convolve
from satkit.laurent import parse_scalar
from satkit.tate import unitary_config, v_binomial


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "satkit.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def u3_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "u3.json"
    path.write_text(json.dumps(unitary_config(3).to_json()))
    return str(path)


EXPECTED = [
    (["satake", "--n", "2", "--h", '{"(1,0)":1}'], '{"(1,0)":"v"}'),
    (["inv-satake", "--n", "2", "--f", '{"(1,0)":"v"}'], '{"(1,0)":"1"}'),
    (
        ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
        '{"(2,0)":"1","(1,1)":"1+v^2"}',
    ),
    (
        ["normalize", "--n", "2", "--h", '{"(2,0)":1}'],
        '{"(2,0)":"1","(1,1)":"-v^-2+1"}',
    ),
    (
        ["tensor", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
        '{"(2,0)":"1","(1,1)":"1"}',
    ),
    (["weight-mult", "--n", "3", "--mu", "2,1,0", "--lam", "1,1,1"], "2"),
    (["dim", "--n", "2", "--mu", "1,0"], "2"),
    (["s-op", "--n", "2", "--r", '{"(2,0)":1}'], '{"(2,0)":"1","(1,1)":"1"}'),
    (["s-pairing", "--n", "2", "--mu", "1,0"], '"2"'),
    (["h-op", "--r", "1"], '{"0":"1-p-2p^2","1":"1"}'),
    (["qbinom", "--n", "3", "--m", "1"], '"1+v+v^2"'),
    (
        [
            "inv",
            "--a",
            '{"p":2,"basis":[["1","0"],["0","1"]]}',
            "--b",
            '{"p":2,"basis":[["4","0"],["0","1"]]}',
        ],
        "[2,0]",
    ),
    (["count", "--mu", "1,0,0", "--p", "2"], "7"),
    (["oracle", "--lam", "1,0", "--mu", "1,0", "--nu", "1,1", "--p", "2"], "3"),
]


@pytest.mark.parametrize("args,expected", EXPECTED, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_verb_output(args, expected):
    out = run(*args)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout == expected + "\n"
    assert out.stderr == ""


def test_tate_dim_verb(u3_config):
    out = run("tate-dim", "--config", u3_config, "--mu", "1,1,0")
    assert out.returncode == 0
    assert out.stdout == "1\n"


def test_check_verbs_pass():
    for suite, assertions in [
        ("gl2-paper", 8),
        ("tate", 11),
        ("hl-specialize", 3),
    ]:
        out = run("check", suite)
        assert out.returncode == 0, out.stdout
        lines = out.stdout.strip().split("\n")
        assert lines[-1] == f"{suite}: {assertions}/{assertions} assertions passed"
        assert all(line.startswith("[ pass ]") for line in lines[:-1])


def test_domain_errors_exit_1():
    for args in [
        ["dim", "--n", "2", "--mu", "0,1"],
        ["count", "--mu", "1,0", "--p", "5"],
        ["qbinom", "--n", "2", "--m", "3"],
        ["satake", "--n", "2", "--h", '{"(0,1)":1}'],
    ]:
        out = run(*args)
        assert out.returncode == 1, args
        assert "error" in json.loads(out.stdout)


def test_schema_errors_exit_2():
    for args in [
        ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", "not json"],
        ["conv", "--n", "2", "--a", '{"(1,0)":1}'],  # missing --b
        ["dim", "--n", "2", "--mu", "x"],
        ["dim", "--n", "3", "--mu", "1,0"],  # rank mismatch
        ["satake", "--n", "2", "--h", '{"bad":1}'],
        ["conv", "--n", "2", "--a", '{"(1,0)":"1/0"}', "--b", '{"(1,0)":1}'],
        ["inv", "--a", '{"p":2,"basis":[["x",0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["inv", "--a", '{"p":2,"basis":[["1/0",0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["tate-dim", "--config", "/nonexistent.json", "--mu", "1,0"],
        ["check", "no-such-suite"],
        ["no-such-verb"],
    ]:
        out = run(*args)
        assert out.returncode == 2, args
        assert "error" in json.loads(out.stdout)


def test_conv_output_parses_back():
    out = run("conv", "--n", "2", "--a", '{"(2,0)":1}', "--b", '{"(1,1)":"1+v"}')
    data = json.loads(out.stdout)
    rebuilt = HeckeElement(
        2,
        {
            tuple(int(x) for x in key.strip("()").split(",")): parse_scalar(value)
            for key, value in data.items()
        },
    )
    assert rebuilt == convolve(basis((2, 0)), parse_scalar("1+v") * basis((1, 1)))


def test_qbinom_output_parses_back():
    out = run("qbinom", "--n", "4", "--m", "2")
    assert parse_scalar(json.loads(out.stdout)) == v_binomial(4, 2)
