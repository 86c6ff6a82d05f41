"""CLI surface: formats, exit codes, parse-back."""

import contextlib
import io
import json
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkit import checks
from satkit.cli import _SUITES, SchemaError, _build_parser, _parse_fast, main
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


# configs refused as they load, each by a different check; named in GOLDEN by their keys
REFUSED_CONFIGS = {
    "BOOL_CONFIG": {"n": True, "center": [], "sigma": {"matrix": [[1]], "order": True}, "blocks": [True]},
    # sigma^2 = 1, but the order check is refused by its cap before it starts
    "HUGE_ORDER_CONFIG": {
        "n": 3,
        "center": [[1, 1, 1]],
        "sigma": {"matrix": [[0, 0, -1], [0, -1, 0], [-1, 0, 0]], "order": 10**8},
    },
    # infinite order: seen from its order mod 3, not from a million products
    "INFINITE_ORDER_CONFIG": {"n": 2, "center": [], "sigma": {"matrix": [[2, 1], [1, 1]], "order": 10**6}},
}


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory, u3_config):
    folder = tmp_path_factory.mktemp("refused")
    paths = {"U3_CONFIG": u3_config}
    for name, data in REFUSED_CONFIGS.items():
        path = folder / f"{name.lower()}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


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


# Byte-for-byte stdout and exit code.  With EXPECTED, which already pins the
# first nine requests of test_criterion_11, this covers every request of that
# test; then larger requests with rational and Laurent coefficients, and the
# error bodies whose wording belongs to one element class (SymPoly,
# HeckeElement, RepElement).
GOLDEN = [
    (["tate-dim", "--config", "U3_CONFIG", "--mu", "1,1,0"], 0, "1"),
    (
        ["tate-dim", "--config", "BOOL_CONFIG", "--mu", "0"],
        2,
        '{"error":"--config: rank must be a positive int: True"}',
    ),
    (
        ["tate-dim", "--config", "HUGE_ORDER_CONFIG", "--mu", "1,1,0"],
        2,
        '{"error":"--config: checking sigma^100000000 on rank 3 takes up to 2700000000 entry products, '
        'over the cap of 10000000"}',
    ),
    (
        ["tate-dim", "--config", "INFINITE_ORDER_CONFIG", "--mu", "1,0"],
        2,
        '{"error":"--config: sigma^1000000 is not the identity"}',
    ),
    (["h-op", "--r", "2"], 0, '{"0":"1-p-p^2+p^3-p^4+2p^5+3p^6","1":"1-p-2p^2","2":"1"}'),
    (["qbinom", "--n", "4", "--m", "2"], 0, '"1+v+2v^2+v^3+v^4"'),
    (
        [
            "inv",
            "--a",
            '{"p":2,"basis":[["1","0"],["0","1"]]}',
            "--b",
            '{"p":2,"basis":[["1/2","1"],["0","4"]]}',
        ],
        0,
        "[2,-1]",
    ),
    (["count", "--mu", "1,1,0", "--p", "3"], 0, "13"),
    (["oracle", "--lam", "1,0", "--mu", "1,0", "--nu", "1,1", "--p", "3"], 0, "4"),
    (
        ["check", "oracle"],
        0,
        "[ pass ] gl2-structure-constants-p2\n"
        "[ pass ] gl2-structure-constants-p3\n"
        "[ pass ] gl3-structure-constants-p2\n"
        "[ pass ] minuscule-counts-are-gaussian-binomials\n"
        "[ pass ] length-two-closed-cell-size\n"
        "oracle: 5/5 assertions passed",
    ),
    (
        ["conv", "--n", "3", "--a", '{"(2,1,0)":"1+v"}', "--b", '{"(1,0,-1)":"v^-1","(0,0,0)":"1/2"}'],
        0,
        '{"(3,1,-1)":"v^-1+1","(3,0,0)":"v^-1+1+v+v^2","(2,2,-1)":"v^-1+1+v+v^2",'
        '"(2,1,0)":"-v^-1-1/2+3/2v+v^2+2v^3+2v^4","(1,1,1)":"v+v^2+2v^3+2v^4+2v^5+2v^6+v^7+v^8"}',
    ),
    (
        ["tensor", "--n", "3", "--a", '{"(2,0,-1)":1}', "--b", '{"(1,1,0)":"2-v"}'],
        0,
        '{"(3,1,-1)":"2-v","(3,0,0)":"2-v","(2,1,0)":"2-v"}',
    ),
    (
        ["inv-satake", "--n", "2", "--f", '{"(2,0)":"v^2","(1,1)":"1+v^2"}'],
        0,
        '{"(2,0)":"1","(1,1)":"2"}',
    ),
    (
        ["satake", "--n", "2", "--h", '{"(0,1)":1}'],
        1,
        '{"error":"basis coweights must be dominant: (0, 1)"}',
    ),
    (
        ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,2)":1}'],
        1,
        '{"error":"basis coweights must be dominant: (1, 2)"}',
    ),
    (
        ["inv-satake", "--n", "2", "--f", '{"(0,1)":1}'],
        1,
        '{"error":"monomial-basis keys must be dominant: (0, 1)"}',
    ),
    (
        ["s-op", "--n", "2", "--r", '{"(0,1)":1}'],
        1,
        '{"error":"highest weights must be dominant: (0, 1)"}',
    ),
    (["satake", "--n", "0", "--h", "{}"], 1, '{"error":"rank must be a positive int: 0"}'),
    (
        ["inv-satake", "--n", "0", "--f", "{}"],
        1,
        '{"error":"number of variables must be a positive int: 0"}',
    ),
    (["tensor", "--n", "0", "--a", "{}", "--b", "{}"], 1, '{"error":"rank must be a positive int: 0"}'),
    (
        ["inv", "--a", '{"p":2,"basis":[[1,1],[1,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        1,
        '{"error":"matrix is singular"}',
    ),
    (
        ["inv", "--a", '{"p":2,"basis":[["1/3",0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        1,
        '{"error":"basis entry 1/3 has a denominator not a power of 2"}',
    ),
    (
        [
            "inv",
            "--a",
            '{"p":3,"basis":[["1/9","2/3"],[0,"1/27"]]}',
            "--b",
            '{"p":3,"basis":[[9,"1/3"],[3,"4"]]}',
        ],
        0,
        "[4,1]",
    ),
    (
        ["inv", "--a", '{"p":2,"basis":[[2,4],[6,8]]}', "--b", '{"p":2,"basis":[["1/2",0],[0,"1/2"]]}'],
        0,
        "[-2,-3]",
    ),
    # argparse's own error lines, routed through the JSON error body
    (
        ["no-such-verb"],
        2,
        """{"error":"argument VERB: invalid choice: 'no-such-verb' (choose from 'satake', 'inv-satake', 'conv', """
        """'normalize', 'tensor', 'weight-mult', 'dim', 's-op', 's-pairing', 'tate-dim', 'h-op', 'qbinom', """
        """'inv', 'count', 'oracle', 'check')"}""",
    ),
    (
        ["check", "no-such-suite"],
        2,
        """{"error":"argument suite: invalid choice: 'no-such-suite' """
        """(choose from 'gl2-paper', 'hl-specialize', 'oracle', 'tate')"}""",
    ),
    (["conv", "--n", "2", "--a", '{"(1,0)":1}'], 2, '{"error":"the following arguments are required: --b"}'),
    # two keys naming one weight are refused: json.loads keeps only a repeated key's last value, and
    # the terms of keys spelt apart were merged into one, so either way a term was lost
    (
        ["conv", "--n", "2", "--a", '{"(1,0)":1,"( 1 , 0 )":-1}', "--b", '{"(1,0)":1}'],
        2,
        """{"error":"--a: keys '(1,0)' and '( 1 , 0 )' name the same weight (1,0)"}""",
    ),
    (
        ["tensor", "--n", "2", "--a", '{"(1,0)":1,"(1,0)":2}', "--b", '{"(1,0)":1}'],
        2,
        """{"error":"--a: key '(1,0)' is given twice"}""",
    ),
    (["dim", "--n", "x", "--mu", "1"], 2, """{"error":"argument --n: invalid int value: 'x'"}"""),
    # int() reads past an underscore; a flag refuses it, as a payload key does (the first printed 11,
    # dim V_(10,0); the second was read as n = 10)
    (["dim", "--n", "2", "--mu", "1_0,0"], 2, """{"error":"--mu: expected comma-separated integers, got '1_0,0'"}"""),
    (["dim", "--n", "1_0", "--mu", "1,0"], 2, """{"error":"argument --n: invalid int value: '1_0'"}"""),
    # int() reads a leading plus too; a flag refuses it, as a payload key does (both printed 2)
    (["dim", "--n", "2", "--mu", "+1,0"], 2, """{"error":"--mu: expected comma-separated integers, got '+1,0'"}"""),
    (["dim", "--n", "+2", "--mu", "1,0"], 2, """{"error":"argument --n: invalid int value: '+2'"}"""),
    # a weight whose first entry is negative is refused written as two tokens (argparse reads "-1,-2" as
    # a flag); written --mu=-1,-2 it is taken (ARGPARSE_ONLY)
    (["dim", "--n", "2", "--mu", "-1,-2"], 2, """{"error":"argument --mu: expected one argument"}"""),
    # an empty weight entry is refused (it was dropped: this printed 7, the count for (1,1,0)); one
    # trailing comma is kept, as in payload keys
    (
        ["count", "--mu", "1,,1,0", "--p", "2"],
        2,
        """{"error":"--mu: expected comma-separated integers, got '1,,1,0'"}""",
    ),
    (["dim", "--n", "2", "--mu", "1,0,"], 0, "2"),
    # Gelfand-Tsetlin enumeration is refused past its cap, in the kernel every verb reaches it through;
    # each of these ended in a MemoryError traceback under a 1-GB address-space limit without the cap
    (
        ["tensor", "--n", "2", "--a", '{"(9999999999,0)":1}', "--b", '{"(1,0)":1}'],
        1,
        '{"error":"V_(9999999999, 0) has 10000000000 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    (
        ["s-op", "--n", "2", "--r", '{"(9999999999,0)":1}'],
        1,
        '{"error":"V_(9999999999, 0) has 10000000000 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    (
        ["tate-dim", "--config", "U3_CONFIG", "--mu", "9999999999,0,0"],
        1,
        '{"error":"V_(9999999999, 0, 0) has 50000000005000000000 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # the Hall-Littlewood expansion is refused before it starts (it ran 33 s into a MemoryError)
    (
        ["satake", "--n", "8", "--h", '{"(7,6,5,4,3,2,1,0)":1}'],
        1,
        '{"error":"P_(7, 6, 5, 4, 3, 2, 1, 0) expands to 2^28 terms of 8 entries, over the cap of 4194304 entries"}',
    ),
    # the kernels are cached on the core mu - mu_n(1, ..., 1), but each cap names the weight asked for
    (
        ["satake", "--n", "8", "--h", '{"(8,7,6,5,4,3,2,1)":1}'],
        1,
        '{"error":"P_(8, 7, 6, 5, 4, 3, 2, 1) expands to 2^28 terms of 8 entries, over the cap of 4194304 entries"}',
    ),
    (
        ["tensor", "--n", "3", "--a", '{"(800,400,1)":1}', "--b", '{"(1,1,1)":1}'],
        1,
        '{"error":"V_(800, 400, 1) has 64240200 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    (
        ["conv", "--n", "3", "--a", '{"(1001,1,1)":1}', "--b", '{"(1,1,1)":1}'],
        1,
        '{"error":"V_(1001, 1, 1) has 501501 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # several weights over the cap: the one the Schur-basis product meets first, a's first term then b's terms
    (
        ["conv", "--n", "3", "--a", '{"(1,0,0)":1,"(1000,0,0)":1}', "--b", '{"(2,1,0)":1,"(1002,1,0)":1}'],
        1,
        '{"error":"V_(1002, 1, 0) has 1006008 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # tensor meets them in the same order: swapping a's terms moves the first one met to a's
    (
        ["tensor", "--n", "3", "--a", '{"(1,0,0)":1,"(1000,0,0)":1}', "--b", '{"(2,1,0)":1,"(1002,1,0)":1}'],
        1,
        '{"error":"V_(1002, 1, 0) has 1006008 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    (
        ["tensor", "--n", "3", "--a", '{"(1000,0,0)":1,"(1,0,0)":1}', "--b", '{"(2,1,0)":1,"(1002,1,0)":1}'],
        1,
        '{"error":"V_(1000, 0, 0) has 501501 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # every term's own cap comes before the first pair's entry, which here is refused at a Schur key
    # of its transform, V_(29, 18, 15, 1)
    (
        ["conv", "--n", "4", "--a", '{"(29,18,16,0)":1}', "--b", '{"(0,0,0,0)":1,"(2000,0,0,0)":1}'],
        1,
        '{"error":"V_(2000, 0, 0, 0) has 1337337001 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # a refusal met inside a product names a weight of the product of the cores: the first pair's
    # dual pair is the smaller key, and its refusal would name (2, 2, 1, 1, 0, 0, 0, 0)
    (
        ["conv", "--n", "8", "--a", '{"(1,1,1,1,1,1,0,0)":1}', "--b", '{"(1,1,1,1,0,0,0,0)":1}'],
        1,
        '{"error":"P_(2, 2, 2, 2, 1, 1, 0, 0) expands to 2^20 terms of 8 entries, over the cap of 4194304 entries"}',
    ),
    (
        ["conv", "--n", "8", "--a", '{"(2,2,2,2,1,1,1,1)":1}', "--b", '{"(2,2,2,2,1,1,1,1)":1}'],
        1,
        '{"error":"P_(2, 2, 2, 1, 1, 0, 0, 0) expands to 2^21 terms of 8 entries, over the cap of 4194304 entries"}',
    ),
    # several Schur keys of one product over the pattern cap: the transforms' keys are checked in
    # descending order, so the largest is named, whichever order the cached expansions hold them in
    (
        ["conv", "--n", "4", "--a", '{"(29,18,16,0)":1}', "--b", '{"(0,0,0,0)":1}'],
        1,
        '{"error":"V_(29, 18, 15, 1) has 565440 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    (
        ["conv", "--n", "4", "--a", '{"(27,26,13,0)":1}', "--b", '{"(0,0,0,0)":1}'],
        1,
        '{"error":"V_(27, 25, 14, 0) has 546750 Gelfand-Tsetlin patterns, over the cap of 500000"}',
    ),
    # an exponent past the int-string limit is refused before Fraction expands it (it ran past 40 s)
    (
        ["inv", "--a", '{"p":2,"basis":[["1e99999","0"],["0","1"]]}', "--b", '{"p":2,"basis":[["1","0"],["0","1"]]}'],
        2,
        """{"error":"--a: matrix entry '1e99999' is not a rational number"}""",
    ),
    # an integer past int()'s string limit, or nesting past the recursion limit, is a malformed payload
    # (they ended in exit 1 with Python's own text, and in a RecursionError traceback)
    (
        ["conv", "--n", "2", "--a", '{"(1,0)":' + "1" * 5000 + "}", "--b", '{"(1,0)":1}'],
        2,
        '{"error":"--a: invalid JSON (an integer has more digits than int() accepts)"}',
    ),
    (
        ["inv", "--a", '{"p":2,"basis":[[1,0],[0,1]]}', "--b", '{"p":2,"basis":[[' + "1" * 5000 + ",0],[0,1]]}"],
        2,
        '{"error":"--b: invalid JSON (an integer has more digits than int() accepts)"}',
    ),
    (["tensor", "--n", "2", "--a", "[" * 10000, "--b", "{}"], 2, '{"error":"--a: invalid JSON (nested too deeply)"}'),
    # so is a key entry past that limit, as the same entry is in a flag (it ended in exit 1 with Python's own text)
    (
        ["conv", "--n", "2", "--a", '{"(' + "9" * 5000 + ',0)":1}', "--b", '{"(1,0)":1}'],
        2,
        '{"error":"--a: a key entry has more digits than int() accepts"}',
    ),
    # lattice windows are admitted by their size, not their rank
    (["count", "--mu", "1,1,0,0", "--p", "3"], 0, "130"),
    (
        ["oracle", "--lam", "2,1,0,0,0", "--mu", "1,0,0,0,0", "--nu", "3,1,0,0,0", "--p", "3"],
        1,
        '{"error":"the depth-2 window of rank 5 at p = 3 has 3622259 lattices, over the cap of 70000"}',
    ),
]


@pytest.mark.parametrize("args,code,stdout", GOLDEN, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_golden_stdout(args, code, stdout, config_paths):
    out = run(*[config_paths.get(a, a) for a in args])
    assert (out.returncode, out.stdout, out.stderr) == (code, stdout + "\n", "")


# Pinned like GOLDEN, in a form the table parse leaves to argparse (module docstring), so kept out of
# GOLDEN, every request of which argparse accepts the table parse must take.
ARGPARSE_ONLY = [(["dim", "--n", "2", "--mu=-1,-2"], 0, "2")]


@pytest.mark.parametrize("args,code,stdout", ARGPARSE_ONLY, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_argparse_only_stdout(args, code, stdout, parser):
    out = run(*args)
    assert (out.returncode, out.stdout, out.stderr) == (code, stdout + "\n", "")
    assert _parse_fast(args) is None and _argparse_namespace(parser, args) is not None


def test_oracle_rank_four_window_is_admitted_by_size():
    # same structure constant as the rank-2 golden case, on a rank-4 window;
    # kept out of GOLDEN, where its id would repeat that case's "oracle-0-4"
    out = run("oracle", "--lam", "1,0,0,0", "--mu", "1,0,0,0", "--nu", "1,1,0,0", "--p", "3")
    assert (out.returncode, out.stdout, out.stderr) == (0, "4\n", "")


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
    # the most digits int() reads from text: dim V_(nines, 0) = 10^4300 has one more than str() writes
    nines = "9" * 4300
    past_str_limit = [
        ["dim", "--n", "2", "--mu", nines + ",0"],
        ["s-pairing", "--n", "2", "--mu", nines + ",0"],
        ["satake", "--n", "2", "--h", '{"(' + nines + ',0)":1}'],
        ["tensor", "--n", "2", "--a", '{"(' + nines + ',0)":1}', "--b", '{"(1,0)":1}'],
    ]
    for args in [
        ["dim", "--n", "2", "--mu", "0,1"],
        ["count", "--mu", "1,0", "--p", "11"],
        ["qbinom", "--n", "2", "--m", "3"],
        ["satake", "--n", "2", "--h", '{"(0,1)":1}'],
        ["satake", "--n", "2", "--h", '{"(99999999999999999999,0)":1}'],
        ["weight-mult", "--n", "2", "--mu", "99999999999999999999,0", "--lam", "1,1"],
    ] + past_str_limit:
        out = run(*args)
        assert out.returncode == 1, args
        error = json.loads(out.stdout)["error"]
        if args in past_str_limit:  # the refusal names the weight, not Python's int-string limit
            assert f"V_({nines}, 0) has" in error, args


def test_schema_errors_exit_2(tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"n": 1, "center": [], "sigma": {"matrix": [[1]], "order": 1}, "é": 0}'.encode("utf-8"))
    for args in [
        ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", "not json"],
        ["conv", "--n", "2", "--a", '{"(1,0)":1}'],  # missing --b
        ["dim", "--n", "2", "--mu", "x"],
        ["dim", "--n", "3", "--mu", "1,0"],  # rank mismatch
        ["satake", "--n", "2", "--h", '{"bad":1}'],
        ["conv", "--n", "2", "--a", '{"(1,0)":"1/0"}', "--b", '{"(1,0)":1}'],
        ["conv", "--n", "2", "--a", '{"(1,0)":1,"( 1 , 0 )":-1}', "--b", '{"(1,0)":1}'],
        ["tensor", "--n", "2", "--a", '{"(1,0)":1,"(1,0)":2}', "--b", '{"(1,0)":1}'],
        ["conv", "--n", "2", "--a", '{"(' + "9" * 5000 + ',0)":1}', "--b", '{"(1,0)":1}'],
        ["inv", "--a", '{"p":2,"basis":[["x",0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["inv", "--a", '{"p":2,"basis":[["1/0",0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["inv", "--a", '{"p":2,"basis":[[1,0],[3,1],[1,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["inv", "--a", '{"p":2,"basis":[]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'],
        ["tate-dim", "--config", "/nonexistent.json", "--mu", "1,0"],
        ["tate-dim", "--config", str(latin), "--mu", "1"],  # exited 1 with Python's codec text
        ["check", "no-such-suite"],
        ["no-such-verb"],
        ["count", "--mu", "1,,1,0", "--p", "2"],
        ["dim", "--n", "2", "--mu", ",1,0"],
        ["dim", "--n", "2", "--mu", "1,0,,"],
    ]:
        out = run(*args)
        assert out.returncode == 2, args
        assert "error" in json.loads(out.stdout)
        if "--config" in args:
            assert json.loads(out.stdout)["error"].startswith("--config: cannot read "), args


def _main_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# Each cap is checked before any work and its error carries the estimate.
# Without the caps the first two ran past 10 s and the third ended in a
# MemoryError traceback under a 1-GB address-space limit.
CAPPED = [
    (["qbinom", "--n", "3000", "--m", "1500"], "v_binomial(3000, 1500) needs about 10135131754501 "),
    (["qbinom", "--n", "99999999999999999999", "--m", "2"], "v_binomial(99999999999999999999, 2) needs about "),
    (["weight-mult", "--n", "2", "--mu", "9999999999,0", "--lam", "1,1"], "V_(9999999999, 0) has 10000000000 "),
    (["h-op", "--r", "60"], "h_operator(60) needs about 27245162 "),
    (["satake", "--n", "8", "--h", '{"(7,6,5,4,3,2,1,0)":1}'], "P_(7, 6, 5, 4, 3, 2, 1, 0) expands to 2^28 terms "),
]


@pytest.mark.parametrize("argv,estimate", CAPPED, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_cost_caps_refuse_before_work(argv, estimate):
    start = time.perf_counter()
    code, text = _main_in_process(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and text.count("\n") == 1
    assert json.loads(text)["error"].startswith(estimate)


@pytest.mark.parametrize("name", sorted(REFUSED_CONFIGS))
def test_refused_configs_end_quickly(name, config_paths):
    # each ran past a 10-s timeout or answered 1 before sigma's order and bools were checked
    start = time.perf_counter()
    code, text = _main_in_process(["tate-dim", "--config", config_paths[name], "--mu", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and text.count("\n") == 1 and "error" in json.loads(text)


def test_closed_stdout_ends_quietly():
    # the reader is gone before the reply is written: exit 1 and nothing on stderr, no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "satkit.cli", "h-op", "--r", "30"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(), stderr) == (1, b"")


# run() ends the process by os._exit once main() has flushed the reply
def test_reply_larger_than_a_pipe_buffer_arrives_whole():
    argv = ["h-op", "--r", "30"]
    out = run(*argv)
    assert len(out.stdout) > 65536
    assert (out.returncode, out.stdout, out.stderr) == (*_main_in_process(argv), "")


def test_exception_escaping_main_ends_in_traceback_and_exit_1():
    script = (
        "import satkit.cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('handler failed')\n"
        "satkit.cli._cmd_dim = boom\n"
        "satkit.cli.run()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, "dim", "--n", "2", "--mu", "1,0"], capture_output=True, text=True
    )
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("Traceback") and out.stderr.endswith("RuntimeError: handler failed\n")


def test_console_script_is_run():
    # a string check: tomllib is 3.11+
    with open(Path(__file__).parent.parent / "pyproject.toml", encoding="utf-8") as fh:
        assert 'satkit = "satkit.cli:run"\n' in fh.read()


def test_hall_littlewood_cap_admits_every_rank_six_weight():
    # the staircase has the most pairs mu_i > mu_j of any rank-6 weight
    code, text = _main_in_process(["satake", "--n", "6", "--h", '{"(5,4,3,2,1,0)":1}'])
    assert code == 0 and json.loads(text)["(5,4,3,2,1,0)"] == "v^35"


def test_lattice_entries_are_bounded_by_the_int_string_limit():
    # as many digits as int() takes from a string are admitted, one more is refused like a 4301-digit entry
    identity = '{"p":2,"basis":[["1","0"],["0","1"]]}'
    admitted = _main_in_process(["inv", "--a", '{"p":2,"basis":[["1e4299","0"],["0","1"]]}', "--b", identity])
    assert admitted == (0, "[0,-4299]\n")
    for entry in ["1e4300", "1" + "0" * 4300, "1e-4300", "1e99999999999999", "9" * 4300 + "e1"]:
        lattice = json.dumps({"p": 2, "basis": [[entry, "0"], ["0", "1"]]})
        code, text = _main_in_process(["inv", "--a", lattice, "--b", identity])
        assert code == 2 and json.loads(text)["error"].endswith("is not a rational number"), entry


def _band_basis(n, shift):
    # one-digit entries on the five central diagonals
    return [[((i + shift) * 7 + j * 13 + i * j) % 19 - 9 if abs(i - j) <= 2 else 0 for j in range(n)] for i in range(n)]


def _wide_basis(n, shift):
    # 1000-digit entries: the leading digits of powers of 3
    return [[str(3 ** (2100 + 37 * i + 11 * j + shift))[:1000] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (_band_basis(30, 0), _band_basis(30, 1), [1] * 4 + [0] * 21 + [-1] * 4 + [-2]),
        (_wide_basis(10, 1), _wide_basis(10, 2), [2] + [0] * 7 + [-1, -2]),
    ],
    ids=["rank-30-band", "rank-10-1000-digits"],
)
def test_inv_answers_large_bases_quickly(a, b, expected):
    # expected frozen from the Fraction route of tests/test_plattice.py
    lattices = [json.dumps({"p": 2, "basis": rows}) for rows in (a, b)]
    out = subprocess.run(
        [sys.executable, "-m", "satkit.cli", "inv", "--a", lattices[0], "--b", lattices[1]],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert (out.returncode, json.loads(out.stdout), out.stderr) == (0, expected, "")


def test_cost_caps_admit_h_op_15():
    code, text = _main_in_process(["h-op", "--r", "15"])
    assert code == 0 and json.loads(text)["15"] == "1"


# In a fresh interpreter: import satkit.cli, then run dim, every other
# non-check request, a check suite and a malformed request, recording the
# exit code, stdout and sys.modules after each.
_MODULES_RUN = """
import contextlib, io, json, sys
import satkit.cli
seen = [["import", 0, "", sorted(sys.modules)]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = satkit.cli.main(argv)
    seen.append([argv[0], code, out.getvalue(), sorted(sys.modules)])
print(json.dumps(seen))
"""


def test_each_verb_imports_only_its_layers(u3_config):
    requests = [["dim", "--n", "2", "--mu", "1,0"]]
    requests += [args for args, _ in EXPECTED] + [["tate-dim", "--config", u3_config, "--mu", "1,1,0"]]
    requests += [["check", "gl2-paper"], ["dim", "--n", "x", "--mu", "1"]]
    argv = [sys.executable, "-c", _MODULES_RUN, json.dumps(requests)]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert len(seen) == len(requests) + 1
    *well_formed, malformed = seen
    assert [code for _, code, _, _ in well_formed] == [0] * len(well_formed)
    assert {m for m in seen[0][3] if m.startswith("satkit")} == {"satkit", "satkit.cli"}
    assert seen[1][0] == "dim"
    unwanted = {"__future__", "dataclasses", "inspect", "satkit.checks", "satkit.hecke"}
    unwanted |= {"satkit.plattice", "satkit.tate", "satkit.trace_k"}
    assert not unwanted & set(seen[1][3])
    # fractions (with the decimal and numbers it loads) is imported where a rational is first met:
    # no request whose payload holds only integers loads it, up to check, which does
    rational = {"fractions", "decimal", "numbers"}
    assert well_formed[-1][0] == "check" and rational <= set(well_formed[-1][3])
    for verb, _, _, modules in well_formed[:-1]:
        assert not rational & set(modules), verb
    # in an interpreter of its own, conv loads the transform side alone: the Pieri route reads its
    # Gaussian binomials off laurent's q-Pascal rows, which tate reads too; then an inv request
    # with a rational entry loads fractions
    conv = ["conv", "--n", "3", "--a", '{"(2,1,0)":1}', "--b", '{"(1,1,0)":1}']
    half = ["inv", "--a", '{"p":2,"basis":[["1/2","0"],["0","1"]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}']
    argv = [sys.executable, "-c", _MODULES_RUN, json.dumps([conv, half])]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    (_, code, _, modules), (_, half_code, half_out, half_modules) = json.loads(run.stdout)[1:]
    assert code == 0 and "satkit.hecke" in modules
    assert not {"satkit.checks", "satkit.plattice", "satkit.repring", "satkit.tate", "satkit.trace_k"} & set(modules)
    assert not rational & set(modules)
    assert (half_code, half_out) == (0, "[1,0]\n") and rational <= set(half_modules)
    # every verb but check leaves satkit.checks unloaded; check loads it
    assert [verb for verb, _, _, modules in well_formed if "satkit.checks" in modules] == ["check"]
    # a well-formed request is parsed off the verb table: argparse is never imported
    for verb, _, _, modules in well_formed:
        assert not {"argparse", "gettext", "locale"} & set(modules), verb
    # a malformed one builds argparse, in the same interpreter, for its own refusal text
    assert malformed[1:3] == [2, """{"error":"argument --n: invalid int value: 'x'"}\n"""]
    assert "argparse" in malformed[3]


# -- the table parse against argparse ----------------------------------------
# _parse_fast must give exactly argparse's namespace for every argv it
# accepts, and decline the rest.  The argvs: every pinned request, the fuzz
# strategy below, and of each its flags reordered, a flag repeated, each flag
# abbreviated and each written --flag=value.


def _variants(argv):
    """argv with its first flag repeated, each flag cut by one letter, and each written --flag=value."""
    verb, rest = argv[0], argv[1:]
    out = [argv + rest[:2]]
    for i, token in enumerate(rest):
        if token.startswith("--") and len(token) > 3:
            out.append([verb] + rest[:i] + [token[:-1]] + rest[i + 1 :])
        if token.startswith("--") and i + 1 < len(rest):
            out.append([verb] + rest[:i] + [token + "=" + rest[i + 1]] + rest[i + 2 :])
    return out


def _reordered(argv):
    """argv with its first flag and value moved last."""
    return [argv[0]] + argv[3:] + argv[1:3]


def _argparse_namespace(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SchemaError:
        return None


@pytest.fixture(scope="module")
def parser():
    return _build_parser()


def test_table_parse_takes_every_well_formed_pinned_request(parser):
    pinned = [args for args, _ in EXPECTED] + [args for args, _, _ in GOLDEN] + [["check", s] for s in _SUITES]
    for argv in pinned:
        fast = _parse_fast(argv)
        # exactly the requests argparse accepts, with its namespace; the rest are its refusals
        assert (fast and vars(fast)) == _argparse_namespace(parser, argv), argv
        assert all(_parse_fast(variant) is None for variant in _variants(argv)), argv
        if fast and len(argv) > 3:
            assert vars(_parse_fast(_reordered(argv))) == vars(fast), argv


def test_check_parser_lists_every_suite():
    assert _SUITES == tuple(sorted(checks.SUITES))


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


# -- boundary fuzz ---------------------------------------------------------
# Every non-check verb, run in-process with its own flags plus junk flags,
# weights of rank <= 3 and small JSON payloads that include malformed keys,
# zero denominators and huge exponents.  Each run must end with exit code 0, 1
# or 2 and exactly one JSON line on stdout.  Weight entries, in flags and in
# payload keys, run to 20 digits for every verb: the Gelfand-Tsetlin kernel
# refuses past its pattern cap, and the lattice verbs past their window.
# qbinom, h-op, weight-mult and dim take integer flags of up to 20 digits
# too: the first three refuse by a cost estimate before any work, and dim is
# the Weyl product.  The other verbs keep integer flags in -3..6, since a
# rank flag must match the payload's keys to get past the schema check.
# Left out: -h/--help and its abbreviations (--h, --he, --hel) where the verb
# has no flag of that name, because argparse prints multi-line usage for
# them.  `check` prints one line per assertion and is pinned by
# test_check_verbs_pass instead.

_small = st.integers(min_value=-3, max_value=3)
_junk_text = st.sampled_from(["", "x", "1.5", "1,,2", "(1,0)", "-", "1/0", "0x1"])
_int_flags = st.one_of(st.integers(min_value=-3, max_value=6).map(str), _junk_text)
_big = st.integers(min_value=-(10**20), max_value=10**20)
_big_int_flags = st.one_of(st.integers(min_value=-3, max_value=6).map(str), _big.map(str), _junk_text)
_weights = st.one_of(
    st.lists(_small, min_size=1, max_size=3), st.lists(st.one_of(_small, _big), min_size=1, max_size=3)
)
_big_weight_flags = st.one_of(_weights.map(lambda w: ",".join(map(str, w))), _junk_text)
_keys = st.one_of(
    _weights.map(lambda w: "(" + ",".join(map(str, w)) + ")"),
    st.sampled_from(["bad", "(1,0", "()", "(1.5,0)", "(1,,0)", "( 1 , 0 , )", ""]),
)
_values = st.one_of(
    _small,
    st.sampled_from(
        [
            "1+v^2",
            "2/3v^-1",
            "v^99999999999999999999",
            "-v^-99999999999999999999+1",
            "1/0",
            "3/0v",
            "x",
            "",
            "v^",
            10**40,
            None,
            1.5,
            True,
            [],
            {},
        ]
    ),
)
_payloads = st.one_of(
    st.dictionaries(_keys, _values, max_size=3).map(json.dumps),
    st.sampled_from(["not json", "[]", "3", '"(1,0)"', "null", "{"]),
)
_entries = st.one_of(_small, st.sampled_from(["1/2", "x", "1/0", "-2", 10**30, None, 0.5]))
_lattices = st.one_of(
    st.builds(
        lambda p, rows: json.dumps({"p": p, "basis": rows}),
        st.sampled_from([2, 3, 5, 0, 1, -2, 4, "2", 10**20]),
        st.integers(min_value=0, max_value=3).flatmap(
            lambda k: st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=k, max_size=k)
        ),
    ),
    _payloads,
)
_FLAGS = {
    "satake": {"n": _int_flags, "h": _payloads},
    "inv-satake": {"n": _int_flags, "f": _payloads},
    "conv": {"n": _int_flags, "a": _payloads, "b": _payloads},
    "normalize": {"n": _int_flags, "h": _payloads},
    "tensor": {"n": _int_flags, "a": _payloads, "b": _payloads},
    "weight-mult": {"n": _big_int_flags, "mu": _big_weight_flags, "lam": _big_weight_flags},
    "dim": {"n": _big_int_flags, "mu": _big_weight_flags},
    "s-op": {"n": _int_flags, "r": _payloads},
    "s-pairing": {"n": _int_flags, "mu": _big_weight_flags},
    "tate-dim": {"config": st.sampled_from(["U3_CONFIG", "/nonexistent.json", ""]), "mu": _big_weight_flags},
    "h-op": {"r": _big_int_flags},
    "qbinom": {"n": _big_int_flags, "m": _big_int_flags},
    "inv": {"a": _lattices, "b": _lattices},
    "count": {"mu": _big_weight_flags, "p": _int_flags},
    "oracle": {"lam": _big_weight_flags, "mu": _big_weight_flags, "nu": _big_weight_flags, "p": _int_flags},
}
_junk_flags = st.sampled_from(["--zz", "--n", "--mu", "-x", "--", "--p=2", "--n=", "7", "{}", "--r", "-1"])


@st.composite
def _argvs(draw):
    verb = draw(st.sampled_from(sorted(_FLAGS)))
    pairs = []
    for flag, values in _FLAGS[verb].items():
        if draw(st.integers(min_value=0, max_value=5)):  # mostly present
            pairs.append(["--" + flag, draw(values)])
    pairs += [[junk] for junk in draw(st.lists(_junk_flags, max_size=2))]
    order = draw(st.permutations(range(len(pairs))))
    return [verb] + [token for i in order for token in pairs[i]]


@given(argv=_argvs())
@example(argv=["qbinom", "--n", "3000", "--m", "1500"])
@example(argv=["qbinom", "--n", "99999999999999999999", "--m", "0"])
@example(argv=["qbinom", "--n", "5684777", "--m", "0"])  # found by this fuzz under a cap that counted no rows
@example(argv=["h-op", "--r", "99999999999999999999"])
@example(argv=["weight-mult", "--n", "2", "--mu", "9999999999,0", "--lam", "1,1"])
@example(argv=["dim", "--n", "3", "--mu", "99999999999999999999,0,-99999999999999999999"])
@example(argv=["tensor", "--n", "2", "--a", '{"(9999999999,0)":1}', "--b", '{"(1,0)":1}'])
@example(argv=["s-op", "--n", "2", "--r", '{"(9999999999,0)":1}'])
@example(argv=["tate-dim", "--config", "U3_CONFIG", "--mu", "9999999999,0,0"])
@example(argv=["satake", "--n", "2", "--h", '{"(9999999999,0)":1}'])
@example(argv=["count", "--mu", "1,0,0,0,0,0,0,0,0,0,0,0", "--p", "3"])
@example(argv=["satake", "--n", "8", "--h", '{"(7,6,5,4,3,2,1,0)":1}'])
@example(argv=["inv", "--a", '{"p":2,"basis":[["1e99999","0"],["0","1"]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'])
@example(argv=["inv", "--a", '{"p":2,"basis":[[' + "1" * 5000 + ',0],[0,1]]}', "--b", '{"p":2,"basis":[[1,0],[0,1]]}'])
@example(argv=["satake", "--n", "2", "--h", '{"(1,0)":' + "1" * 5000 + "}"])
@example(argv=["s-op", "--n", "2", "--r", "[" * 10000])
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_fuzz_every_request_ends_in_one_json_line(argv, u3_config):
    argv = [u3_config if a == "U3_CONFIG" else a for a in argv]
    code, text = _main_in_process(argv)
    assert code in (0, 1, 2), argv
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
    json.loads(text)


@given(argv=_argvs())
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_fuzz_table_parse_matches_argparse(argv, parser):
    for candidate in [argv, _reordered(argv)] + _variants(argv):
        fast = _parse_fast(candidate)
        if fast is not None:
            assert vars(fast) == vars(parser.parse_args(candidate)), candidate
