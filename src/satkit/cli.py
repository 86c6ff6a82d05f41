"""Command-line front end: every library operation as a verb with JSON I/O.

Output contract (kept deterministic on purpose — scripts and tests diff it
byte-for-byte):

* element-valued results print as one compact JSON object whose keys are
  weight tuples rendered ``"(2,0)"`` and whose values are canonical scalar
  strings, keys in descending tuple order;
* scalar results print as a JSON string, counts/dimensions as a JSON number;
* errors print ``{"error": ...}`` on stdout — exit 2 when the request never
  made sense (malformed payload, unknown verb), exit 1 when it parsed but
  the data is out of domain (non-dominant weight, unsupported prime, ...).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .checks import SUITES
from .hecke import HeckeElement, convolve, inverse_satake, normalized_satake, satake
from .laurent import parse_scalar
from .plattice import PLattice, convolution_oracle, inv_pair, schubert_count
from .repring import RepElement, dimension, tensor, weight_multiplicity
from .symfunc import SymPoly
from .tate import TateConfig, h_operator, tate_dimension, v_binomial
from .trace_k import s_operator, s_pairing


class SchemaError(Exception):
    """Request malformed at the JSON/flag level (exit code 2)."""


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


# -- payload parsing -----------------------------------------------------

_KEY_RE = re.compile(r"\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*,?\s*\)")


def _weight_from_key(key, what):
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key.strip()):
        raise SchemaError(f'{what}: keys must look like "(1,0)", got {key!r}')
    return tuple(int(x) for x in re.findall(r"-?\d+", key))


def _weight_from_flag(text, what):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise SchemaError(f"{what}: expected comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise SchemaError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _scalar_from_json(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what}: coefficients must be integers or scalar strings, got {value!r}")
    if isinstance(value, int):
        return parse_scalar(str(value))
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _object_from_text(text, what):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    return data


def _element_terms(text, n, what):
    data = _object_from_text(text, what)
    terms = {}
    for key, value in data.items():
        w = _weight_from_key(key, what)
        if len(w) != n:
            raise SchemaError(f"{what}: weight {key} has rank {len(w)}, expected {n}")
        terms[w] = _scalar_from_json(value, what)
    return terms


def _lattice_from_text(text, what):
    data = _object_from_text(text, what)
    if set(data) != {"p", "basis"}:
        raise SchemaError(f'{what}: expected exactly the keys "p" and "basis"')
    if not isinstance(data["p"], int) or isinstance(data["p"], bool):
        raise SchemaError(f'{what}: "p" must be an integer')
    basis = data["basis"]
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise SchemaError(f'{what}: "basis" must be a list of rows')
    rows = []
    for row in basis:
        entries = []
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise SchemaError(f"{what}: matrix entries must be integers or strings, got {entry!r}")
            try:
                entries.append(Fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{what}: matrix entry {entry!r} is not a rational number") from None
        rows.append(tuple(entries))
    return PLattice(data["p"], tuple(rows))


# -- output formatting ---------------------------------------------------


def _weight_key(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _format_element(el):
    ordered = sorted(el.terms.items(), key=lambda kv: kv[0], reverse=True)
    return _dumps({_weight_key(w): c.to_string() for w, c in ordered})


# -- verb handlers -------------------------------------------------------


def _cmd_satake(args):
    h = HeckeElement(args.n, _element_terms(args.h, args.n, "--h"))
    return _format_element(satake(h))


def _cmd_inv_satake(args):
    f = SymPoly(args.n, _element_terms(args.f, args.n, "--f"))
    return _format_element(inverse_satake(f))


def _cmd_conv(args):
    a = HeckeElement(args.n, _element_terms(args.a, args.n, "--a"))
    b = HeckeElement(args.n, _element_terms(args.b, args.n, "--b"))
    return _format_element(convolve(a, b))


def _cmd_normalize(args):
    h = HeckeElement(args.n, _element_terms(args.h, args.n, "--h"))
    return _format_element(normalized_satake(h))


def _cmd_tensor(args):
    a = RepElement(args.n, _element_terms(args.a, args.n, "--a"))
    b = RepElement(args.n, _element_terms(args.b, args.n, "--b"))
    return _format_element(tensor(a, b))


def _cmd_weight_mult(args):
    mu = _weight_from_flag(args.mu, "--mu")
    lam = _weight_from_flag(args.lam, "--lam")
    _require_rank(args.n, mu, "--mu")
    _require_rank(args.n, lam, "--lam")
    return _dumps(weight_multiplicity(mu, lam))


def _cmd_dim(args):
    mu = _weight_from_flag(args.mu, "--mu")
    _require_rank(args.n, mu, "--mu")
    return _dumps(dimension(mu))


def _cmd_s_op(args):
    r = RepElement(args.n, _element_terms(args.r, args.n, "--r"))
    return _format_element(s_operator(r))


def _cmd_s_pairing(args):
    mu = _weight_from_flag(args.mu, "--mu")
    _require_rank(args.n, mu, "--mu")
    return _dumps(s_pairing(mu).to_string())


def _cmd_tate_dim(args):
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"--config: cannot read {args.config!r} ({exc.strerror})") from None
    data = _object_from_text(raw, "--config")
    try:
        cfg = TateConfig.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"--config: {exc}") from None
    mu = _weight_from_flag(args.mu, "--mu")
    return _dumps(tate_dimension(mu, cfg))


def _cmd_h_op(args):
    h = h_operator(args.r)
    return _dumps({str(j): h.coeffs[j].to_string(var="p") for j in sorted(h.coeffs)})


def _cmd_qbinom(args):
    return _dumps(v_binomial(args.n, args.m).to_string())


def _cmd_inv(args):
    a = _lattice_from_text(args.a, "--a")
    b = _lattice_from_text(args.b, "--b")
    return _dumps(list(inv_pair(a, b)))


def _cmd_count(args):
    mu = _weight_from_flag(args.mu, "--mu")
    return _dumps(schubert_count(mu, args.p))


def _cmd_oracle(args):
    lam = _weight_from_flag(args.lam, "--lam")
    mu = _weight_from_flag(args.mu, "--mu")
    nu = _weight_from_flag(args.nu, "--nu")
    return _dumps(convolution_oracle(lam, mu, nu, args.p))


def _cmd_check(args):
    rows = SUITES[args.suite]()
    lines = []
    failures = [name for name, ok, _ in rows if not ok]
    for name, ok, detail in rows:
        lines.append(f"[ pass ] {name}" if ok else f"[ FAIL ] {name}: {detail}")
    passed = len(rows) - len(failures)
    lines.append(f"{args.suite}: {passed}/{len(rows)} assertions passed")
    if failures:
        lines.append(f"first failure: {failures[0]}")
    return "\n".join(lines), (1 if failures else 0)


def _require_rank(n, w, what):
    if len(w) != n:
        raise SchemaError(f"{what}: weight has rank {len(w)}, expected {n}")


# -- parser / dispatch ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse prints usage on stderr and exits 2; route through the JSON
    # error body instead so every failure mode has the same machine shape.
    def error(self, message):
        raise SchemaError(message)


def _build_parser():
    parser = _Parser(prog="satkit", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name, handler, **flags):
        p = sub.add_parser(name)
        for flag, kind in flags.items():
            p.add_argument("--" + flag, required=True, type=kind, dest=flag.replace("-", "_"))
        p.set_defaults(handler=handler)
        return p

    verb("satake", _cmd_satake, n=int, h=str)
    verb("inv-satake", _cmd_inv_satake, n=int, f=str)
    verb("conv", _cmd_conv, n=int, a=str, b=str)
    verb("normalize", _cmd_normalize, n=int, h=str)
    verb("tensor", _cmd_tensor, n=int, a=str, b=str)
    verb("weight-mult", _cmd_weight_mult, n=int, mu=str, lam=str)
    verb("dim", _cmd_dim, n=int, mu=str)
    verb("s-op", _cmd_s_op, n=int, r=str)
    verb("s-pairing", _cmd_s_pairing, n=int, mu=str)
    verb("tate-dim", _cmd_tate_dim, config=str, mu=str)
    verb("h-op", _cmd_h_op, r=int)
    verb("qbinom", _cmd_qbinom, n=int, m=int)
    verb("inv", _cmd_inv, a=str, b=str)
    verb("count", _cmd_count, mu=str, p=int)
    verb("oracle", _cmd_oracle, lam=str, mu=str, nu=str, p=int)

    check = sub.add_parser("check")
    check.add_argument("suite", choices=sorted(SUITES))
    check.set_defaults(handler=_cmd_check)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.handler(args)
    except SchemaError as exc:
        print(_dumps({"error": str(exc)}))
        return 2
    except ValueError as exc:
        print(_dumps({"error": str(exc)}))
        return 1
    code = 0
    if isinstance(out, tuple):
        out, code = out
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
