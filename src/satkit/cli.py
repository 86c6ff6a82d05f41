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

A well-formed request is read straight off the verb table: a verb, then
each of its flags exactly once as ``--flag value`` in any order, no value
empty or starting with "-", or ``check SUITE``.  Every other command line
(an unknown verb; a flag missing, repeated, abbreviated or written
``--flag=value``; a negative number; -h/--help) goes to argparse, imported
and built only then, which words the refusal or prints the help.

Integer flags and weight entries are read by int(), but an underscore or a
plus is refused (``--n 1_0``, ``--mu 1_0,0``, ``--n +2``, ``--mu +1,0``), as
it is in a payload key.  A weight whose first entry is negative is written
``--mu=-1,-2``: argparse reads ``--mu -1,-2`` as a flag with no value and
refuses it ("expected one argument").
"""

import json
import os
import re
import sys
from types import SimpleNamespace

# Handlers import their own layer, so a request loads only what its verb needs;
# the `check` parser reads the suite names here, held to sorted(checks.SUITES) by a test.
_SUITES = ("gl2-paper", "hl-specialize", "oracle", "tate")


class SchemaError(Exception):
    """Request malformed at the JSON/flag level (exit code 2)."""


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


# -- payload parsing -----------------------------------------------------

_KEY_RE = re.compile(r"\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*,?\s*\)")


def _weight_from_key(key, what):
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key.strip()):
        raise SchemaError(f'{what}: keys must look like "(1,0)", got {key!r}')
    try:
        return tuple(int(x) for x in re.findall(r"-?\d+", key))
    except ValueError:  # int() refuses an entry past the int-string digit limit
        raise SchemaError(f"{what}: a key entry has more digits than int() accepts") from None


def _int(text):
    """int(text) for an integer flag, refusing what int() reads past and a payload key refuses: "1_0", "+1"."""
    if "_" in text or "+" in text:
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse names the type in its refusal: "invalid int value: '1_0'"


def _weight_from_flag(text, what):
    parts = text.split(",")
    if len(parts) > 1 and not parts[-1].strip():
        parts.pop()  # one trailing comma, as payload keys allow
    try:
        return tuple(_int(p) for p in parts)  # int() refuses an empty entry
    except ValueError:
        raise SchemaError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _scalar_from_json(value, what):
    from .laurent import parse_scalar
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what}: coefficients must be integers or scalar strings, got {value!r}")
    if isinstance(value, int):
        return parse_scalar(str(value))
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _object_from_text(text, what):
    def unique_keys(pairs):  # json.loads would keep only the last value of a repeated key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaError(f"{what}: key {key!r} is given twice")
            obj[key] = value
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON ({exc.msg})") from None
    except ValueError:  # int() refuses an integer past the int-string digit limit
        raise SchemaError(f"{what}: invalid JSON (an integer has more digits than int() accepts)") from None
    except RecursionError:
        raise SchemaError(f"{what}: invalid JSON (nested too deeply)") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    return data


def _element_terms(text, n, what):
    data = _object_from_text(text, what)
    terms = {}
    keys = {}
    for key, value in data.items():
        w = _weight_from_key(key, what)
        if len(w) != n:
            raise SchemaError(f"{what}: weight {key} has rank {len(w)}, expected {n}")
        if w in keys:
            raise SchemaError(f"{what}: keys {keys[w]!r} and {key!r} name the same weight {_weight_key(w)}")
        keys[w] = key
        terms[w] = _scalar_from_json(value, what)
    return terms


def _bounded_fraction(entry):
    """Fraction(entry), or ValueError when its numerator or denominator has more digits than
    int() accepts from a string; an exponent ("1e99999") is checked before Fraction expands it.
    An integer, or text that int() reads (Fraction reads it to the same value), is returned as an
    int, so fractions is imported only for a rational entry."""
    if isinstance(entry, int):
        return entry
    try:
        return int(entry)
    except ValueError:
        pass
    from fractions import Fraction
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if isinstance(entry, str):
        _, e, exponent = entry.lower().partition("e")
        if e and abs(int(exponent)) > limit:
            raise ValueError(entry)
    x = Fraction(entry)
    if max(abs(x.numerator), x.denominator) >= 10**limit:
        raise ValueError(entry)
    return x


def _lattice_from_text(text, what):
    from .plattice import PLattice
    data = _object_from_text(text, what)
    if set(data) != {"p", "basis"}:
        raise SchemaError(f'{what}: expected exactly the keys "p" and "basis"')
    if not isinstance(data["p"], int) or isinstance(data["p"], bool):
        raise SchemaError(f'{what}: "p" must be an integer')
    basis = data["basis"]
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise SchemaError(f'{what}: "basis" must be a list of rows')
    if not basis or any(len(row) != len(basis) for row in basis):
        raise SchemaError(f'{what}: "basis" must be a square, nonempty matrix')
    rows = []
    for row in basis:
        entries = []
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise SchemaError(f"{what}: matrix entries must be integers or strings, got {entry!r}")
            try:
                entries.append(_bounded_fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{what}: matrix entry {entry!r} is not a rational number") from None
        rows.append(tuple(entries))
    return PLattice(data["p"], tuple(rows))


# -- output formatting ---------------------------------------------------


def _weight_key(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _format_element(el):
    return _dumps({_weight_key(w): el.coefficient(w).to_string() for w in el.support()})


# -- verb handlers -------------------------------------------------------


def _cmd_satake(args):
    from .hecke import HeckeElement, satake
    h = HeckeElement(args.n, _element_terms(args.h, args.n, "--h"))
    return _format_element(satake(h))


def _cmd_inv_satake(args):
    from .hecke import inverse_satake
    from .symfunc import SymPoly
    f = SymPoly(args.n, _element_terms(args.f, args.n, "--f"))
    return _format_element(inverse_satake(f))


def _cmd_conv(args):
    from .hecke import HeckeElement, convolve
    a = HeckeElement(args.n, _element_terms(args.a, args.n, "--a"))
    b = HeckeElement(args.n, _element_terms(args.b, args.n, "--b"))
    return _format_element(convolve(a, b))


def _cmd_normalize(args):
    from .hecke import HeckeElement, normalized_satake
    h = HeckeElement(args.n, _element_terms(args.h, args.n, "--h"))
    return _format_element(normalized_satake(h))


def _cmd_tensor(args):
    from .repring import RepElement, tensor
    a = RepElement(args.n, _element_terms(args.a, args.n, "--a"))
    b = RepElement(args.n, _element_terms(args.b, args.n, "--b"))
    return _format_element(tensor(a, b))


def _cmd_weight_mult(args):
    from .repring import weight_multiplicity
    mu = _weight_from_flag(args.mu, "--mu")
    lam = _weight_from_flag(args.lam, "--lam")
    _require_rank(args.n, mu, "--mu")
    _require_rank(args.n, lam, "--lam")
    return _dumps(weight_multiplicity(mu, lam))


def _printable_dimension(mu):
    """dim V_mu, refused when it has more digits than str() converts (sys.get_int_max_str_digits)."""
    from .repring import dimension
    dim, limit = dimension(mu), sys.get_int_max_str_digits()
    if limit and dim >= 10**limit:
        raise ValueError(f"dim V_{mu} has more than {limit} digits, past the int-string conversion limit")
    return dim


def _cmd_dim(args):
    mu = _weight_from_flag(args.mu, "--mu")
    _require_rank(args.n, mu, "--mu")
    return _dumps(_printable_dimension(mu))


def _cmd_s_op(args):
    from .repring import RepElement
    from .trace_k import s_operator
    r = RepElement(args.n, _element_terms(args.r, args.n, "--r"))
    return _format_element(s_operator(r))


def _cmd_s_pairing(args):
    from .trace_k import s_pairing
    mu = _weight_from_flag(args.mu, "--mu")
    _require_rank(args.n, mu, "--mu")
    _printable_dimension(mu)  # s_pairing(mu) is dim V_mu
    return _dumps(s_pairing(mu).to_string())


def _cmd_tate_dim(args):
    from .tate import TateConfig, tate_dimension
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"--config: cannot read {args.config!r} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"--config: cannot read {args.config!r} (byte {exc.start} is not ASCII)") from None
    data = _object_from_text(raw, "--config")
    try:
        cfg = TateConfig.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"--config: {exc}") from None
    mu = _weight_from_flag(args.mu, "--mu")
    return _dumps(tate_dimension(mu, cfg))


def _cmd_h_op(args):
    from .tate import h_operator
    return _dumps(h_operator(args.r).to_json()["coeffs"])


def _cmd_qbinom(args):
    from .tate import v_binomial
    return _dumps(v_binomial(args.n, args.m).to_string())


def _cmd_inv(args):
    from .plattice import inv_pair
    a = _lattice_from_text(args.a, "--a")
    b = _lattice_from_text(args.b, "--b")
    return _dumps(list(inv_pair(a, b)))


def _cmd_count(args):
    from .plattice import schubert_count
    mu = _weight_from_flag(args.mu, "--mu")
    return _dumps(schubert_count(mu, args.p))


def _cmd_oracle(args):
    from .plattice import convolution_oracle
    lam = _weight_from_flag(args.lam, "--lam")
    mu = _weight_from_flag(args.mu, "--mu")
    nu = _weight_from_flag(args.nu, "--nu")
    return _dumps(convolution_oracle(lam, mu, nu, args.p))


def _cmd_check(args):
    from .checks import SUITES
    rows = SUITES[args.suite]()
    lines = [f"[ pass ] {name}" if ok else f"[ FAIL ] {name}: {detail}" for name, ok, detail in rows]
    failures = [name for name, ok, _ in rows if not ok]
    lines.append(f"{args.suite}: {len(rows) - len(failures)}/{len(rows)} assertions passed")
    if failures:
        lines.append(f"first failure: {failures[0]}")
    return "\n".join(lines), (1 if failures else 0)


def _require_rank(n, w, what):
    if len(w) != n:
        raise SchemaError(f"{what}: weight has rank {len(w)}, expected {n}")


# -- parser / dispatch ---------------------------------------------------


def _verbs():
    """{verb: (handler, {flag: type})}, the one verb table.

    Built when a request runs, not at import, so that a handler replaced on
    the module is the one called.  `check` takes the positional SUITE, one of
    _SUITES, in place of flags.
    """
    return {
        "satake": (_cmd_satake, {"n": _int, "h": str}),
        "inv-satake": (_cmd_inv_satake, {"n": _int, "f": str}),
        "conv": (_cmd_conv, {"n": _int, "a": str, "b": str}),
        "normalize": (_cmd_normalize, {"n": _int, "h": str}),
        "tensor": (_cmd_tensor, {"n": _int, "a": str, "b": str}),
        "weight-mult": (_cmd_weight_mult, {"n": _int, "mu": str, "lam": str}),
        "dim": (_cmd_dim, {"n": _int, "mu": str}),
        "s-op": (_cmd_s_op, {"n": _int, "r": str}),
        "s-pairing": (_cmd_s_pairing, {"n": _int, "mu": str}),
        "tate-dim": (_cmd_tate_dim, {"config": str, "mu": str}),
        "h-op": (_cmd_h_op, {"r": _int}),
        "qbinom": (_cmd_qbinom, {"n": _int, "m": _int}),
        "inv": (_cmd_inv, {"a": str, "b": str}),
        "count": (_cmd_count, {"mu": str, "p": _int}),
        "oracle": (_cmd_oracle, {"lam": str, "mu": str, "nu": str, "p": _int}),
        "check": (_cmd_check, {}),
    }


def _parse_fast(argv):
    """The namespace argparse gives a well-formed request (see the module docstring), read off
    the verb table; None for any other argv, which is left to argparse."""
    verbs = _verbs()
    if not argv or argv[0] not in verbs:
        return None
    verb, rest = argv[0], argv[1:]
    handler, flags = verbs[verb]
    if verb == "check":
        if len(rest) != 1 or rest[0] not in _SUITES:
            return None
        return SimpleNamespace(verb=verb, suite=rest[0], handler=handler)
    if len(rest) != 2 * len(flags):
        return None
    values = {}
    for flag, value in zip(rest[::2], rest[1::2]):
        name = flag[2:]
        if not flag.startswith("--") or name not in flags or name in values or not value or value[0] == "-":
            return None
        try:
            values[name] = flags[name](value)
        except ValueError:
            return None
    return SimpleNamespace(verb=verb, **values, handler=handler)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse prints usage on stderr and exits 2; route through the JSON
        # error body instead so every failure mode has the same machine shape.
        def error(self, message):
            raise SchemaError(message)

    parser = _Parser(prog="satkit", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, (handler, flags) in _verbs().items():
        p = sub.add_parser(verb)
        for flag, kind in flags.items():
            p.add_argument("--" + flag, required=True, type=kind)
        p.set_defaults(handler=handler)
    sub.choices["check"].add_argument("suite", choices=_SUITES)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    code = 0
    try:
        args = _parse_fast(argv) or _build_parser().parse_args(argv)
        out = args.handler(args)
    except SchemaError as exc:
        out, code = _dumps({"error": str(exc)}), 2
    except (ValueError, OverflowError) as exc:  # OverflowError: a weight entry past C ssize_t
        out, code = _dumps({"error": str(exc)}), 1
    if isinstance(out, tuple):
        out, code = out
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at
        # exit does not fail again (the recipe of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def run():
    """The process entry point: main(), then os._exit, which skips the interpreter's teardown.

    main() has printed and flushed the reply, so only stderr is left to flush.
    An exception that escapes main() leaves before os._exit and ends the
    process as usual: a traceback and exit 1.  In-process callers use main().
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
