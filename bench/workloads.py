"""One round of one workload, run in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --trace 0|1 \
        --spawned-at MONOTONIC --out DIR

`run.py` starts this script once per round with PYTHONPATH pointing at the
checkout's `src`, so every round starts with satkit's lru_caches empty, as
a new process or a CLI call does.  The round prints one JSON line: its
set-up seconds, timed-section seconds and CLI latencies (each scaled to the
reference pace by the probes taken next to it, see pace.py; the raw wall
times under "wall"), the pace probes, peak RSS, operations attempted and
failed, and (traced) the span summary.

The seed only orders the operations; the set of operations is fixed per
workload, so every round attempts the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import pace  # noqa: E402
import reference as ref  # noqa: E402

CLI_RUNNER = os.path.join(BENCH, "traced_cli.py")


class Ledger:
    """Operations attempted and failed; known faults are kept apart."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, what, problem, known_fault=False):
        """Count one operation; `problem` is None when its output checked out."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{what}: {problem}")


class Cli:
    """Issues `satkit` requests one at a time, each in a fresh interpreter."""

    def __init__(self, out_dir, traced, host_pace):
        self.out_dir = out_dir
        self.traced = traced
        self.host_pace = host_pace
        self.summaries = []
        self.count = 0

    def request(self, args):
        """Return (Timed latency, exit code, stdout text, stderr text)."""
        if self.traced:
            self.count += 1
            stem = os.path.join(self.out_dir, f"request-{self.count}")
            cmd = [sys.executable, CLI_RUNNER, stem, *args]
        else:
            cmd = [sys.executable, "-m", "satkit.cli", *args]
        latency, proc = timed(self.host_pace, lambda: subprocess.run(cmd, capture_output=True, timeout=120))
        if self.traced:
            with open(stem + ".json", encoding="ascii") as fh:
                self.summaries.append(json.load(fh))
        return latency, proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class Timed(NamedTuple):
    wall_s: float
    scaled_s: float  # at the reference pace of pace.py


def timed(host_pace, call):
    """Probe the start pace, then run `call()`; return (Timed, its result).

    `call` starts an interpreter, so it is scaled by the bare start.
    """
    before = host_pace.start_now()
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    return Timed(wall, wall * pace.START_REFERENCE_S / before), result


class Section:
    """Marks the end of set-up and times the section after it.

    Set-up runs from interpreter start (the parent's clock reading passed
    in as `spawned_at`) to `start()`; it is scaled by a bare start probed
    right after it.  The section calls `host_pace.tick()` between
    operations; the time of those probes is taken out of the section's
    time, and their harmonic mean scales it.  In a traced round `start()`
    installs the tracer, and `stop()` stops it, so that the checks which
    follow the section are not counted.
    """

    def __init__(self, spawned_at, trace, host_pace):
        self.spawned_at = spawned_at
        self.trace = trace
        self.host_pace = host_pace
        self.tracer = None

    def start(self):
        setup_s = time.monotonic() - self.spawned_at
        host_pace = self.host_pace
        self.setup = Timed(setup_s, setup_s * pace.START_REFERENCE_S / host_pace.start_now())
        self.first_probe = len(host_pace.mix_s)
        host_pace.now()
        if self.trace:
            import tracer

            self.tracer = tracer.install(tracer.Tracer())
        self.probed_s = host_pace.spent_s
        self.t0 = time.perf_counter()

    def stop(self):
        host_pace = self.host_pace
        run_s = time.perf_counter() - self.t0 - (host_pace.spent_s - self.probed_s)
        self.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            self.tracer.stop()
        host_pace.now()
        probes = host_pace.mix_s[self.first_probe :]
        self.run = Timed(run_s, run_s * pace.REFERENCE_S / statistics.harmonic_mean(probes))


def one_line(code, stdout, stderr):
    """The JSON value of a well-formed reply, or raise with the reason."""
    if code != 0:
        raise ValueError(f"exit {code}: {stderr.strip()[-200:]}")
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"{len(lines)} stdout lines")
    return json.loads(lines[0])


def parse_terms(data):
    """A CLI element {"(a,b)": "scalar"} as {weight: polynomial in v}."""
    return {
        tuple(int(x) for x in key.strip("()").split(",")): ref.parse_laurent(value)
        for key, value in data.items()
    }


def element_terms(el):
    """A satkit element's terms as {weight: polynomial in v}, via public API."""
    return {w: ref.parse_laurent(el.coefficient(w).to_string()) for w in el.support()}


def q_poly(mu):
    """N_mu as a polynomial in v (q = v^2)."""
    return {2 * e: c for e, c in ref.n_mu(mu).items()}


# -- checks ------------------------------------------------------------------


def check_product(a, b, terms):
    """T_a * T_b: degree identity, leading term, dominance, even powers."""
    top = tuple(x + y for x, y in zip(a, b))
    if terms.get(top) != {0: 1}:
        return f"coefficient of T{top} is {terms.get(top)}"
    for nu, c in terms.items():
        if not ref.is_dominant(nu) or not ref.dominance_leq(nu, top):
            return f"{nu} is not <= {top} in dominance"
        if any(e % 2 for e in c):
            return f"odd power of v in the coefficient of T{nu}"
    if degree(terms) != ref.lp_mul(q_poly(a), q_poly(b)):
        return "sum c_nu N_nu != N_a N_b"
    return None


def degree(terms):
    """sum_nu c_nu N_nu(v^2): the degree character of a Hecke element."""
    total = {}
    for nu, c in terms.items():
        total = ref.lp_add(total, ref.lp_mul(c, q_poly(nu)))
    return total


def check_tensor(a, b, terms):
    """V_a (x) V_b: Brauer-Klimyk decomposition and dimension count."""
    got = {}
    for w, c in terms.items():
        if set(c) - {0}:
            return f"non-constant multiplicity at V{w}"
        got[w] = c.get(0, 0)
    want = ref.brauer_klimyk(a, b)
    if got != want:
        return f"decomposition {got} != Brauer-Klimyk {want}"
    dims = sum(m * ref.weyl_dimension(w) for w, m in got.items())
    if dims != ref.weyl_dimension(a) * ref.weyl_dimension(b):
        return "dimensions do not multiply"
    return None


def check_satake(mu, terms, twisted=True):
    """satake(T_mu) at the degree point is N_mu(v^2); normalized drops v^<2rho,mu>."""
    want = q_poly(mu) if twisted else ref.lp_shift(q_poly(mu), -ref.two_rho(mu))
    if ref.degree_of_symmetric(terms) != want:
        return "transform does not evaluate to N_mu at the degree point"
    return None


# -- in-process workloads ------------------------------------------------------


def unordered_pairs(weights):
    return [(a, b) for i, a in enumerate(weights) for b in weights[i:]]


def hecke_inputs():
    pairs = []
    for n, hi in ((2, 6), (3, 4), (4, 2)):
        pairs += unordered_pairs(ref.dominant_box(n, 0, hi))
    return pairs


# Each in-process round ends by sending one request of its own verb this
# many times; a single request keeps its latency percentiles from jumping
# between requests of different cost.
CLI_REPEATS = 8


def cli_part(cli, ledger, args, check):
    """Send `args` CLI_REPEATS times; each reply must check out and repeat byte for byte."""
    latencies, first = [], None
    for _ in range(CLI_REPEATS):
        lat, code, stdout, stderr = cli.request(args)
        latencies.append(lat)
        first = stdout if first is None else first
        if stdout != first:
            problem = "stdout differs between repeats"
        else:
            problem = guarded(lambda: check(one_line(code, stdout, stderr)))
        ledger.record("cli " + " ".join(args), problem)
    return latencies


def cli_payload(w):
    return json.dumps({"(" + ",".join(map(str, w)) + ")": 1})


def hecke_round(rng, cli, ledger, section):
    from satkit import hecke

    pairs = hecke_inputs()
    rng.shuffle(pairs)
    section.start()
    out = []
    for a, b in pairs:
        section.host_pace.tick()
        try:
            out.append(hecke.convolve(hecke.basis(a), hecke.basis(b)))
        except Exception as exc:  # a crash is one failed operation
            out.append(exc)
    section.stop()
    for (a, b), prod in zip(pairs, out):
        problem = repr(prod) if isinstance(prod, Exception) else check_product(a, b, element_terms(prod))
        ledger.record(f"convolve{a}{b}", problem)
    a, b = (2, 1, 1, 0), (2, 2, 1, 0)
    args = ["conv", "--n", "4", "--a", cli_payload(a), "--b", cli_payload(b)]
    return cli_part(cli, ledger, args, lambda data: check_product(a, b, parse_terms(data)))


def tensor_inputs():
    pairs = []
    for n, lo, hi in ((2, -4, 4), (3, -2, 2), (4, -1, 1)):
        pairs += unordered_pairs(ref.dominant_box(n, lo, hi))
    return pairs


def tensor_round(rng, cli, ledger, section):
    from satkit import repring

    pairs = tensor_inputs()
    rng.shuffle(pairs)
    section.start()
    out = []
    for a, b in pairs:
        section.host_pace.tick()
        try:
            out.append(repring.tensor(repring.irreducible(a), repring.irreducible(b)))
        except Exception as exc:
            out.append(exc)
    section.stop()
    for (a, b), prod in zip(pairs, out):
        problem = repr(prod) if isinstance(prod, Exception) else check_tensor(a, b, element_terms(prod))
        ledger.record(f"tensor{a}{b}", problem)
    a, b = (3, 0, -3), (2, 1, -3)
    args = ["tensor", "--n", "3", "--a", cli_payload(a), "--b", cli_payload(b)]
    return cli_part(cli, ledger, args, lambda data: check_tensor(a, b, parse_terms(data)))


def lattice_inputs():
    """Oracle pairs (lam, mu, p), Schubert cells (mu, p) and windows (p, n, N).

    Hecke algebras are commutative, so each unordered pair is counted with
    lam the coweight whose window is smaller; in GL_3 at p = 2 one of the two
    stays in the box 0..1, which keeps lam's window at depth 1.
    """
    small = ref.dominant_box(3, 0, 1)
    gl3 = []
    for a in small:
        for b in ref.dominant_box(3, 0, 2):
            if b not in small or small.index(b) >= small.index(a):
                gl3.append((a, b, 2))
    gl2 = [(a, b, 3) for a, b in unordered_pairs(ref.dominant_box(2, 0, 3))]
    cells = [(mu, 2) for mu in ref.dominant_box(3, 0, 2)] + [
        (mu, 3) for mu in ref.dominant_box(2, 0, 3)
    ]
    windows = [(2, 2, 1), (2, 3, 1), (3, 3, 1)]
    return gl3 + gl2, cells, windows


def lattice_round(rng, cli, ledger, section):
    from satkit import hecke, plattice

    pairs, cells, windows = lattice_inputs()
    rng.shuffle(pairs)
    rng.shuffle(cells)
    rng.shuffle(windows)
    section.start()
    counted = []
    for lam, mu, p in pairs:
        section.host_pace.tick()
        try:
            prod = hecke.convolve(hecke.basis(lam), hecke.basis(mu))
            counts = {nu: plattice.convolution_oracle(lam, mu, nu, p) for nu in prod.support()}
            counted.append((prod, counts))
        except Exception as exc:
            counted.append(exc)
    cell_counts = []
    for mu, p in cells:
        section.host_pace.tick()
        try:
            cell_counts.append(plattice.schubert_count(mu, p))
        except Exception as exc:
            cell_counts.append(exc)
    sizes = []
    for p, n, depth in windows:
        section.host_pace.tick()
        try:
            sizes.append(len(plattice.enumerate_between(p, n, depth)))
        except Exception as exc:
            sizes.append(exc)
    section.stop()
    transform = {}
    for (lam, mu, p), got in zip(pairs, counted):
        if isinstance(got, Exception):
            ledger.record(f"oracle{lam}{mu}", repr(got))
            continue
        prod, counts = got
        terms = element_terms(prod)
        transform[(lam, mu)] = terms
        for nu, count in counts.items():
            want = ref.evaluate(ref.v_to_q(terms[nu]), p)
            ledger.record(f"oracle{lam}{mu}{nu}", None if count == want else f"{count} != {want}")
        total = sum(c * ref.evaluate(ref.n_mu(nu), p) for nu, c in counts.items())
        want = ref.evaluate(ref.n_mu(lam), p) * ref.evaluate(ref.n_mu(mu), p)
        ledger.record(f"degree{lam}{mu}", None if total == want else f"{total} != {want}")
    for (mu, p), got in zip(cells, cell_counts):
        want = ref.evaluate(ref.n_mu(mu), p)
        ledger.record(f"schubert{mu}", None if got == want else f"{got!r} != {want}")
    for (p, n, depth), got in zip(windows, sizes):
        want = ref.window_size(p, n, depth)
        ledger.record(f"window{(p, n, depth)}", None if got == want else f"{got!r} != {want}")

    # the lattice route over the CLI against this round's transform route
    lam, mu, nu = (1, 1, 0), (2, 1, 0), (2, 2, 1)
    args = ["oracle", "--lam", csv(lam), "--mu", csv(mu), "--nu", csv(nu), "--p", "2"]
    return cli_part(
        cli, ledger, args, lambda data: expect(data, ref.evaluate(ref.v_to_q(transform[(lam, mu)].get(nu, {})), 2))
    )


def csv(w):
    return ",".join(map(str, w))


def expect(got, want):
    return None if got == want else f"{got!r} != {want!r}"


def guarded(check):
    """Run a check; a malformed reply makes the operation fail, not the round."""
    try:
        return check()
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024


# -- cli-requests ---------------------------------------------------------------

VERB_REPEATS = 3
PROBES = 3
SUITES = ("gl2-paper", "oracle", "tate", "hl-specialize")


def cli_requests(config_path):
    """(args, check or None, kind) for one round; kind is verb, heavy, check or malformed.

    The fifteen verbs are the ones every CLI determinism test issues; the
    heavy requests make the tail; the malformed two fail today (exit 1
    instead of 2, and a raw traceback for 1/0).
    """
    u ={"p": 2, "basis": [["1", "0"], ["0", "1"]]}
    w = {"p": 2, "basis": [["1/2", "1"], ["0", "4"]]}
    verbs = [
        (["satake", "--n", "2", "--h", '{"(1,0)":1}'], lambda d: check_satake((1, 0), parse_terms(d))),
        (
            ["inv-satake", "--n", "2", "--f", '{"(1,0)":"v"}'],
            # the degree character commutes with the transform
            lambda d: expect(degree(parse_terms(d)), ref.degree_of_symmetric({(1, 0): {1: 1}})),
        ),
        (
            ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
            # the paper's GL_2 identity T_(1,0)^2 = T_(2,0) + (1+v^2) T_(1,1)
            lambda d: expect(parse_terms(d), {(2, 0): {0: 1}, (1, 1): {0: 1, 2: 1}}),
        ),
        (["normalize", "--n", "2", "--h", '{"(2,0)":1}'], lambda d: check_satake((2, 0), parse_terms(d), twisted=False)),
        (
            ["tensor", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
            lambda d: check_tensor((1, 0), (1, 0), parse_terms(d)),
        ),
        (
            ["weight-mult", "--n", "3", "--mu", "2,1,0", "--lam", "1,1,1"],
            lambda d: expect(d, ref.gt_weights((2, 1, 0)).get((1, 1, 1), 0)),
        ),
        (["dim", "--n", "2", "--mu", "1,0"], lambda d: expect(d, ref.weyl_dimension((1, 0)))),
        (
            ["s-op", "--n", "2", "--r", '{"(2,0)":1}'],
            lambda d: expect(parse_terms(d), {w_: {0: m} for w_, m in ref.character((2, 0)).items()}),
        ),
        (["s-pairing", "--n", "2", "--mu", "1,0"], lambda d: expect(d, str(ref.weyl_dimension((1, 0))))),
        (
            ["tate-dim", "--config", config_path, "--mu", "1,1,0"],
            lambda d: expect(d, ref.tate_dimension_reverse_negate((1, 1, 0))),
        ),
        (["h-op", "--r", "2"], None),
        (
            ["qbinom", "--n", "4", "--m", "2"],
            lambda d: expect(ref.parse_laurent(d), ref.gaussian_binomial(4, 2)),
        ),
        (
            ["inv", "--a", json.dumps(u), "--b", json.dumps(w)],
            lambda d: expect(d, list(ref.elementary_divisors_2x2(w["basis"], 2))),
        ),
        (["count", "--mu", "1,1,0", "--p", "3"], lambda d: expect(d, ref.evaluate(ref.n_mu((1, 1, 0)), 3))),
        (
            ["oracle", "--lam", "1,0", "--mu", "1,0", "--nu", "1,1", "--p", "3"],
            lambda d: expect(d, ref.evaluate({0: 1, 1: 1}, 3)),  # 1 + q at q = 3
        ),
    ]
    out = [(args, check, "verb") for args, check in verbs for _ in range(VERB_REPEATS)]
    big = (3, 2, 1, 0)
    out.append(
        (
            ["conv", "--n", "4", "--a", cli_payload(big), "--b", cli_payload(big)],
            lambda d: check_product(big, big, parse_terms(d)),
            "heavy",
        )
    )
    out.append(
        (
            ["satake", "--n", "5", "--h", cli_payload((2, 1, 1, 0, 0))],
            lambda d: check_satake((2, 1, 1, 0, 0), parse_terms(d)),
            "heavy",
        )
    )
    # the oracle count is checked against the conv request after the round
    out.append((["conv", "--n", "3", "--a", cli_payload((2, 1, 0)), "--b", cli_payload((1, 1, 0))], None, "heavy"))
    out.append((["oracle", "--lam", "2,1,0", "--mu", "1,1,0", "--nu", "2,2,1", "--p", "2"], None, "heavy"))
    out += [(["check", suite], None, "check") for suite in SUITES]
    out.append((["conv", "--n", "2", "--a", '{"(1,0)":"1/0"}', "--b", '{"(1,0)":1}'], None, "malformed"))
    bad = {"p": 2, "basis": [["x", "0"], ["0", "1"]]}
    out.append((["inv", "--a", json.dumps(bad), "--b", json.dumps(u)], None, "malformed"))
    return out


def check_suite(code, stdout):
    lines = stdout.splitlines()
    if code != 0 or not lines:
        return f"exit {code}"
    rows = lines[:-1]
    if not rows or any(not row.startswith("[ pass ] ") for row in rows):
        return "a row did not pass"
    if not lines[-1].endswith(f"{len(rows)}/{len(rows)} assertions passed"):
        return f"summary line {lines[-1]!r}"
    return None


def check_malformed(code, stdout):
    lines = stdout.splitlines()
    if code != 2 or len(lines) != 1:
        return f"exit {code} with {len(lines)} stdout lines (want exit 2 and one line)"
    try:
        body = json.loads(lines[0])
    except ValueError:
        return "stdout is not JSON"
    return None if isinstance(body, dict) and set(body) == {"error"} else "no error body"


def probe(host_pace, code):
    cmd = [sys.executable, "-c", code]
    return timed(host_pace, lambda: subprocess.run(cmd, check=True, capture_output=True, timeout=60))[0]


def cli_round(rng, cli, ledger, out_dir):
    """Returns the round's numbers; every request is a fresh interpreter."""
    config_path = os.path.join(out_dir, "u3.json")
    reverse_negate = [[-1 if j == 2 - i else 0 for j in range(3)] for i in range(3)]
    with open(config_path, "w", encoding="ascii") as fh:
        json.dump({"n": 3, "center": [[1, 1, 1]], "sigma": {"matrix": reverse_negate, "order": 2}}, fh)
    requests = cli_requests(config_path)
    rng.shuffle(requests)
    # the start-up probes are spread over the round, so that their median
    # sees the same host as the requests do
    probe_at = {i * len(requests) // PROBES for i in range(PROBES)}
    imported, replies = [], []
    for i, (args, _, _) in enumerate(requests):
        if i in probe_at:
            imported.append(probe(cli.host_pace, "import satkit.cli"))
        replies.append(cli.request(args))

    latencies, suite_s, first_stdout, by_args = [], {}, {}, {}
    for (args, check, kind), (lat, code, stdout, stderr) in zip(requests, replies):
        name = " ".join(args)
        if kind == "malformed":
            # known faults of the error contract; they count as failed
            ledger.record(name, check_malformed(code, stdout), known_fault=True)
            continue
        if kind == "check":
            suite_s[args[1]] = lat.wall_s
            ledger.record(name, check_suite(code, stdout))
            continue
        latencies.append(lat)
        problem = None
        if first_stdout.setdefault(name, stdout) != stdout:
            problem = "stdout differs between repeats"
        else:
            try:
                by_args[name] = one_line(code, stdout, stderr)
                problem = check(by_args[name]) if check else None
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        ledger.record(name, problem)
    conv = "conv --n 3 --a " + cli_payload((2, 1, 0)) + " --b " + cli_payload((1, 1, 0))
    oracle = "oracle --lam 2,1,0 --mu 1,1,0 --nu 2,2,1 --p 2"
    if conv in by_args and oracle in by_args:
        terms = parse_terms(by_args[conv])
        problem = check_product((2, 1, 0), (1, 1, 0), terms) or expect(
            by_args[oracle], ref.evaluate(ref.v_to_q(terms.get((2, 2, 1), {})), 2)
        )
        ledger.record("oracle against conv at q = 2", problem)
    else:
        ledger.record("oracle against conv at q = 2", "a request failed")
    bare_s = statistics.median(cli.host_pace.start_s)
    return {
        **timings(imported, [reply[0] for reply in replies], latencies),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "layers": {
            "cli.interpreter_s": bare_s,
            "cli.import_s": statistics.median(t.wall_s for t in imported) - bare_s,
            **{f"checks.{suite}.s": s for suite, s in suite_s.items()},
        },
    }


def timings(setup, run, cli):
    """A round's set-up times, timed units (summed to its run_s) and CLI latencies.

    Scaled seconds at the top level; raw wall seconds under "wall".
    """
    units = {"setup_s": setup, "run_s": run, "cli_s": cli}
    out = {key: [t.scaled_s for t in ts] for key, ts in units.items()}
    out["wall"] = {key: [t.wall_s for t in ts] for key, ts in units.items()}
    return out


IN_PROCESS = {
    "hecke-convolve": hecke_round,
    "tensor-sweep": tensor_round,
    "lattice-oracle": lattice_round,
}
WORKLOADS = (*IN_PROCESS, "cli-requests")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    ledger = Ledger()
    host_pace = pace.Pace()
    cli = Cli(args.out, bool(args.trace) and args.workload == "cli-requests", host_pace)
    if args.workload == "cli-requests":
        result = cli_round(rng, cli, ledger, args.out)
        if cli.traced:
            result["spans"] = add_summaries(cli.summaries)
    else:
        import satkit.hecke  # noqa: F401  (the import is part of set-up)
        import satkit.plattice  # noqa: F401
        import satkit.repring  # noqa: F401

        section = Section(args.spawned_at, args.trace, host_pace)
        latencies = IN_PROCESS[args.workload](rng, cli, ledger, section)
        result = {
            **timings([section.setup], [section.run], latencies),
            "peak_rss_mb": section.peak_rss_mb,
            "layers": {},
        }
        if section.tracer is not None:
            result["spans"] = section.tracer.summarize()
            section.tracer.dump(os.path.join(args.out, "spans.bin.gz"))
    result.update(
        pace_s=host_pace.mix_s,
        start_pace_s=host_pace.start_s,
        attempted=ledger.attempted,
        failed=ledger.failed,
        unexpected=ledger.unexpected[:20],
    )
    print(json.dumps(result))


def add_summaries(summaries):
    total = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    return total


if __name__ == "__main__":
    main()
