"""The satkit benchmark: one workload, measured in cold rounds for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round runs `bench/workloads.py` in a
fresh interpreter, so satkit's lru_caches start empty in every round, as
they do for a new process or a CLI call.  Rounds repeat while the next one
is expected to end within S seconds (at least one round); each round
attempts the same operations, in an order set by the seed.  End-to-end
times are scaled to the reference pace of `bench/pace.py`.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it holds the per-layer
metrics.  Every run also writes a results file under bench/out/results/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("hecke-convolve", "tensor-sweep", "lattice-oracle", "cli-requests")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_ms_p50", "ms"),
    ("cli_ms_p90", "ms"),
)

# (metric, unit, key in the span summary or in the round's "layers")
PER_LAYER = (
    ("laurent.self_s", "s", "laurent.self_s"),
    ("laurent.mul.calls", "count", "laurent.LaurentScalar.__mul__.calls"),
    ("laurent.add.calls", "count", "laurent.LaurentScalar.__add__.calls"),
    ("laurent.new.calls", "count", "laurent.LaurentScalar.__init__.calls"),
    ("laurent.exact_div.calls", "count", "laurent.LaurentScalar.exact_div.calls"),
    ("rootdata.self_s", "s", "rootdata.self_s"),
    ("rootdata.check_weight.calls", "count", "rootdata.check_weight.calls"),
    ("rootdata.is_dominant.calls", "count", "rootdata.is_dominant.calls"),
    ("symfunc.self_s", "s", "symfunc.self_s"),
    ("symfunc.hall_littlewood.calls", "count", "symfunc.hall_littlewood.calls"),
    ("symfunc.hall_littlewood.s", "s", "symfunc.hall_littlewood.s"),
    ("symfunc.hall_littlewood.distinct", "count", "symfunc.hall_littlewood.distinct"),
    ("symfunc.schur.calls", "count", "symfunc.schur.calls"),
    ("symfunc.schur.s", "s", "symfunc.schur.s"),
    ("symfunc.expand_in_schur.s", "s", "symfunc.expand_in_schur.s"),
    ("symfunc.expand_in_schur.steps", "count", "symfunc.expand_in_schur>symfunc.schur.calls"),
    ("symfunc.sympoly_mul.calls", "count", "symfunc.SymPoly.__mul__.calls"),
    ("symfunc.sympoly_mul.s", "s", "symfunc.SymPoly.__mul__.s"),
    ("symfunc.sympoly_new.calls", "count", "symfunc.SymPoly.__init__.calls"),
    ("hecke.self_s", "s", "hecke.self_s"),
    ("hecke.satake.s", "s", "hecke.satake.s"),
    ("hecke.inverse_satake.s", "s", "hecke.inverse_satake.s"),
    ("hecke.inverse_satake.steps", "count", "hecke.inverse_satake>symfunc.hall_littlewood.calls"),
    ("hecke.convolve.calls", "count", "hecke.convolve.calls"),
    ("hecke.convolve.s", "s", "hecke.convolve.s"),
    ("repring.self_s", "s", "repring.self_s"),
    ("repring.tensor.calls", "count", "repring.tensor.calls"),
    ("repring.tensor.s", "s", "repring.tensor.s"),
    ("repring.character.s", "s", "repring.character.s"),
    ("plattice.self_s", "s", "plattice.self_s"),
    ("plattice.enumerate_between.s", "s", "plattice.enumerate_between.s"),
    ("plattice.inv_pair.calls", "count", "plattice.inv_pair.calls"),
    ("plattice.inv_pair.s", "s", "plattice.inv_pair.s"),
    ("plattice.smith_invariants.calls", "count", "plattice.smith_invariants.calls"),
    ("plattice.smith_invariants.s", "s", "plattice.smith_invariants.s"),
    ("plattice.convolution_oracle.calls", "count", "plattice.convolution_oracle.calls"),
    ("plattice.convolution_oracle.s", "s", "plattice.convolution_oracle.s"),
    ("plattice.schubert_count.s", "s", "plattice.schubert_count.s"),
    ("plattice.oracle_yield", "ratio", None),
    ("trace_k.self_s", "s", "trace_k.self_s"),
    ("tate.self_s", "s", "tate.self_s"),
    ("checks.gl2-paper.s", "s", "checks.gl2-paper.s"),
    ("checks.oracle.s", "s", "checks.oracle.s"),
    ("checks.tate.s", "s", "checks.tate.s"),
    ("checks.hl-specialize.s", "s", "checks.hl-specialize.s"),
    ("cli.interpreter_s", "s", "cli.interpreter_s"),
    ("cli.import_s", "s", "cli.import_s"),
    ("bench.traced_run_s", "s", None),
    ("bench.untraced_run_s", "s", None),
    ("bench.trace_overhead_s", "s", None),
)


def run_round(workload, seed, traced, out_dir, env):
    """One cold round in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(BENCH, "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
        "--out",
        out_dir,
        "--spawned-at",
    ]
    # the child reads the same monotonic clock, so set-up starts here
    proc = subprocess.run(
        cmd + [repr(time.monotonic())], capture_output=True, text=True, env=env, timeout=170
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, pct):
    """The pct-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, rounds, scaled=True):
    """The end-to-end metrics; times at the reference pace unless not `scaled`."""
    times = rounds if scaled else [r["wall"] for r in rounds]
    setups = [s for t in times for s in t["setup_s"]]
    latencies = [s * 1000 for t in times for s in t["cli_s"]]
    rss = [r["peak_rss_mb"] for r in rounds]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(sum(t["run_s"]) for t in times),
        # the max over request processes for the CLI, else the round process
        "peak_rss_mb": max(rss) if workload == "cli-requests" else statistics.median(rss),
        "cli_ms_p50": statistics.median(latencies),
        "cli_ms_p90": percentile(latencies, 90),
    }


def per_layer(untraced, traced):
    """Per-layer metrics; counts must repeat exactly across traced rounds."""
    spans = [r["spans"] for r in traced]
    for other in spans[1:]:
        for key, value in spans[0].items():
            if key.endswith((".calls", ".distinct", ".result_sum")) and other.get(key) != value:
                raise RuntimeError(f"{key} differs between traced rounds: {value} vs {other.get(key)}")
    layers = {}
    for key in {k for r in untraced for k in r["layers"]}:
        layers[key] = statistics.median(r["layers"].get(key, 0.0) for r in untraced)
    # every span time comes from the traced round of median length, so that
    # its self times add up to at most its run_s; wall times, unscaled, as
    # the spans are
    middle = sorted(traced, key=lambda r: sum(r["wall"]["run_s"]))[(len(traced) - 1) // 2]
    traced_run = sum(middle["wall"]["run_s"])
    untraced_run = statistics.median(sum(r["wall"]["run_s"]) for r in untraced)
    first = spans[0]
    inv_pairs = first.get("plattice.convolution_oracle>plattice.inv_pair.calls", 0)
    special = {
        "plattice.oracle_yield": first.get("plattice.convolution_oracle.result_sum", 0) / inv_pairs
        if inv_pairs
        else 0.0,
        "bench.traced_run_s": traced_run,
        "bench.untraced_run_s": untraced_run,
        "bench.trace_overhead_s": traced_run - untraced_run,
    }
    out = {}
    for name, unit, key in PER_LAYER:
        if key is None:
            value = special[name]
        elif key in layers:
            value = layers[key]
        elif unit == "count":
            value = first.get(key, 0)
        else:
            value = middle["spans"].get(key, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over satkit's sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "satkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "satkit", "__init__.py")):
        print(f"no satkit sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no round pays for it
    compileall.compile_dir(os.path.join(SRC, "satkit"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT, "runs", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    rounds = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_round(args.workload, args.seed, traced, out_dir, env)))
        elapsed = time.perf_counter() - started
        # stop when one more round of the mean length would overrun
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds and (not args.trace or len(rounds) >= 2):
            break

    untraced = [r for t, r in rounds if not t]
    traced_rounds = [r for t, r in rounds if t]
    unexpected = [u for _, r in rounds for u in r["unexpected"]]
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(untraced, traced_rounds)
    else:
        values = end_to_end(args.workload, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "unscaled": end_to_end(args.workload, untraced, scaled=False),
        "rounds": [dict(r, traced=t) for t, r in rounds],
        **result,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    with open(os.path.join(OUT, "results", f"{tag}-{stamp}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
