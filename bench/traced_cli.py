"""`python -m satkit.cli` with the benchmark's tracer installed.

    python3 bench/traced_cli.py STEM VERB [ARGS...]

Runs the request exactly as the CLI would and, when it ends, writes the
span summary to STEM.json and the spans to STEM.spans.bin.gz.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402

if __name__ == "__main__":
    stem = sys.argv[1]
    spans = tracer.install(tracer.Tracer())
    from satkit import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        spans.dump(stem + ".spans.bin.gz")
        with open(stem + ".json", "w", encoding="ascii") as fh:
            json.dump(spans.summarize(), fh)
    sys.exit(code)
