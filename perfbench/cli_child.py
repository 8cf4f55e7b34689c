"""Run `covridge` CLI arguments with tracing on and write the spans as JSON.

Usage: python cli_child.py SPANS_JSON ARGS...
The exit code is the CLI's own.
"""
import json
import sys

from tracing import Tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import covridge.cli

    with Tracer() as tracer:
        code = covridge.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    sys.exit(code)
