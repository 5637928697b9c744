"""Run one mulingua command line under the span tracer.

The cli workload's traced run starts this script in place of
``python -m mulingua.cli``:

    python tracechild.py STATS_JSON SPANS_JSONL VERB [ARGS...]

It writes the per-function totals to STATS_JSON, appends its spans to
SPANS_JSONL, and exits with the command line's exit code.
"""

import json
import sys

import mulingua.cli as cli
from tracer import Tracer


def main() -> int:
    stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump_stats(), handle)
        tracer.write_spans(spans_path, append=True)


if __name__ == "__main__":
    sys.exit(main())
