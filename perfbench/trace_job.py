"""Run one finsite CLI job in this process with the layer tracer installed.

    python perfbench/trace_job.py SPANS_FILE CLI_ARG...

The CLI arguments are those of `python -m finsite.cli`; the spans and
counters are written to SPANS_FILE when the job ends.  The package is
imported from the checkout's `src` directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import finsite.cli

    code = finsite.cli.main(cli_args)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
