"""One ``verify_all`` op: the foursplit CLI in a fresh process, then the
reference kernel in the same process.

    PYTHONPATH=src python perfbench/cli_op.py REF.json SPANS.json|- verify all --seed 3

Runs ``foursplit.cli.main`` as ``python -m foursplit.cli`` does, under the
tracing wrappers when a spans path is given, then the reference kernel for
its share of the time the CLI took, on the core the CLI just used, and
writes the kernel's times to REF.json.  Exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time

from reference import Reference


def main(argv: list[str]) -> int:
    ref_path, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import foursplit.cli as cli

    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        code = cli.main(cli_argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    cli_s = time.perf_counter() - t0
    sys.stdout.flush()
    reference = Reference()
    reference.keep_up(cli_s)
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(reference.times, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
