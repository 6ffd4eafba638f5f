"""Traced ``singwave`` command for the shipped_cli workload.

    python3 perfbench/child.py <call_id> <summary.json> <spans.tsv> all --problem ...

Behaves like the ``singwave`` console command (same arguments, stdout
and exit code) with the tracer installed around the call; writes the
span summary and the spans themselves when the command ends.
"""

import json
import sys
import time


def main(call_id: str, summary_path: str, spans_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import singwave.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, write_spans

    tracer = Tracer()
    with tracer:
        rc = singwave.cli.main(argv)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    write_spans(spans_path, [(call_id, tracer)])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]))
