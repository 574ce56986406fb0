"""Run polarlat CLI invocations inside one process, traced or not.

Usage: python3 inproc.py SPEC.json

SPEC.json holds ``{"traced": bool, "runs": [[arg, ...], ...],
"outdirs": [dir, ...], "result": path, "spans": path}``.  The runs execute
in order through ``polarlat.cli.main``; the result file receives the wall
time of the runs, their exit codes and, when traced, the per-layer metrics.
The spans themselves go to the spans file.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.dont_write_bytecode = True


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from polarlat import cli, model

    tracer = None
    if spec["traced"]:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    codes = []
    started = time.perf_counter()
    for k, argv in enumerate(spec["runs"]):
        if tracer is not None:
            tracer.request = k
        codes.append(cli.main(list(argv)))
    wall = time.perf_counter() - started
    result = {"wall_s": wall, "codes": codes}
    if tracer is not None:
        cached = getattr(model, "_manifold_energy_cached", None)
        info = cached.cache_info() if cached is not None else (0, 0)
        output_bytes = sum(_tree_bytes(d) for d in spec["outdirs"])
        result["metrics"] = tracing.layer_metrics(
            tracer.spans, (info[0], info[1]), output_bytes)
        result["missing"] = tracer.missing
        result["tips"] = tracing.tip_table(tracer.spans)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request",
                                  "attrs"], "spans": tracer.spans}, fh,
                      separators=(",", ":"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
