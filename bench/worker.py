"""One benchmark process: set up a workload's inputs, run it, and report as JSON.

``run.py`` starts this file once per sample, so every pass is a cold process,
as for a user who runs ``npbe-uq study``.  The single argument is a JSON spec
with the keys ``mode`` (setup, pass or trace), ``workload``, ``seed``,
``smoke``, ``out_dir``, ``result`` (where to write the report) and
``spawned`` (``time.monotonic()`` in the parent just before the start; on
Linux that clock is shared by all processes).

- setup: import ``npbe_uq`` and generate the inputs; report ``setup_s``.
- pass: set up, then run the workload once with tracing off.
- trace: set up, run once under the span recorder, then once more in the
  same process with tracing off (the warm pass), then time a matvec on the
  last assembled operator.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def timed_pass(work) -> dict:
    """Wall and CPU time from the first call into npbe_uq until outputs are checked."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    out = work.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
            "knots": out.knots, "text": out.text, "problems": out.problems}


def traced_passes(work, spec) -> dict:
    import npbe_uq
    import tracing

    run_id = f"{spec['workload']}-seed{spec['seed']}-pid{os.getpid()}"
    rec = tracing.SpanRecorder(run_id)
    rec.install(npbe_uq)
    try:
        cold = timed_pass(work)
    finally:
        rec.uninstall()
    warm = timed_pass(work)
    layers = tracing.span_metrics(rec.spans)
    op = rec.last.get("pde.assemble_pulled_back_operator")
    if op is not None:
        layers.update(tracing.matvec_probe(op.matrix))
    rec.write(os.path.join(spec["out_dir"], "spans.jsonl"))
    return dict(cold, layers=layers, warm_wall_s=warm["wall_s"], warm_text=warm["text"],
                warm_problems=warm["problems"], spans=len(rec.spans))


def main() -> int:
    spec = json.loads(sys.argv[1])
    report = {}
    try:
        import numpy
        import scipy
        import workloads

        work = workloads.make(spec["workload"], spec["seed"], spec["smoke"], spec["out_dir"])
        report["setup_s"] = time.monotonic() - spec["spawned"]
        report["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if spec["mode"] == "pass":
            report.update(timed_pass(work))
        elif spec["mode"] == "trace":
            report.update(traced_passes(work, spec))
    except Exception:  # reported to the parent, which counts the pass as failed
        report["error"] = traceback.format_exc()
        print(report["error"], file=sys.stderr)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main())
