"""Cold-process benchmark of the NPBE + Smolyak pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload study-acceptance --seed 0 --seconds 20 --trace 0

Every sample is a fresh ``bench/worker.py`` process, started one at a time
from this process.  With ``--trace 0`` the run samples set-up a few times,
then runs whole passes of the workload until ``--seconds`` have been
measured, and reports the end-to-end metrics as medians over the samples.
With ``--trace 1`` it runs untraced passes the same way, then one traced
process (a traced cold pass and an untraced warm pass), and reports the
per-layer metrics.  ``--smoke`` shrinks every workload for the benchmark's
own test.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a pass that raises,
returns a failed level or fails an output check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("study-acceptance", "study-many-knots", "cutoff-ledger-n65")
SETUP_SAMPLES = 4    # set-up-only processes per untraced run, besides each pass's own set-up
RUN_LIMIT_S = 170.0  # every process of a run ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The inherited environment, with thread counts capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        if var in env and env[var].isdigit() and int(env[var]) > nproc():
            env[var] = str(nproc())
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker processes one at a time and keeps the run inside its deadline."""

    def __init__(self, args):
        tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
        self.out_dir = os.path.join(ROOT, ".bench_out", tag)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                     "out_dir": self.out_dir}
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.log_path = os.path.join(self.out_dir, "worker.log")
        self.started = 0

    def spawn(self, mode: str) -> dict:
        self.started += 1
        result_path = os.path.join(self.out_dir, f"result-{self.started}.json")
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return {"error": "no time left before the run deadline"}
        t0 = time.monotonic()
        spec = dict(self.base, mode=mode, result=result_path, spawned=t0)
        with open(self.log_path, "ab") as log:
            try:
                proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                                      env=self.env, stdout=subprocess.DEVNULL, stderr=log,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                return {"error": f"killed after {timeout:.0f} s at the run deadline"}
        try:
            with open(result_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {"error": f"worker exited with {proc.returncode} and no report"}
        report["elapsed_s"] = time.monotonic() - t0
        return report

    def passes(self, seconds: float, reserve_factor: float = 0.0) -> list:
        """Whole passes until ``seconds`` have been measured (at least one).

        A pass is not started when it, plus ``reserve_factor`` pass-lengths
        kept for work that follows, is expected to overrun the deadline.
        """
        out = []
        t0 = time.monotonic()
        while True:
            out.append(self.spawn("pass"))
            times = [r["elapsed_s"] for r in out if "elapsed_s" in r]
            est = statistics.median(times) if times else 0.0
            now = time.monotonic()
            if now - t0 >= seconds or now + (1.0 + reserve_factor) * est > self.deadline:
                return out


def problems_of(report: dict, reference_text) -> list:
    if "error" in report:
        return [report["error"].strip().splitlines()[-1]]
    found = list(report.get("problems", []))
    if reference_text is not None and report["text"] != reference_text:
        found.append("output differs from the run's first pass")
    return found


def metric(value, unit):
    return {"value": value, "unit": unit}


def tally(passes: list):
    """Print one line per untraced pass; return the passes with timings and the failures."""
    ok = [p for p in passes if "wall_s" in p]
    ref = ok[0]["text"] if ok else None
    failed = 0
    for i, p in enumerate(passes, 1):
        probs = problems_of(p, ref)
        failed += bool(probs)
        desc = ("FAILED: " + "; ".join(probs)) if probs else "ok"
        if "wall_s" in p:
            desc = (f"wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
                    f"rss {p['peak_rss_mb']:.1f} MB, setup {p['setup_s']:.3f} s: ") + desc
        print(f"pass {i}/{len(passes)}: {desc}")
    return ok, failed


def untraced(runner: Runner, args):
    setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    passes = runner.passes(args.seconds)
    ok, failed = tally(passes)
    setup_vals = [r["setup_s"] for r in setups + passes if "setup_s" in r]
    med = (lambda key: statistics.median(p[key] for p in ok)) if ok else (lambda key: None)
    wall = med("wall_s")
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setup_vals) if setup_vals else None, "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "ms_per_knot": metric(1000.0 * wall / ok[0]["knots"] if ok else None, "ms"),
    }
    print(f"samples: {len(ok)} passes, {len(setup_vals)} set-ups; "
          f"failed_share {failed}/{len(passes)}")
    versions = next((r["versions"] for r in setups + passes if "versions" in r), {})
    return len(passes), failed, metrics, versions


def traced(runner: Runner, args):
    from tracing import PROBE_METRICS, SPAN_METRICS

    # keep time for the traced process: a traced pass plus a warm pass
    passes = runner.passes(args.seconds, reserve_factor=2.5)
    ok, failed = tally(passes)
    t = runner.spawn("trace")
    attempted = len(passes) + 2
    layers = {name: metric(None, unit) for name, unit, _ in SPAN_METRICS}
    layers.update({name: metric(None, unit) for name, unit in PROBE_METRICS})
    if "wall_s" in t:
        cold_probs = problems_of(t, ok[0]["text"] if ok else None)
        warm_probs = t["warm_problems"] + (
            [] if t["warm_text"] == t["text"] else ["warm output differs from the cold pass"])
        failed += bool(cold_probs) + bool(warm_probs)
        for label, probs in (("traced cold pass", cold_probs), ("warm pass", warm_probs)):
            print(f"{label}: " + (("FAILED: " + "; ".join(probs)) if probs else "ok"))
        layers.update(t["layers"])
        base = statistics.median(p["wall_s"] for p in ok) if ok else None
        layers["trace.cold_wall_s"] = metric(t["wall_s"], "s")
        layers["trace.warm_wall_s"] = metric(t["warm_wall_s"], "s")
        layers["trace.overhead_s"] = metric(None if base is None else t["wall_s"] - base, "s")
        print_shares(layers, t["wall_s"], base)
        print(f"spans: {t['spans']} written to {os.path.join(runner.out_dir, 'spans.jsonl')}")
    else:
        failed += 2
        print("traced process FAILED: " + "; ".join(problems_of(t, None)))
    print(f"failed_share {failed}/{attempted}")
    return attempted, failed, layers, t.get("versions", {})


def print_shares(layers, cold_wall, untraced_wall):
    """Shares of the layers each workload is meant to stress, with their base."""
    v = {name: m["value"] for name, m in layers.items()}
    rows = [
        ("pde.cg.s", v["pde.cg.s"]),
        ("smolyak.integrate.first_s + harness.run_study.self_s",
         v["smolyak.integrate.first_s"] + v["harness.run_study.self_s"]),
        ("pde.assemble_pulled_back_operator.s", v["pde.assemble_pulled_back_operator.s"]),
        ("trace.warm_wall_s", v["trace.warm_wall_s"]),
    ]
    for label, value in rows:
        print(f"share {label} = {value:.3f} s = {100.0 * value / cold_wall:.1f}% "
              f"of the traced cold wall {cold_wall:.3f} s")
    if untraced_wall is not None:
        print(f"untraced cold wall (median) {untraced_wall:.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="a nonnegative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (the benchmark's own test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "npbe_uq", "__init__.py")):
        print(f"error: no npbe_uq source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args)
    attempted, failed, metrics, versions = (traced if args.trace else untraced)(runner, args)
    env = {"nproc": nproc(), "cpu": cpu_model(), "python": platform.python_version(),
           **versions, **{var: os.environ.get(var) for var in THREAD_VARS}}
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
