"""One benchmark process: build a workload's inputs, run its jobs, check them.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes:
  setup   build round 0's inputs and stop; report when the first job would start
  run     run whole rounds until S CPU seconds have been spent inside timed calls
  traced  run whole rounds of every workload, each job once with the tracer
          off and once with it on, and report per-layer figures

The last line of stdout is one JSON object for run.py.  Jobs run in a
fixed order, one at a time; before each, the program's caches are emptied
and garbage is collected, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import monotonic, process_time

STARTED = monotonic()
# Start no new round after this many wall seconds, so that a run ends well
# within its 180 s even when checks or a slow machine stretch the rounds.
WALL_LIMIT_S = 100

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import nerode  # noqa: E402  (from the checkout's src/)
import workloads  # noqa: E402


def reset_caches() -> None:
    """Empty every cache the program keeps between calls: functools caches
    and module-level dicts named *_CACHE."""
    for name, mod in list(sys.modules.items()):
        if name != "nerode" and not name.startswith("nerode."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python kernel: a dict of 12 000 tuple
    keys and strings, built, walked and sorted.  It runs before every job,
    so that run.py can scale each job's time by the machine's speed at that
    moment."""
    t0 = process_time()
    table = {}
    for i in range(12_000):
        table[(i, i * 7 % 1000, i & 255)] = "w%d" % (i % 2500)
    total = 0
    for key, value in table.items():
        total += key[1] + len(value)
    sorted(table.values())
    return process_time() - t0


def digest(out) -> str:
    if isinstance(out, BaseException):
        out = (type(out).__name__, str(out))
    return hashlib.sha256(pickle.dumps(out, protocol=4)).hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = None
        if workload == "cli":
            import nerode.cli  # noqa: F401  (the cli workload calls it in process)

            self.cli = workloads.Cli()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.durations: list[tuple[str, float, float]] = []  # kind, CPU s, calibration s before

    def round(self, round_no: int):
        return workloads.build_round(self.workload, self.seed, round_no, nerode, self.workdir, self.cli)

    def execute(self, job):
        """Run one job; returns (output or exception, CPU seconds, failed)."""
        reset_caches()
        gc.collect()
        self.cal = calibrate()
        t0 = process_time()
        try:
            out = job.run()
        except Exception as e:  # an operation that fails is counted, not fatal
            dt = process_time() - t0
            return e, dt, True
        dt = process_time() - t0
        return out, dt, False

    def settle(self, job, out, dt: float, failed: bool) -> None:
        """Count and check one executed job."""
        self.attempted += 1
        if not failed:
            try:
                job.check(out)
            except Exception as e:  # a check that cannot read the output fails too
                if job.fault:
                    failed = True
                else:
                    self.wrong.append(f"{job.kind}: {type(e).__name__}: {e}")
        elif not job.fault:
            self.wrong.append(f"{job.kind}: raised {type(out).__name__}: {out}")
            print("".join(traceback.format_exception(out)), file=sys.stderr)
        if failed:
            self.failed += 1
        else:
            self.durations.append((job.kind, dt, self.cal))


def mode_run(args, workdir: Path) -> dict:
    runner = Runner(args.workload, args.seed, workdir)
    jobs = runner.round(0)
    t_first = process_time()
    setup_cal = sorted(calibrate() for _ in range(3))[1]
    if args.mode == "setup":
        return {"t_first": t_first, "cal": setup_cal}
    spent = 0.0
    rounds = 0
    while True:
        for job in jobs:
            out, dt, failed = runner.execute(job)
            spent += dt
            runner.settle(job, out, dt, failed)
            del out
        rounds += 1
        if spent >= args.seconds or monotonic() - STARTED > WALL_LIMIT_S:
            break
        jobs = None
        gc.collect()
        jobs = runner.round(rounds)
    return {
        "t_first": t_first,
        "cal": setup_cal,
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "durations": runner.durations,
        "cal_end": calibrate(),
        "spent_s": spent,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def mode_traced(args, workdir: Path) -> dict:
    import nerode.cli  # noqa: F401  (every layer is traced, the cli one too)
    import tracer

    tr = tracer.Tracer()
    tr.install()
    rounds = 0
    spent = 0.0
    attempted = failures = 0
    wrong: list[str] = []
    by_workload: dict = {w: defaultdict(float) for w in workloads.WORKLOADS}
    plain = traced = 0.0
    try:
        while True:
            for workload in workloads.WORKLOADS:
                runner = Runner(workload, args.seed, workdir)
                before = dict(tr.self_s)
                tr.active = True
                jobs = runner.round(rounds)
                tr.active = False
                for job in jobs:
                    out0, dt0, failed0 = runner.execute(job)
                    d0 = digest(out0)
                    del out0
                    tr.active = True
                    out, dt, failed = runner.execute(job)
                    tr.active = False
                    if digest(out) != d0 or failed != failed0:
                        runner.wrong.append(f"{job.kind}: output differs with tracing on")
                    runner.settle(job, out, dt, failed)
                    del out
                    plain += dt0
                    traced += dt
                    spent += dt
                for bucket, seconds in tr.self_s.items():
                    by_workload[workload][bucket] += (seconds - before.get(bucket, 0.0)) * 1000
                if workload == args.workload:
                    attempted += runner.attempted
                    failures += runner.failed
                wrong += [f"{workload}/{w}" for w in runner.wrong]
            rounds += 1
            if spent >= args.seconds or monotonic() - STARTED > WALL_LIMIT_S:
                break
    finally:
        tr.uninstall()
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failures,
        "wrong": wrong,
        "per_layer": tr.metrics(rounds),
        "layer_ms_by_workload": {w: {k: v / rounds for k, v in b.items()} for w, b in by_workload.items()},
        "untraced_s": plain,
        "traced_s": traced,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "traced"], required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "nerode" / "__init__.py").is_file():
        print(f"error: no nerode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = mode_traced(args, workdir) if args.mode == "traced" else mode_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.__stdout__.write(json.dumps(result) + "\n")
    sys.__stdout__.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
