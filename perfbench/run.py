"""nerode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload quotients|kernels|cli --seed N
                             --seconds S --trace 0|1

With --trace 0 the last line of stdout is the end-to-end result:
jobs_per_s, job_p50_ms, peak_rss_mib and setup_s.  Each process is a fresh
interpreter: SETUP_SAMPLES - 1 processes only set up (start, import nerode,
build round 0's inputs), then one more sets up and runs whole rounds until
S CPU seconds have been spent inside timed calls.  Times are CPU time
scaled to a reference speed by the calibration the worker takes before
every job (see README.md); setup_s is the median over all the processes of
their CPU time from start to first job.

With --trace 1 one traced process runs every workload and the last line
holds the per-layer metrics (see tracer.py).

A copy of each result, with per-job-kind timings, goes to
perfbench/out/<workload>-<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# worker.calibrate()'s usual CPU time on the machine the bounds were set on
# (2-core Xeon at 2.1 GHz, Python 3.11); see "Measuring time on a shared
# machine" in README.md
CAL_REF_S = 0.010
DEADLINE_S = 170


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process and return its result."""
    workdir = OUT / f"work-{os.getpid()}-{mode}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - perf_counter())
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def scaled_ms(durations, cal_end: float) -> list[float]:
    """Each job's CPU time scaled to the reference speed, using the mean of
    the calibrations taken just before and just after it."""
    cals = [cal for _, _, cal in durations] + [cal_end]
    return [1000 * dt * CAL_REF_S * 2 / (cals[i] + cals[i + 1]) for i, (_, dt, _) in enumerate(durations)]


def by_kind(durations, ms: list[float]) -> dict:
    groups = defaultdict(list)
    for (kind, _, _), t in zip(durations, ms):
        groups[kind].append(t)
    out = {}
    for kind, times in sorted(groups.items()):
        times.sort()
        out[kind] = {
            "n": len(times),
            "p50_ms": statistics.median(times),
            "p90_ms": times[min(len(times) - 1, int(0.9 * len(times)))],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["quotients", "kernels", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    start = perf_counter()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "nerode" / "__init__.py").is_file():
        print(f"error: no nerode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        res = spawn(args, "traced", deadline)
        overhead = res["traced_s"] / res["untraced_s"] - 1
        print(f"traced {res['rounds']} round(s) of every workload; tracing overhead {overhead:+.1%}",
              file=sys.stderr)
        for workload, layers in res["layer_ms_by_workload"].items():
            print(f"  {workload}: " + ", ".join(f"{k} {v:.0f} ms" for k, v in sorted(layers.items())),
                  file=sys.stderr)
        metrics = res["per_layer"]
        detail = {"overhead": overhead, "layer_ms_by_workload": res["layer_ms_by_workload"]}
    else:
        samples = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, "run", deadline)
        samples.append(res)
        setups = [r["t_first"] * CAL_REF_S / r["cal"] for r in samples]
        ms = scaled_ms(res["durations"], res["cal_end"])
        metrics = {
            "jobs_per_s": {"value": len(ms) / (sum(ms) / 1000), "unit": "jobs/s"},
            "job_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_kib"] / 1024, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        detail = {
            "rounds": res["rounds"],
            "setup_samples_s": setups,
            "cpu_s": sum(dt for _, dt, _ in res["durations"]),
            "calibration_ms": statistics.median(c * 1000 for _, _, c in res["durations"]),
            "by_kind": by_kind(res["durations"], ms),
        }
    for w in res["wrong"]:
        print(f"wrong: {w}", file=sys.stderr)
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  wall_s=perf_counter() - start, **detail)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
