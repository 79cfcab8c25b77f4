"""ppkit benchmark: sweep throughput, point-query latency and per-layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs single-threaded in a fresh
process (perfbench/worker.py) against the sources under src/.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 a second, traced process repeats the
untraced run's rounds and the metrics are the per-layer ones, including the
tracing overhead.  Operation times are in reference time: wall time scaled
by the machine's speed as calibrate.py measures it during the run, so that
most of a shared host's drift cancels.  The exit code is 0 when every
output checked out, 1 when a correctness check failed, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ["sweep-stated", "sweep-probe", "matrix", "points"]
SETUP_PROBES = 11
DEADLINE_S = 170  # the whole run, children included

END_TO_END = {
    "setup_s": "s",
    "records_per_ref_s": "1/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "op_tail_ref_ms": "ref_ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every run
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run worker.py to completion and return its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return proc.stdout


def setup_time(workload: str, seed: int, deadline: float) -> tuple[list[float], list[float]]:
    """Process start to inputs ready, in SETUP_PROBES fresh processes.

    Returns the wall seconds and the reference seconds of each probe.  As
    for the operations, a calibration burst runs here before the first
    probe and after each one, and a probe's wall time is scaled by the mean
    of the two bursts around it (calibrate.py).
    """
    wall, scaled = [], []
    ref = calibrate.burst()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        text = run_child(["setup", "--workload", workload, "--seed", str(seed),
                          "--t0", repr(t0)], deadline)
        after = calibrate.burst()
        wall.append(json.loads(text)["setup_s"])
        scaled.append(wall[-1] * calibrate.NOMINAL_MS / 1e3 / ((ref + after) / 2))
        ref = after
    return wall, scaled


def measure(workload: str, seed: int, seconds: int, deadline: float,
            trace: bool = False, rounds: int | None = None) -> dict:
    with tempfile.NamedTemporaryFile(dir=WORKDIR, suffix=".json", delete=False) as fh:
        out = Path(fh.name)
    try:
        args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--workdir", str(WORKDIR), "--out", str(out)]
        if trace:
            args.append("--trace")
        if rounds is not None:
            args += ["--rounds", str(rounds)]
        run_child(args, deadline)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def check_hash(workload: str, seed: int, sha: str, problems: list[str]):
    """Output bytes of one seed must hash the same in every run in this checkout."""
    store = WORKDIR / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}/{seed}"
    if known.setdefault(key, sha) != sha:
        problems.append(f"{key}: output sha256 {sha} differs from an earlier run's {known[key]}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    plain = measure(workload, seed, seconds, deadline)
    problems = list(plain["problems"])
    check_hash(workload, seed, plain["sha256"], problems)
    detail = {k: plain[k] for k in ("rounds", "attempted", "failed", "records", "op_s",
                                    "tail_pct", "samples", "sha256", "wall", "ref_ms") if k in plain}
    detail["failed_frac"] = plain["failed"] / plain["attempted"]
    if "per_kind" in plain:
        detail["per_kind"] = plain["per_kind"]
    if trace:
        traced = measure(workload, seed, seconds, deadline, trace=True, rounds=plain["rounds"])
        problems += traced["problems"]
        if traced["sha256"] != plain["sha256"]:
            problems.append("traced and untraced runs wrote different bytes")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["op_s"] - plain["op_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["op_s"]
        metrics = {k: layers.get(k, 0) for k in LAYER_UNITS}
        detail["spans_file"] = traced["spans_file"]
    else:
        setups, setups_ref = setup_time(workload, seed, deadline)
        detail["setup_samples_wall_s"] = setups
        detail["setup_samples_ref_s"] = setups_ref
        detail["wall"]["setup_s"] = statistics.median(setups)
        metrics = {
            "setup_s": statistics.median(setups_ref),
            "records_per_ref_s": plain["records_per_s"],
            "op_p50_ref_ms": plain["op_p50_ms"],
            "op_tail_ref_ms": plain["op_tail_ms"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    return {
        "correct": not problems,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
        "detail": detail,
        "problems": problems,
    }


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "ppkit" / "__init__.py").is_file():
            raise BenchError(f"no ppkit sources under {ROOT / 'src'}")
        WORKDIR.mkdir(exist_ok=True)
        units = LAYER_UNITS if args.trace else END_TO_END
        names = WORKLOADS if args.workload == "all" else [args.workload]
        if args.workload == "all":
            deadline += DEADLINE_S * (len(names) - 1)
        results = {}
        env = environment()
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            results[name] = res
            print(json.dumps({"workload": name, "seed": args.seed, "env": env,
                              "correct": res["correct"], "detail": res["detail"],
                              "problems": res["problems"]}))
            for metric, value in res["metrics"].items():
                print(f"  {name:13s} {metric:44s} {value:16.6g} {units[metric]}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    prefix = len(names) > 1  # with --workload all, names are "<workload>.<metric>"
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}" if prefix else k: {"value": v, "unit": units[k]}
                    for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
