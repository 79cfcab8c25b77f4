"""One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/worker.py setup --workload W --seed N --t0 T
    python3 perfbench/worker.py run --workload W --seed N --seconds S
        [--rounds K] [--trace] --out result.json --workdir DIR

`setup` builds the workload's inputs from the seed and prints how long that
took since the parent's monotonic clock read T.  `run` also measures the
workload: it repeats whole rounds of operations until `--seconds` have passed
(or exactly `--rounds` rounds), then checks every output outside the timed
region and writes a result file for perfbench/run.py.  `ppkit` must be on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from ppkit import cli, sweep
from ppkit.criteria import predict
from ppkit.families import THEOREMS, eval_family, family_for_theorem, theorem_info
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.sweep import SweepRecord, disagreements
from ppkit.tower import build_tower, valid_us

import calibrate
from tracing import Tracer

ODD_TIDS = [t for t, info in THEOREMS.items() if info.char == "odd"]
ODD_CLOSED_TIDS = [t for t in ODD_TIDS if THEOREMS[t].has_closed_form]
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


def expected_records(tid, p, m, full=False, d=None) -> int:
    """Record count of a complete sweep: one per (i, delta, gamma) in scope."""
    info = theorem_info(tid)
    if info.kind == "trace_form":
        return p ** (m * d)
    q = p**m
    if full:
        gammas = q * q
    else:
        gammas = q - 1 if info.gamma_domain == "Fq_star" else q * q - 1
    return q * q * gammas * (m - 1 if info.needs_i else 1)


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would fall under the median, so the
    maximum is reported, with percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n > 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return s[-1], 100.0


# ---------------------------------------------------------------------------
# correctness: scalar re-verification and record scans
# ---------------------------------------------------------------------------

def reverify(rec: SweepRecord) -> str | None:
    """Recompute one record on the scalar path; describe any mismatch.

    The oracle verdict comes from `eval_family` at every point plus
    `is_bijection`, the prediction from `predict`; neither uses the dense
    tower tables or the vectorised images of the sweep engine.
    """
    info = theorem_info(rec.tid)
    if info.kind == "trace_form":
        ctx = build_field(rec.p, rec.m)  # trace-form records carry F_{q^d}
        size = ctx.q
        spec = family_for_theorem(rec.tid, 0, rec.gamma, d=rec.d)
        verdict = predict(rec.tid, ctx, 0, rec.gamma, d=rec.d)
    else:
        ctx = build_tower(build_field(rec.p, rec.m), u=rec.u)
        size = ctx.order
        spec = family_for_theorem(rec.tid, rec.delta, rec.gamma, i=rec.i)
        verdict = predict(rec.tid, ctx, rec.delta, rec.gamma, i=rec.i)
    oracle = is_bijection(lambda x: eval_family(spec, ctx, x).enc, size).is_permutation
    want = (oracle, verdict.predicted, verdict.matched_case, verdict.notes, verdict.predicted == oracle)
    got = (rec.oracle, rec.predicted, rec.matched_case, rec.note, rec.agree)
    if want != got:
        return f"record {rec} re-verified as (oracle, predicted, case, note, agree) = {want}"
    return None


def _cell(s: str):
    if s == "":
        return None
    if s in ("True", "False"):
        return s == "True"
    try:
        return int(s)
    except ValueError:
        return s


def _typed(row: dict) -> dict:
    return {k: _cell(v) for k, v in row.items()}


class TraceClasses:
    """Distinct (tid, p, m, u, i, d, Tr delta, gamma) over emitted records."""

    def __init__(self):
        self.seen = set()
        self._traces = {}

    def _trace(self, rec):
        if theorem_info(rec.tid).kind == "trace_form":
            return 0
        key = (rec.p, rec.m, rec.u)
        if key not in self._traces:
            tower = build_tower(build_field(rec.p, rec.m), u=rec.u)
            self._traces[key] = [tower.trace(x) for x in range(tower.order)]
        return self._traces[key][rec.delta]

    def add(self, rec):
        self.seen.add((rec.tid, rec.p, rec.m, rec.u, rec.i, rec.d, self._trace(rec), rec.gamma))


@dataclass
class Gate:
    """Everything the correctness gate found, plus what it kept to recheck."""

    problems: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    classes: TraceClasses | None = None

    def scan(self, records, expected, label, picks=()):
        """Check count and disagreements; keep the records at `picks`."""
        n = len(records)
        self.samples += [records[j] for j in picks if j < n]
        if self.classes is not None:
            for rec in records:
                self.classes.add(rec)
        self._tally(n, len(disagreements(records)), expected, label)

    def scan_file(self, path, fmt, expected, label, picks=()):
        """`scan` for a written sweep, building records only where needed.

        A record whose `agree` is true is never a disagreement, so only the
        others, the picked ones and (when tracing) the class keys are parsed
        into SweepRecords.
        """
        n = 0
        odd = []
        want = set(picks)
        with open(path, newline="") as fh:
            rows, typed = (map(json.loads, fh), dict) if fmt == "jsonl" else (csv.DictReader(fh), _typed)
            for row in rows:
                if n in want or row["agree"] in (False, "False") or self.classes is not None:
                    rec = SweepRecord(**typed(row))
                    if n in want:
                        self.samples.append(rec)
                    if not rec.agree:
                        odd.append(rec)
                    if self.classes is not None:
                        self.classes.add(rec)
                n += 1
        self._tally(n, len(disagreements(odd)), expected, label)

    def _tally(self, n, bad, expected, label):
        if n != expected:
            self.problems.append(f"{label}: {n} records, expected {expected}")
        if bad:
            self.problems.append(f"{label}: {bad} disagreements")

    def recheck(self):
        for rec in self.samples:
            try:
                msg = reverify(rec)
            except Exception as exc:
                traceback.print_exc()
                msg = f"re-verifying {rec} raised {exc!r}"
            if msg:
                self.problems.append(msg)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    args: tuple


class Workload:
    """A seeded list of rounds; each round is a list of operations.

    `run_op` is the timed call into ppkit.  `after_op` checks what it can
    without calling into ppkit's traced layers and returns the number of
    records the operation produced, or None if it failed.  `verify` runs
    after the timed region, with tracing removed.
    """

    min_rounds = 1
    same_each_round = True  # every round repeats the same operations
    timed_per_round = False  # latency samples are whole rounds, not operations

    def __init__(self, seed: int, workdir: Path, trace: bool = False):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.gate = Gate(classes=TraceClasses() if trace else None)
        self.digests: dict[int, "hashlib._Hash"] = {}

    def digest(self, k: int):
        """The running sha256 of round k's output bytes."""
        return self.digests.setdefault(k, hashlib.sha256())

    def sha256(self) -> str:
        """Hash of the output bytes of the first `min_rounds` rounds."""
        if self.min_rounds == 1:
            return self.digest(0).hexdigest()
        return hashlib.sha256(
            "".join(self.digest(k).hexdigest() for k in range(self.min_rounds)).encode()
        ).hexdigest()

    def begin_round(self, k: int):
        """Called before round k starts, outside the timed operations."""

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def run_op(self, op: Op):
        raise NotImplementedError

    def after_op(self, op: Op, k: int, out) -> int | None:
        raise NotImplementedError

    def verify(self):
        if self.same_each_round:
            first = self.digest(0).digest()
            if any(d.digest() != first for d in self.digests.values()):
                self.gate.problems.append("output bytes differ between rounds")
        self.gate.recheck()


def _quiet_main(argv):
    """ppkit.cli.main with stdout and stderr captured; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class CliSweep(Workload):
    """`ppkit sweep` over one field at a seeded admissible u, written to a file."""

    def __init__(self, seed, workdir, trace=False, *, tid, p, m, full, fmt, samples):
        super().__init__(seed, workdir, trace)
        self.tid, self.p, self.m, self.full, self.fmt = tid, p, m, full, fmt
        self.u = self.rng.choice(valid_us(build_field(p, m)))
        self.expected = expected_records(tid, p, m, full)
        self.picks = sorted(self.rng.sample(range(self.expected), samples))
        self.path = workdir / f"sweep.{fmt}"
        self.first = workdir / f"sweep-first.{fmt}"
        argv = ["sweep", "--p", str(p), "--m", str(m), "--theorem", tid, "--u", str(self.u)]
        if full:
            argv += ["--gamma-domain", "full"]
        self.argv = argv + ["--format", fmt, "--out", str(self.path)]

    def round(self, k):
        return [Op("sweep", tuple(self.argv))]

    def run_op(self, op):
        return _quiet_main(list(op.args))

    def after_op(self, op, k, out):
        rc, _ = out
        if rc != 0:
            self.gate.problems.append(f"ppkit sweep exited {rc}")
            return None
        digest = self.digest(k)
        with open(self.path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
        if k == 0:
            os.replace(self.path, self.first)
        return self.expected

    def verify(self):
        if self.first.exists():
            self.gate.scan_file(self.first, self.fmt, self.expected,
                                f"sweep {self.tid} q={self.p}^{self.m}", self.picks)
            self.first.unlink()
        self.path.unlink(missing_ok=True)
        super().verify()


class Matrix(Workload):
    """Acceptance criterion 1's configuration list at q <= 13, swept in-process.

    Criterion 1 also sweeps 3.13-3.18 over F_25 and F_27; those twelve
    sweeps take two thirds of its time and are left out, so that a pass fits
    in one run.  Each odd tower gets one seeded admissible u; theorem 3.19
    runs at every admissible u, as criterion 1 does.  A run makes at least
    three passes.  A pass is what a user of criterion 1 waits for, and its
    sweeps differ too much in size to be compared, so latency is per pass.
    """

    min_rounds = 3
    timed_per_round = True

    SIZES = (
        [(tid, p, m) for tid in ("3.1", "3.2", "3.3", "3.4", "3.5")
         for p, m in [(3, 1), (5, 1), (7, 1), (3, 2)]]
        + [(tid, p, m) for tid in ("3.6", "3.7", "3.8", "3.9", "3.10", "3.11", "3.12")
           for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]]
        + [(tid, p, m) for tid in ("3.13", "3.14", "3.15", "3.16", "3.17", "3.18")
           for p, m in [(3, 1), (5, 1), (3, 2)]]
    )

    def __init__(self, seed, workdir, trace=False, *, samples=12):
        super().__init__(seed, workdir, trace)
        us = {}
        for _, p, m in self.SIZES:
            if (p, m) not in us:
                us[p, m] = self.rng.choice(valid_us(build_field(p, m)))
        configs = [(tid, p, m, us[p, m], None) for tid, p, m in self.SIZES]
        for p, m in [(2, 1), (2, 2), (2, 3)]:
            configs += [("3.19", p, m, u, None) for u in valid_us(build_field(p, m))]
        configs += [("4.1", 2, m, None, d) for m in (2, 3) for d in (1, 3)]
        self.configs = configs
        self.picks = {}
        for j in self.rng.sample(range(len(configs)), samples):
            tid, p, m, _, d = configs[j]
            self.picks[j] = self.rng.randrange(max(1, expected_records(tid, p, m, d=d)))

    def begin_round(self, k):
        # every pass builds its field tables anew, as a fresh process would
        build_field.cache_clear()

    def round(self, k):
        return [Op("sweep", (j,) + c) for j, c in enumerate(self.configs)]

    def run_op(self, op):
        _, tid, p, m, u, d = op.args
        return sweep.sweep_theorem(tid, p, m, u=u, d=d)  # looked up per call, so tracing sees it

    def after_op(self, op, k, records):
        j, tid, p, m, u, d = op.args
        if not records:  # a configuration that yields nothing checks nothing
            return None
        digest = self.digest(k)
        for rec in records:
            digest.update((json.dumps(rec.serialize()) + "\n").encode())
        picks = [self.picks[j]] if (k == 0 and j in self.picks) else ()
        self.gate.scan(records, expected_records(tid, p, m, d=d),
                       f"{tid} p={p} m={m} u={u} d={d}", picks)
        return len(records)


class Points(Workload):
    """A closed loop of one client issuing seeded point queries via ppkit.cli.

    Each round is check, decompose, directions, decompose, directions, so one
    query in five is a check.  Each kind of query deals its theorems from a
    seeded shuffle of the whole list, so every run sees the same mix of
    theorems and the seed picks only their order and the points.
    """

    min_rounds = 12
    same_each_round = False
    CHECK = (7, 2)  # F_49
    DECOMPOSE = (3, 2)  # F_9
    DIRECTIONS = (7, 1)  # F_7
    KINDS = ("check", "decompose", "directions", "decompose", "directions")

    def __init__(self, seed, workdir, trace=False, *, rounds=400, check_samples=3, dir_samples=2):
        super().__init__(seed, workdir, trace)
        self.us = {k: self.rng.choice(valid_us(build_field(*f)))
                   for k, f in [("check", self.CHECK), ("decompose", self.DECOMPOSE),
                                ("directions", self.DIRECTIONS)]}
        self.decks: dict[str, list[str]] = {}
        self.rounds = [[self._query(kind) for kind in self.KINDS] for _ in range(rounds)]
        self.check_samples, self.dir_samples = check_samples, dir_samples
        self.dir_checks = []

    def _query(self, kind):
        p, m = {"check": self.CHECK, "decompose": self.DECOMPOSE,
                "directions": self.DIRECTIONS}[kind]
        deck = self.decks.setdefault(kind, [])
        if not deck:
            tids = ODD_CLOSED_TIDS if kind == "decompose" else ODD_TIDS
            deck += self.rng.sample(tids, len(tids))
        tid = deck.pop()
        q = p**m
        info = THEOREMS[tid]
        delta = self.rng.randrange(q * q)
        gamma = self.rng.randrange(1, q if info.gamma_domain == "Fq_star" else q * q)
        argv = [kind, "--p", str(p), "--m", str(m), "--u", str(self.us[kind]),
                "--theorem", tid, "--delta", str(delta), "--gamma", str(gamma)]
        if info.needs_i:
            argv += ["--i", "1"]
        return Op(kind, tuple(argv))

    def round(self, k):
        return self.rounds[k % len(self.rounds)]

    def run_op(self, op):
        return _quiet_main(list(op.args))

    def after_op(self, op, k, out):
        rc, text = out
        if rc != 0:
            self.gate.problems.append(f"ppkit {' '.join(op.args)} exited {rc}")
            return None
        self.digest(k).update(text.encode())
        res = json.loads(text)
        args = dict(zip(op.args[1::2], op.args[2::2]))
        if op.kind == "check":
            rec = SweepRecord(**res)
            if (rec.tid, rec.delta, rec.gamma) != (args["--theorem"], int(args["--delta"]), int(args["--gamma"])):
                self.gate.problems.append(f"check answered another point: {res}")
            if self.gate.classes is not None:
                self.gate.classes.add(rec)
            if len(self.gate.samples) < self.check_samples:
                self.gate.samples.append(rec)
        elif op.kind == "decompose":
            if not res["values_match"]:
                self.gate.problems.append(f"decompose mismatch: {res}")
        else:
            if not (res["complementary"] and res["sizes_sum_to_field"]):
                self.gate.problems.append(f"directions duality fails: {res}")
            if len(self.dir_checks) < self.dir_samples:
                self.dir_checks.append((args, res))
        return 1

    def verify(self):
        super().verify()
        for args, res in self.dir_checks:
            tower = build_tower(build_field(int(args["--p"]), int(args["--m"])), u=int(args["--u"]))
            i = int(args["--i"]) if "--i" in args else None
            spec = family_for_theorem(args["--theorem"], int(args["--delta"]), 0, i=i)
            images = [eval_family(spec, tower, x).enc for x in range(tower.order)]
            permuting = sum(
                is_bijection(lambda x: tower.add(images[x], tower.mul(g, x)), tower.order).is_permutation
                for g in range(tower.order)
            )
            if permuting != res["permuting_count"]:
                self.gate.problems.append(f"directions: {permuting} permuting slopes, reported {res}")


WORKLOADS = {
    "sweep-stated": lambda seed, wd, trace=False: CliSweep(
        seed, wd, trace, tid="3.6", p=5, m=2, full=False, fmt="jsonl", samples=4),
    "sweep-probe": lambda seed, wd, trace=False: CliSweep(
        seed, wd, trace, tid="3.15", p=13, m=1, full=True, fmt="csv", samples=8),
    "matrix": lambda seed, wd, trace=False: Matrix(seed, wd, trace),
    "points": lambda seed, wd, trace=False: Points(seed, wd, trace),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(wl: Workload, seconds: float, rounds: int | None = None) -> dict:
    """Run whole rounds until `seconds` pass (or exactly `rounds` rounds).

    Another round starts only while it is expected to end less than half a
    round past the deadline, and never before `min_rounds` are done.

    Outside the timed operations, a calibration burst runs first, then after
    every round and after any operation that ends CAL_EVERY_S or more past
    the last burst.  Each operation's scale is the nominal kernel time over
    the mean of the two bursts around it (see calibrate.py).
    """
    lat: list[list] = []  # kind, op, seconds, records (None: failed), scale
    passes: list[list[list]] = []  # every operation, by round
    refs: list[float] = []  # kernel seconds, one per burst
    pending: list[list] = []  # operations since the last burst
    attempted = failed = records = 0

    def calibrate_now():
        refs.append(calibrate.burst())
        if pending:
            scale = calibrate.NOMINAL_MS / 1e3 / ((refs[-2] + refs[-1]) / 2)
            for entry in pending:
                entry[4] = scale
            pending.clear()
        return time.perf_counter()

    start = time.perf_counter()
    last_cal = calibrate_now()
    k = 0
    last = 0.0
    while True:
        now = time.perf_counter() - start
        if rounds is not None:
            if k >= rounds:
                break
        elif k >= wl.min_rounds and now + last / 2 >= seconds:
            break
        r0 = time.perf_counter()
        wl.begin_round(k)
        gc.collect()  # every round starts from a collected heap
        round_ops: list[list] = []
        for op in wl.round(k):
            attempted += 1
            t = time.perf_counter()
            try:
                out = wl.run_op(op)
            except Exception:
                dt = time.perf_counter() - t
                traceback.print_exc()
                wl.gate.problems.append(f"{op.kind} {op.args} raised")
                n = None
            else:
                dt = time.perf_counter() - t
                n = wl.after_op(op, k, out)
            entry = [op.kind, op.args, dt, n, None]
            pending.append(entry)
            round_ops.append(entry)
            if n is None:
                failed += 1
            else:
                records += n
                lat.append(entry)
            if time.perf_counter() - last_cal >= calibrate.CAL_EVERY_S:
                last_cal = calibrate_now()
        if pending:
            last_cal = calibrate_now()
        passes.append(round_ops)
        last = time.perf_counter() - r0
        k += 1
    if wl.timed_per_round:  # a round's time is the sum of its operations', wall and scaled
        lat = []
        for ops in passes:
            wall = sum(e[2] for e in ops)
            lat.append(["round", (), wall, sum(e[3] or 0 for e in ops),
                        sum(e[2] * e[4] for e in ops) / wall])
    return {
        "rounds": k,
        "wall_s": time.perf_counter() - start,
        "attempted": attempted,
        "failed": failed,
        "records": records,
        "ref_ms": [1e3 * r for r in refs],
        "latencies": lat,
    }


def _figures(latencies) -> dict:
    """Latency and throughput over distinct operations, from (kind, op, s, n)."""
    times: dict[tuple, list[float]] = {}
    info: dict[tuple, tuple[str, int]] = {}
    for kind, op, dt, n in latencies:
        times.setdefault(op, []).append(dt)
        info[op] = (kind, n)
    op_time = {op: statistics.median(ts) for op, ts in times.items()}
    out = {"op_s": sum(op_time[op] * len(ts) for op, ts in times.items())}
    if not op_time:  # every operation failed; the gate has said why
        out.update(records_per_s=0.0, op_p50_ms=0.0, op_tail_ms=0.0, tail_pct=0.0, samples=0)
        return out
    lat = list(op_time.values())
    t, pct = tail(lat)
    out.update(
        records_per_s=sum(n for _, n in info.values()) / sum(lat),
        op_p50_ms=1e3 * statistics.median(lat), op_tail_ms=1e3 * t, tail_pct=pct, samples=len(lat),
    )
    kinds = sorted({kind for kind, _ in info.values()})
    if len(kinds) > 1:
        out["per_kind"] = {}
        for kind in kinds:
            xs = [op_time[op] for op, (k, _) in info.items() if k == kind]
            t, pct = tail(xs)
            out["per_kind"][kind] = {"p50_ms": 1e3 * statistics.median(xs), "tail_ms": 1e3 * t,
                                     "tail_pct": pct, "samples": len(xs)}
    return out


def summarize(m: dict) -> dict:
    """Figures over distinct operations, in wall time and in reference time.

    An operation repeated in several rounds counts once, with the median of
    its times, so one slow repetition does not move the figures.  `op_s`
    is the time of every operation run, each taken at that median.  The
    top-level figures are in reference time: each operation's wall time
    scaled by the calibration bursts around it (see calibrate.py).
    `wall` holds the same figures in plain wall time.
    """
    out = {k: m[k] for k in ("rounds", "wall_s", "attempted", "failed", "records", "ref_ms")}
    out.update(_figures([(kind, op, dt * scale, n) for kind, op, dt, n, scale in m["latencies"]]))
    wall = _figures([lat[:4] for lat in m["latencies"]])
    out["wall"] = {k: wall[k] for k in ("op_s", "records_per_s", "op_p50_ms", "op_tail_ms")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/worker.py")
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, default=0.0, help="parent's time.monotonic() at spawn")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workdir", default=".perfbench")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, args.trace)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        m = measure(wl, args.seconds, args.rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.verify()

    result = summarize(m)
    result.update(
        peak_rss_mb=peak_rss_mb,
        sha256=wl.sha256(),
        problems=wl.gate.problems,
    )
    if tracer:
        layers = tracer.summary()
        # calls per class emitted per round; repeated rounds emit the same classes
        classes = len(wl.gate.classes.seen) * (m["rounds"] if wl.same_each_round else 1)
        layers["criteria.predict_calls_per_class"] = (
            layers["criteria.predict_calls"] / classes if classes else 0.0)
        layers["oracle.checks_per_class"] = (
            layers["oracle.images_permute_calls"] / classes if classes else 0.0)
        result["layers"] = layers
        spans = workdir / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(spans)
        result["spans_file"] = str(spans)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
