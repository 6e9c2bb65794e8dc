"""quadpart benchmark: three workloads, end-to-end metrics, traced layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload scan-common --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --record        # rewrite bench/reference.json

Workloads (see bench/README.md for why each exists):

  scan-common  CLI `scan --m 11 --xmax 2000`, cold with --no-cache, then warm
               from a cache filled once per run; plus a latency probe that
               decides every squarefree D <= 600 at m = 11 in seed order.
  hard-fields  one child decides value_attained(D, m) on lopsided pairs, one
               drawn by the seed from each of five pre-screened strata.
  census       CLI `verify 9001 --bound hk10`, `verify 94 --bound n --m 12`
               and `density --m 6 --xmax 300`, in seed order.

The program is driven only from outside: every operation runs in a fresh
child process (`python -m quadpart.cli ...`, or bench/decide.py, which calls
the public API).  One child runs at a time.  Each run repeats the workload's
round until --seconds is used up and reports medians over the rounds.  With
--trace 1 each round is followed by an in-process replay under
bench/trace_replay.py, which reports the per-layer metrics.

Every output is checked against bench/reference.json; an operation fails on
a nonzero exit, an exception, a timeout or an output that differs.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
PY = sys.executable

RUN_DEADLINE_S = 165.0  # a run must end well inside 180 s, even when ops time out
SETUP_FIRST = 3  # set-up samples before the first round; one more per round

SCAN_M, SCAN_X = 11, 2000
PROBE_X = 600

# hard-fields strata, in descending order of cost; a sample takes one pair
# from each.  Every pair is dominated by partcount.lattice_leq (80-99% of its
# cProfile time) and pairs within a stratum cost about the same, so samples
# stay comparable.  The first and the middle stratum hold one pair each, so
# the slowest and the median decision are the same pair on every seed:
# (109, 20) about 2.2 s and (139, 20) about 0.5 s on a 2-core Xeon.
HARD_STRATA = [
    [(109, 20)],
    [(46, 20), (58, 20)],
    [(139, 20)],
    [(41, 20), (166, 20), (186, 20), (238, 20)],
    [(71, 20), (74, 20), (137, 20)],
]
DECISION_TIMEOUT_S = 20.0

CENSUS = {
    "verify-9001-hk10": ["verify", "9001", "--bound", "hk10"],
    "verify-94-n12": ["verify", "94", "--bound", "n", "--m", "12"],
    "density-m6-x300": ["density", "--m", "6", "--xmax", "300"],
}
CLI_TIMEOUT_S = 60.0

WORKLOADS = ("scan-common", "hard-fields", "census")


# -- helpers -----------------------------------------------------------------------


def squarefree(x):
    """Squarefree D with 2 <= D <= x (the benchmark's own sieve)."""
    flags = [True] * (x + 1)
    f = 2
    while f * f <= x:
        for k in range(f * f, x + 1, f * f):
            flags[k] = False
        f += 1
    return [d for d in range(2, x + 1) if flags[d]]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def pair_key(d, m):
    return f"{d},{m}"


def scan_argv(no_cache):
    return (["--no-cache"] if no_cache else []) + [
        "scan", "--m", str(SCAN_M), "--xmax", str(SCAN_X)]


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


@dataclass
class Child:
    """Outcome of one child process, with its own resource usage."""

    exit: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def spawn(argv, workdir, cache_dir, timeout):
    """Run argv to completion in workdir; kill it after timeout seconds.

    Output goes to files, so a chatty child cannot block on a pipe; the
    child is reaped with wait4 so that its CPU time and max RSS are its own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["QUADPART_CACHE_DIR"] = str(cache_dir)
    out_path = Path(workdir) / "child.out"
    err_path = Path(workdir) / "child.err"
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
                timed_out = True
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes()[-2000:], timed_out)


def cli_argv(args):
    return [PY, "-m", "quadpart.cli"] + args


def decide_argv(pairs):
    return [PY, str(BENCH / "decide.py"), json.dumps(pairs), str(DECISION_TIMEOUT_S)]


def parse_decisions(stdout):
    rows = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        rows[pair_key(row["D"], row["m"])] = row
    return rows


def tail(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None}
    if n >= 11:
        out["tail_pct"] = int(100 * (n - 10) / n)
        out["tail"] = xs[n - 11]
    else:
        out["tail_pct"] = None  # fewer than 11 samples: no such percentile
        out["tail"] = None
    return out


# -- workload plans ----------------------------------------------------------------
#
# A plan lists the operations of one round.  Roles: "cold" operations make up
# wall_s, cpu_s and decisions_per_s; "warm" is the scan served from the cache;
# "probe" only feeds the per-decision latencies.  Each decided pair and each
# CLI command is one attempted operation.


def plan(workload, seed, ref):
    rng = random.Random(seed)
    if workload == "scan-common":
        probe = [[d, SCAN_M] for d in squarefree(PROBE_X)]
        rng.shuffle(probe)
        return {
            "ops": [
                {"role": "cold", "label": "scan-cold", "argv": scan_argv(True),
                 "sha256": ref["scan"]["sha256"]},
                {"role": "warm", "label": "scan-warm", "argv": scan_argv(False),
                 "sha256": ref["scan"]["sha256"]},
                {"role": "probe", "label": "probe", "pairs": probe},
            ],
            "latency_from": "probe",
        }
    if workload == "hard-fields":
        picks = [list(rng.choice(stratum)) for stratum in HARD_STRATA]
        return {"ops": [{"role": "cold", "label": "decide", "pairs": picks}],
                "latency_from": "cold"}
    if workload == "census":
        labels = list(CENSUS)
        rng.shuffle(labels)
        return {
            "ops": [{"role": "cold", "label": lab, "argv": CENSUS[lab],
                     "sha256": ref["census"][lab]["sha256"]} for lab in labels],
            "latency_from": "cold",
        }
    raise ValueError(workload)


def census_decisions(label, stdout):
    """Exact decisions behind one census command's output."""
    if not label.startswith("density"):
        return 1  # one norm bound decided
    rep = json.loads(stdout)
    total = 0
    for d in squarefree(rep["X"]):
        total += rep["first_missing"].get(str(d), rep["m"])
    return total


# -- one round -----------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.peak_rss_mb = 0.0

    def op(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def see(self, child):
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)


def run_round(workload, pl, ref, ctx, tally, deadline):
    """Run one round; return per-operation wall/CPU and per-decision latency."""
    rec = {"cold": {}, "latency": {}, "decisions": 0, "mirror_wall": 0.0,
           "mirror_children": 0}
    for op in pl["ops"]:
        role = op["role"]
        decided = 0
        if "pairs" in op:
            limit = min(deadline.left(), DECISION_TIMEOUT_S * len(op["pairs"]) + 10)
            child = spawn(decide_argv(op["pairs"]), ctx["dir"], ctx["cache"], limit)
            rows = parse_decisions(child.stdout)
            for d, m in op["pairs"]:
                key = pair_key(d, m)
                row = rows.get(key)
                want = (ref["pairs"].get(key) if workload == "hard-fields"
                        else ref["scan"]["rows"].get(str(d)))
                ok = (row is not None and "error" not in row and want is not None
                      and [row["ok"], row["a"], row["b"]] == want)
                tally.op(ok, f"{op['label']} {key}: {row if row else 'no result'}")
                if ok:
                    decided += 1
                    if role == pl["latency_from"]:
                        rec["latency"][key] = row["s"]
            if child.exit != 0 or child.timed_out:
                tally.notes.append(f"decide child exit {child.exit} "
                                   f"timed_out={child.timed_out}: {child.stderr[-300:]!r}")
        else:
            limit = min(deadline.left(), CLI_TIMEOUT_S)
            child = spawn(cli_argv(op["argv"]), ctx["dir"], ctx["cache"], limit)
            ok = (child.exit == 0 and not child.timed_out
                  and sha256(child.stdout) == op["sha256"])
            tally.op(ok, f"{op['label']}: exit {child.exit} timed_out={child.timed_out} "
                         f"{child.stderr[-300:]!r}")
            if ok and role == "cold":
                if workload == "scan-common":
                    decided = child.stdout.count(b"\n") - 1  # CSV rows minus header
                else:
                    decided = census_decisions(op["label"], child.stdout)
            if role == pl["latency_from"]:
                rec["latency"][op["label"]] = child.wall
        tally.see(child)
        if role == "cold":
            rec["cold"][op["label"]] = [child.wall, child.cpu]
            rec["decisions"] += decided
        if role in ("cold", "warm"):
            rec["mirror_wall"] += child.wall
            rec["mirror_children"] += 1
    return rec


def median_by_key(rounds, field, index=None):
    """{key: median over rounds} of rounds[i][field][key] (or its [index])."""
    samples = {}
    for r in rounds:
        for key, val in r[field].items():
            samples.setdefault(key, []).append(val if index is None else val[index])
    return {key: statistics.median(vals) for key, vals in samples.items()}


def replay_spec(workload, pl, ctx):
    """The same round as in-process operations for bench/trace_replay.py."""
    cache = tempfile.mkdtemp(prefix="trace-cache-", dir=ctx["dir"])
    ops = []
    for op in pl["ops"]:
        if op["role"] == "probe":
            continue  # its decisions are a subset of the scan's own
        if "pairs" in op:
            ops += [{"kind": "decide", "label": pair_key(d, m), "D": d, "m": m}
                    for d, m in op["pairs"]]
        else:
            # The traced cold scan fills a fresh cache so the warm scan can hit it.
            argv = scan_argv(False) if op["label"] == "scan-cold" else op["argv"]
            ops.append({"kind": "cli", "label": op["label"], "argv": argv,
                        "cache_dir": cache, "sha256": op["sha256"]})
    return {"ops": ops}


def run_replay(workload, pl, ref, ctx, tally, deadline):
    spec = replay_spec(workload, pl, ctx)
    spec_path = Path(ctx["dir"]) / "replay-spec.json"
    out_path = Path(ctx["dir"]) / "replay-out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    if out_path.exists():
        out_path.unlink()
    child = spawn([PY, str(BENCH / "trace_replay.py"), str(spec_path), str(out_path)],
                  ctx["dir"], ctx["cache"], deadline.left())
    if child.exit != 0 or child.timed_out or not out_path.exists():
        for op in spec["ops"]:
            tally.op(False, f"traced {op['label']}: replay exit {child.exit} "
                            f"timed_out={child.timed_out} {child.stderr[-300:]!r}")
        return None
    out = json.loads(out_path.read_text(encoding="utf-8"))
    for op, res in zip(spec["ops"], out["results"]):
        if op["kind"] == "cli":
            ok = res["exit"] == 0 and res["sha256"] == op["sha256"]
        else:
            ok = [res["ok"], res["a"], res["b"]] == ref["pairs"][op["label"]]
        tally.op(ok, f"traced {op['label']}: {res}")
    m = out["metrics"]
    warm = [r["s"] for r in out["results"] if r["label"] == "scan-warm"]
    m["cli.cache_hit_s"] = warm[0] if warm else 0.0
    m["trace.wall_s"] = child.wall
    return {"metrics": m, "self_s": out["self_s"], "calls": out["calls"]}


# -- one run -------------------------------------------------------------------------


def measure_setup(ctx, tally, deadline, walls, repeats):
    """Time fresh children that import quadpart and exit; append to walls."""
    argv = [PY, "-c", "import quadpart, quadpart.cli"]
    for _ in range(repeats):
        child = spawn(argv, ctx["dir"], ctx["cache"], min(60, deadline.left()))
        tally.op(child.exit == 0 and not child.timed_out,
                 f"setup: exit {child.exit} {child.stderr[-300:]!r}")
        tally.see(child)
        walls.append(child.wall)


def fill_cache(ref, ctx, tally, deadline):
    """Fill the run's fresh cache with one scan; its output is checked too."""
    child = spawn(cli_argv(scan_argv(False)), ctx["dir"], ctx["cache"],
                  min(CLI_TIMEOUT_S, deadline.left()))
    tally.see(child)
    tally.op(child.exit == 0 and sha256(child.stdout) == ref["scan"]["sha256"],
             f"scan-fill: exit {child.exit} {child.stderr[-300:]!r}")


def run_workload(workload, seed, seconds, trace, ref, spec):
    deadline = Deadline(RUN_DEADLINE_S)
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    repo_cache = ROOT / ".quadpart-cache"
    repo_cache_before = repo_cache.stat().st_mtime_ns if repo_cache.exists() else None
    try:
        ctx = {"dir": workdir, "cache": tempfile.mkdtemp(prefix="cache-", dir=workdir)}
        pl = plan(workload, seed, ref)
        # One untimed import writes the bytecode caches.  The timed set-up
        # samples are spread over the run, like the rounds they sit between.
        measure_setup(ctx, tally, deadline, [], 1)
        setup_walls = []
        measure_setup(ctx, tally, deadline, setup_walls, SETUP_FIRST)
        if workload == "scan-common":
            fill_cache(ref, ctx, tally, deadline)
        rounds, replays = [], []
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            measure_setup(ctx, tally, deadline, setup_walls, 1)
            rounds.append(run_round(workload, pl, ref, ctx, tally, deadline))
            if trace:
                rep = run_replay(workload, pl, ref, ctx, tally, deadline)
                if rep is not None:
                    replays.append(rep)
            took = time.monotonic() - r0
            if (time.monotonic() - t0 + took > seconds
                    or deadline.left() < 2 * took or tally.failed):
                break
        measured_s = time.monotonic() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    repo_cache_after = repo_cache.stat().st_mtime_ns if repo_cache.exists() else None
    if repo_cache_after != repo_cache_before:
        tally.op(False, "the repository's ./.quadpart-cache was touched")

    setup_s = statistics.median(setup_walls)
    # Each cold operation and each decision is summarised by its median over
    # the rounds, so a burst of machine noise in one round moves no metric.
    wall_s = sum(median_by_key(rounds, "cold", 0).values())
    cpu_s = sum(median_by_key(rounds, "cold", 1).values())
    lat = [x for r in rounds for x in r["latency"].values()]
    lat_by_key = median_by_key(rounds, "latency")
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": tally.peak_rss_mb,
        "decisions_per_s": (statistics.median(r["decisions"] for r in rounds) / wall_s
                            if wall_s > 0 else 0.0),
        "decide_p50_s": statistics.median(lat_by_key.values()) if lat_by_key else 0.0,
        "decide_max_s": max(lat_by_key.values()) if lat_by_key else 0.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    tails = {
        "setup_s": tail(setup_walls),
        "round_wall_s": tail([sum(w for w, _ in r["cold"].values()) for r in rounds]),
        "decide_s": tail(lat),
    }
    layer = {}
    if trace:
        for name in (m["name"] for m in spec["per_layer"]):
            vals = [rep["metrics"][name] for rep in replays if name in rep["metrics"]]
            layer[name] = statistics.median(vals) if vals else 0.0
        # The untraced side started one interpreter per command, the replay one.
        mirror = statistics.median(
            r["mirror_wall"] - (r["mirror_children"] - 1) * setup_s for r in rounds)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - mirror if replays else 0.0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "measured_s": measured_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes[:20],
        "end_to_end": e2e,
        "tails": tails,
        "per_layer": layer,
        "replay_self_s": replays[0]["self_s"] if replays else {},
        "replay_calls": replays[0]["calls"] if replays else {},
        "round_records": rounds,
        "machine": machine(),
        "reference_commit": ref.get("commit"),
    }


# -- reporting -----------------------------------------------------------------------


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": git_commit(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def report(res, spec):
    section = "per_layer" if res["trace"] else "end_to_end"
    values = res["per_layer"] if res["trace"] else res["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = [n for n in units if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    mach = res["machine"]
    print(f"# {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"rounds={res['rounds']} in {res['measured_s']:.1f} s  "
          f"commit={mach['commit'][:12]}  nproc={mach['nproc']}  "
          f"python={mach['python']}  cpu={mach['cpu']}")
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:14.6g} {unit}")
    if not res["trace"]:
        for name, t in res["tails"].items():
            if t["tail_pct"] is None:
                print(f"  {name}: median {t['median']:.4g} over n={t['n']} "
                      f"(too few samples for a tail percentile)")
            else:
                print(f"  {name}: median {t['median']:.4g}, p{t['tail_pct']} "
                      f"{t['tail']:.4g} over n={t['n']}")
    else:
        top = sorted(res["replay_self_s"].items(), key=lambda kv: -kv[1])[:4]
        wall = res["per_layer"].get("trace.wall_s") or 1.0
        print("  largest self time: " + ", ".join(
            f"{k} {v:.2f} s ({100 * v / wall:.0f}%)" for k, v in top))
    print(f"attempted={res['attempted']} failed={res['failed']}")
    for note in res["failures"]:
        print(f"  FAILED {note}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def save(res):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True), encoding="utf-8")


# -- reference recording -------------------------------------------------------------


def record():
    """Record every checked output from the code in src/ as the reference."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=WORK)
    try:
        ctx = {"dir": workdir, "cache": tempfile.mkdtemp(prefix="cache-", dir=workdir)}
        ref = {"commit": git_commit(), "scan": {}, "pairs": {}, "census": {}}
        child = spawn(cli_argv(scan_argv(True)), workdir, ctx["cache"], 600)
        if child.exit != 0:
            raise RuntimeError(f"scan failed: {child.stderr!r}")
        rows = {}
        for line in child.stdout.decode("utf-8").splitlines()[1:]:
            d, _, in_range, a, b, _ = line.split(",")
            if int(d) <= PROBE_X:
                rows[d] = [in_range == "True", a, b]
        ref["scan"] = {"m": SCAN_M, "x": SCAN_X, "sha256": sha256(child.stdout),
                       "rows": rows}
        pool = [p for stratum in HARD_STRATA for p in stratum]
        child = spawn(decide_argv([list(p) for p in pool]), workdir, ctx["cache"], 600)
        got = parse_decisions(child.stdout)
        for d, m in pool:
            row = got[pair_key(d, m)]
            if "error" in row:
                raise RuntimeError(f"decision {d},{m} failed: {row}")
            ref["pairs"][pair_key(d, m)] = [row["ok"], row["a"], row["b"]]
            print(f"pair {d},{m}: ok={row['ok']} {row['s']:.2f} s")
        for label, args in CENSUS.items():
            child = spawn(cli_argv(args), workdir, ctx["cache"], 600)
            if child.exit != 0:
                raise RuntimeError(f"{label} failed: {child.stderr!r}")
            ref["census"][label] = {"argv": args, "sha256": sha256(child.stdout)}
            print(f"{label}: {child.wall:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


# -- entry point ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite bench/reference.json from the code in src/")
    args = ap.parse_args(argv)

    if not (SRC / "quadpart" / "__init__.py").is_file():
        print(f"error: no quadpart package under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        res = run_workload(name, args.seed, seconds, args.trace, ref, spec)
        save(res)
        print(json.dumps(report(res, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
