"""Scans and the density census fanned out over forked workers.

map_fields runs one job per field in worker processes once every worker gets
FIELDS_PER_WORKER fields; these tests compare that path with the in-process
one and check how it fails.
"""

import os
import subprocess
import sys
import threading

import pytest

from quadpart import cli
from quadpart.cli import run
from quadpart.qfield import InternalError
from quadpart.theorems import FIELDS_PER_WORKER, map_fields, scan_missing_value, squarefree_range

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="the fan-out needs two CPUs")


def _env(tmp_path):
    return dict(os.environ, QUADPART_CACHE_DIR=str(tmp_path / "cache"),
                PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def _cli(args, tmp_path, pin=False):
    cpu = min(os.sched_getaffinity(0)) if pin else None
    done = subprocess.run(
        [sys.executable, "-m", "quadpart.cli"] + args, env=_env(tmp_path), cwd=tmp_path,
        capture_output=True, timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _pid_of(x):
    return x, os.getpid()


def test_fan_out_starts_at_two_workers_worth_of_fields():
    few = list(range(2 * FIELDS_PER_WORKER - 1))
    assert list(map_fields(_pid_of, few)) == [(x, os.getpid()) for x in few]
    many = list(range(2 * FIELDS_PER_WORKER))
    got = list(map_fields(_pid_of, many))
    assert [x for x, _ in got] == many  # results come back in input order
    pids = {pid for _, pid in got}
    assert (os.getpid() not in pids) if CPUS >= 2 else (pids == {os.getpid()})
    assert threading.active_count() == 1  # the pool left no thread, so it can fork again


def test_no_fork_while_other_threads_run():
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        many = list(range(2 * FIELDS_PER_WORKER))
        assert list(map_fields(_pid_of, many)) == [(x, os.getpid()) for x in many]
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()


@needs_two_cpus
def test_pinned_run_matches_fanned_out_run(tmp_path):
    assert len(squarefree_range(600)) >= 2 * FIELDS_PER_WORKER  # so unpinned fans out
    for args in (["--no-cache", "scan", "--m", "11", "--xmax", "600"],
                 ["--no-cache", "scan", "--m", "6", "--xmax", "600", "--fast6"],
                 ["density", "--m", "6", "--xmax", "600"]):
        fanned = _cli(args, tmp_path)
        assert fanned == _cli(args, tmp_path, pin=True), args
        if args[2:4] == ["--m", "11"]:
            lines = fanned.decode().splitlines()[1:]
            missing = [int(r.split(",")[0]) for r in lines if r.split(",")[2] == "False"]
            assert missing == scan_missing_value(11, 600)
    assert not (tmp_path / "cache").exists()


def test_worker_error_fails_the_scan_and_caches_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QUADPART_CACHE_DIR", str(tmp_path / "cache"))
    parent = os.getpid()

    def decide(d, m):
        if d == 401:
            raise InternalError(f"no decision for D={d} in process {os.getpid()}")
        return False, None

    monkeypatch.setattr(cli, "value_attained", decide)
    assert len(squarefree_range(600)) >= 2 * FIELDS_PER_WORKER
    assert run(["scan", "--m", "11", "--xmax", "600"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("InternalError: no decision for D=401 in process ")
    assert (int(err.split()[-1]) != parent) == (CPUS >= 2)
    assert not os.path.exists(cli._cache_path("scan_m11_x600"))
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # no temp file either


@needs_two_cpus
def test_dead_worker_fails_instead_of_hanging(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADPART_CACHE_DIR", str(tmp_path / "cache"))  # as _env sets it
    code = ("import os, sys\n"
            "from quadpart import cli\n"
            "cli.value_attained = lambda d, m: os._exit(3) if d == 401 else (False, None)\n"
            "sys.exit(cli.run(['scan', '--m', '11', '--xmax', '600']))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_env(tmp_path), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("InternalError: a worker process died")
    assert not os.path.exists(cli._cache_path("scan_m11_x600"))
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # no temp file either
