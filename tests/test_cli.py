import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quadpart.qfield import QuadInt, SurdExpr, make_field
from quadpart.partcount import list_partitions
from quadpart import cli, theorems
from quadpart.cli import run


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("QUADPART_CACHE_DIR", str(d))
    return d


def out_of(capsys):
    return capsys.readouterr().out


def _qj(a, b, d):
    return {"a": str(a), "b": str(b), "D": d}


def _row(d, i, p, q, a, b, n):
    return {"i": i, "p": str(p), "q": str(q), "alpha": _qj(a, b, d), "N": str(n)}


FIELD_DOCS = {
    2: {"schema": 1, "D": 2, "delta": 8, "basis_case": "sqrt", "tr_omega": 0,
        "nm_omega": -2, "floor_omega": 1, "floor_xi": 1, "c_d": 2},
    13: {"schema": 1, "D": 13, "delta": 13, "basis_case": "half", "tr_omega": 1,
         "nm_omega": -3, "floor_omega": 2, "floor_xi": 1, "c_d": 3},
    31: {"schema": 1, "D": 31, "delta": 124, "basis_case": "sqrt", "tr_omega": 0,
         "nm_omega": -31, "floor_omega": 5, "floor_xi": 5, "c_d": 31},
}

CF_ROWS3_DOCS = {
    2: {"schema": 1, "D": 2, "u0": 2, "period": [2], "s": 1,
        "epsilon": _qj(1, 1, 2), "epsilon_plus": _qj(3, 2, 2),
        "rows": [_row(2, -1, 1, 0, 1, 0, 1), _row(2, 0, 1, 1, 1, 1, 1),
                 _row(2, 1, 3, 2, 3, 2, 1), _row(2, 2, 7, 5, 7, 5, 1),
                 _row(2, 3, 17, 12, 17, 12, 1)]},
    13: {"schema": 1, "D": 13, "u0": 3, "period": [3], "s": 1,
         "epsilon": _qj(1, 1, 13), "epsilon_plus": _qj(4, 3, 13),
         "rows": [_row(13, -1, 1, 0, 1, 0, 1), _row(13, 0, 2, 1, 1, 1, 1),
                  _row(13, 1, 7, 3, 4, 3, 1), _row(13, 2, 23, 10, 13, 10, 1),
                  _row(13, 3, 76, 33, 43, 33, 1)]},
    31: {"schema": 1, "D": 31, "u0": 10, "period": [1, 1, 3, 5, 3, 1, 1, 10], "s": 8,
         "epsilon": _qj(1520, 273, 31), "epsilon_plus": _qj(1520, 273, 31),
         "rows": [_row(31, -1, 1, 0, 1, 0, 1), _row(31, 0, 5, 1, 5, 1, 6),
                  _row(31, 1, 6, 1, 6, 1, 5), _row(31, 2, 11, 2, 11, 2, 3),
                  _row(31, 3, 39, 7, 39, 7, 2)]},
}


def test_field_command(capsys, cache_dir):
    for d, want in FIELD_DOCS.items():
        assert run(["field", str(d)]) == 0
        assert json.loads(out_of(capsys)) == want, d


def test_cf_command_round_trip(capsys, cache_dir):
    for d, want in CF_ROWS3_DOCS.items():
        assert run(["cf", str(d), "--rows", "3"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc == want, d
        o = doc["epsilon"]
        assert QuadInt(int(o["a"]), int(o["b"]), make_field(o["D"])).norm() == (-1) ** doc["s"]
    # eps and eps_plus of D = 1399721 have hundreds of digits, and each row's
    # N comes from the CF tails; the digest pins the whole document.
    assert run(["cf", "1399721", "--rows", "3"]) == 0
    got = hashlib.sha256(out_of(capsys).encode()).hexdigest()
    assert got == "bf66620446dc00db3ddbe286cd34d7972d2da2c43517cfd248c691d0cbafe52c"


KEY = "scan_m3_x13"
HEADER = "D,m,in_range,witness_a,witness_b,pk\n"


def entry_path(key=KEY):
    return pathlib.Path(cli._cache_path(key))


def sealed(text, key=KEY, **fields):
    """text and its seal line: a whole entry, with seal fields overridden."""
    seal = {"code": cli.code_fingerprint(), "key": key,
            "sha256": hashlib.sha256(text.encode()).hexdigest(), "version": 1, **fields}
    return text + json.dumps(seal, sort_keys=True) + "\n"


def test_cache_hits_are_byte_identical(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    first = out_of(capsys)
    assert entry_path().exists()
    assert entry_path().read_text() == sealed(first)  # the output, then its seal
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    second = out_of(capsys)
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    third = out_of(capsys)
    assert first == second == third


def test_stale_cache_entries_are_ignored(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = entry_path()
    path.write_text(sealed(HEADER, version=0))
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good  # wrong version forces recomputation
    path.write_text("not json at all")
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good  # corrupt entries are ignored too


def test_cache_entries_that_are_not_objects_are_ignored(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = entry_path()
    for text in ("[]", "null", "13", '"scan"'):  # valid JSON, but no entry
        for entry in (text, HEADER + text + "\n"):  # alone, or as the seal line
            path.write_text(entry)
            assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
            assert out_of(capsys) == good, entry


def test_cache_entries_for_other_keys_or_malformed_are_recomputed(capsys, cache_dir):
    want = {}
    for m in (3, 4):
        assert run(["--no-cache", "scan", "--m", str(m), "--xmax", "13"]) == 0
        want[m] = out_of(capsys)
    assert want[3] != want[4]
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    out_of(capsys)
    path = entry_path()
    whole = path.read_text()
    entry_path("scan_m4_x13").write_text(whole)
    assert run(["scan", "--m", "4", "--xmax", "13"]) == 0
    assert out_of(capsys) == want[4]  # an entry stored under another key

    def recomputed(entry):
        path.write_text(entry)
        assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
        assert out_of(capsys) == want[3], entry
        assert path.read_text() == whole  # and the entry is written again

    # JSON entries of older versions; rows of ints crashed the CSV writer
    for payload in ({"rows": [5]}, {"rows": 5}, {"rows": {}}, [], None):
        recomputed(json.dumps({"version": 1, "code": cli.code_fingerprint(), "key": KEY,
                               "payload": payload}))
    lines = whole.splitlines(keepends=True)
    assert whole.count("False") == 1 and len(lines) > 3
    recomputed(whole.replace("False", "True"))  # one CSV cell edited
    recomputed(whole[:len(lines[0]) + len(lines[1]) // 2])  # cut mid-line
    recomputed("".join(lines[:-1]))  # the seal line dropped


def _fresh_interpreter(code, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_scan_memory_stays_flat_in_x():
    # A child's ru_maxrss keeps its parent's pre-exec high-water mark, so each
    # scan runs under a small launcher instead of under pytest.
    launcher = ("import resource, subprocess, sys\n"
                "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    mb = {}
    for x in (10_000, 100_000):
        scan = [sys.executable, "-m", "quadpart.cli", "--no-cache", "scan", "--m", "6",
                "--fast6", "--xmax", str(x)]
        mb[x] = int(_fresh_interpreter(launcher, *scan)) / 1024  # ru_maxrss is in kB
    assert mb[100_000] - mb[10_000] < 10, mb


def test_closed_stdout_ends_the_scan_quietly(cache_dir):
    # A reader that leaves early, as `quadpart scan ... | head -1` does, closes
    # the pipe mid-scan.  The scan prints about 190 kB, more than a pipe holds,
    # so it is still writing then: it exits 1 without a traceback, and leaves
    # no cache entry and no temporary file.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadpart.cli", "scan", "--m", "6", "--fast6", "--xmax", "20000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"D,m,in_range,witness_a,witness_b,pk\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.CHECK_FAILED, err
    assert "Traceback" not in err
    assert [f for _, _, files in os.walk(cache_dir) for f in files] == []


def test_fingerprint_does_not_import_hashlib():
    # hashlib loads OpenSSL, about 3.5 MB of RSS in every cached scan
    code = ("import sys; from quadpart import cli; print(cli.code_fingerprint()); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    assert _fresh_interpreter(code).split() == [cli.code_fingerprint(), "[]"]


def test_commands_do_not_import_the_pool():
    # The pool is imported only when a scan fans out: loading multiprocessing
    # and concurrent.futures costs every other command ~25 ms and 2.6 MB RSS.
    # dataclasses, with inspect, was most of the package's import time.  Only
    # modules new since before the package count: a site hook may load its own.
    code = ("import contextlib, io, sys; before = set(sys.modules)\n"
            "import quadpart, quadpart.cli\n"
            "heavy = ('multiprocessing', 'concurrent', 'dataclasses', 'inspect')\n"
            "def loaded(): return sorted(m for m in set(sys.modules) - before\n"
            "                            if m.split('.')[0] in heavy)\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = quadpart.cli.run(['verify', '9001', '--bound', 'hk10'])\n"
            "print(code, loaded())\n")
    assert _fresh_interpreter(code).splitlines() == ["[]", "0 []"]


def test_entries_from_other_code_are_recomputed(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = entry_path()
    seal = json.loads(path.read_text().splitlines()[-1])
    assert seal["code"] == cli.code_fingerprint()
    # as if written by an older version of the package, with its rows dropped
    path.write_text(sealed(HEADER, code="0" * 64))
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good
    assert json.loads(path.read_text().splitlines()[-1])["code"] == cli.code_fingerprint()


def test_no_cache_writes_nothing(capsys, cache_dir):
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    out_of(capsys)
    assert not entry_path().exists()
    assert not cache_dir.exists()


def test_cache_write_failing_mid_dump_leaves_nothing(capsys, cache_dir, monkeypatch):
    fdopen = os.fdopen

    class HalfFull:
        """The entry's file: it takes half of the first write, then the disk is full."""

        def __init__(self, fd, *args, **kwargs):
            self.fh = fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    with monkeypatch.context() as mp:
        mp.setattr(cli.os, "fdopen", HalfFull)
        assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    fresh = out_of(capsys)
    assert list((cache_dir / "v1").iterdir()) == []
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == fresh
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == fresh
    entry = entry_path()
    good = entry.read_text()
    with monkeypatch.context() as mp:
        mp.setattr(cli.os, "fdopen", HalfFull)
        assert cli.cache_put(KEY, iter([HEADER])) is False
    assert entry.read_text() == good  # the old entry survives a failed rewrite
    assert [p.name for p in (cache_dir / "v1").iterdir()] == [entry.name]


def test_cache_write_failing_midway_decides_each_field_once(capsys, cache_dir, monkeypatch):
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    fresh = out_of(capsys)
    fdopen = os.fdopen

    class FullAtSixthWrite:
        """The entry's file: the disk is full at its sixth write (the row of D = 7)."""

        def __init__(self, fd, *args, **kwargs):
            self.fh = fdopen(fd, *args, **kwargs)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 6:
                raise OSError(28, "No space left on device")
            self.fh.write(data)

    decided = []
    value_attained = cli.value_attained

    def counted(d, m):
        decided.append(d)
        return value_attained(d, m)

    monkeypatch.setattr(cli, "value_attained", counted)
    monkeypatch.setattr(cli.os, "fdopen", FullAtSixthWrite)
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == fresh
    assert decided == [2, 3, 5, 6, 7, 10, 11, 13]  # each field once, in order
    assert list((cache_dir / "v1").iterdir()) == []  # no entry and no temp file


def test_errors_of_the_rows_pass_through_the_cache(capsys, cache_dir, monkeypatch):
    def broken_pool(job, ds):
        yield from map(job, ds[:2])
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "map_fields", broken_pool)
    with pytest.raises(OSError):
        run(["scan", "--m", "3", "--xmax", "13"])
    assert list((cache_dir / "v1").iterdir()) == []


def test_indec_command(capsys, cache_dir):
    assert run(["indec", "2", "--window", "2"]) == 0
    doc = json.loads(out_of(capsys))
    rows = {r["j"]: r for r in doc["rows"]}
    assert rows[0]["v"] == 4 and rows[1]["v"] == 2
    o = rows[-1]["alpha"]
    assert QuadInt(int(o["a"]), int(o["b"]), make_field(o["D"])) == QuadInt(2, -1, make_field(2))
    assert rows[2]["norm"] == "1"


def test_decomp_command(capsys, cache_dir):
    assert run(["decomp", "2", "4", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert (doc["j"], doc["e"], doc["f"]) == (1, 2, 0)


def test_pk_command(capsys, cache_dir):
    assert run(["pk", "2", "5", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["pk"] == {"value": 6, "exact": True}
    assert doc["pk_indec"]["value"] == 2
    assert run(["pk", "2", "4", "2", "--list"]) == 0
    doc = json.loads(out_of(capsys))
    assert len(doc["partitions"]) == 3


def test_pk_list_obeys_cap(capsys, cache_dir):
    # the listing holds as many partitions as the capped count it lists says
    alpha = QuadInt(20, 0, make_field(2))
    want = {"": list_partitions(alpha, limit=4), "--indec": list_partitions(alpha, True)}
    assert len(want["--indec"]) == 35
    for flag, key in (("", "pk"), ("--indec", "pk_indec")):
        assert run(["pk", "2", "20", "0", "--cap", "3", "--list", *flag.split()]) == 0
        doc = json.loads(out_of(capsys))
        assert doc[key] == {"exact": False, "value": 4}
        assert len(doc["partitions"]) == 4
        for p, q in zip(doc["partitions"], want[flag]):
            assert sum(int(x["a"]) for x in p) == 20 and sum(int(x["b"]) for x in p) == 0
            assert [QuadInt(int(x["a"]), int(x["b"]), alpha.ctx) for x in p] == q


def test_gen_command(capsys, cache_dir):
    assert run(["gen", "2", "--pk", "6", "--imax", "1"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["count"] == len(doc["elements"]) > 0
    assert run(["gen", "2", "--pki", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["kind"] == "pki2" and doc["count"] > 0
    # without --imax the generators cover one totally positive unit period
    for d, i_max in ((2, -1), (3, -1), (7, 1), (13, -1), (31, 5)):
        assert run(["gen", str(d), "--pki", "2"]) == 0
        assert json.loads(out_of(capsys))["i_max"] == i_max, d


def test_verify_command(capsys, cache_dir, monkeypatch):
    assert run(["verify", "2", "--bound", "n2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["ok"] is True and doc["violations"] == []
    assert run(["verify", "2", "--bound", "n", "--m", "2"]) == 0
    out_of(capsys)
    # a bound of 5 fails on the five hk10 candidates of norm >= 5
    monkeypatch.setattr(theorems, "norm_bound",
                        lambda ctx, kind, m=None: SurdExpr(5, 0, ctx.delta))
    assert run(["verify", "2", "--bound", "hk10"]) == 1
    doc = json.loads(out_of(capsys))
    assert doc["ok"] is False and len(doc["violations"]) == 5


def test_scan_command_csv(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "12"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "D,m,in_range,witness_a,witness_b,pk"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "5", "6", "7", "10", "11"]
    missing = [r[0] for r in rows if r[2] == "False"]
    assert missing == ["5"]


def test_scan_cached_and_parallel_identical(capsys, cache_dir):
    assert run(["scan", "--m", "2", "--xmax", "15"]) == 0
    first = out_of(capsys)
    assert run(["scan", "--m", "2", "--xmax", "15"]) == 0  # cache hit
    second = out_of(capsys)
    assert run(["--no-cache", "scan", "--m", "2", "--xmax", "15"]) == 0
    third = out_of(capsys)
    assert first == second == third


def test_witness_command(capsys, cache_dir):
    assert run(["witness", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["B"] == 2 and doc["witnesses"]["3"] == {"a": "4", "b": "2", "D": 2}


def test_density_command(capsys, cache_dir):
    assert run(["density", "--m", "4", "--xmax", "20"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["members"] == [5] and doc["hypothesis_holds"] is False


def test_usage_errors(capsys, cache_dir):
    assert run(["field", "12"]) == 2  # not squarefree
    assert run(["field", "1"]) == 2
    assert run(["pk", "2", "1", "1"]) == 2  # not totally positive
    assert run(["pk", "2", "4", "2", "--cap", "-1"]) == 2  # negative cap
    assert run(["pk", "2", "4", "2", "--indec"]) == 2  # --indec without --list
    assert run(["nonsense"]) == 2
    assert run(["gen", "2"]) == 2  # neither --pk nor --pki
    assert run(["gen", "2", "--pk", "6", "--pki", "2"]) == 2  # both
    assert run(["gen", "2", "--pk", "5"]) == 2  # only --pk 6 has a generator
    assert run(["verify", "2", "--bound", "n"]) == 2  # missing --m
    assert run(["verify", "94", "--bound", "hk10", "--m", "3"]) == 2  # m only for n
    assert run(["scan", "--m", "0", "--xmax", "1"]) == 2  # no fields, still a bad m
    assert run(["scan", "--m", "3", "--xmax", "-5"]) == 2  # no squarefree D <= X
    assert run(["indec", "2", "--window", "-3"]) == 2
    assert run(["cf", "2", "--rows", "-5"]) == 2  # rows start at i = -1
    assert out_of(capsys) == ""
    assert run(["cf", "2", "--rows", "-1"]) == 0
    assert [r["i"] for r in json.loads(out_of(capsys))["rows"]] == [-1]
    assert not entry_path("scan_m0_x1").exists()
    assert not entry_path("scan_m3_x-5").exists()
    assert run(["scan", "--m", "3", "--xmax", "10", "--fast6"]) == 2
    assert run(["--help"]) == 0
