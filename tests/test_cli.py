import json
import os
import subprocess
import sys

import pytest

from quadpart.qfield import QuadInt, make_field
from quadpart import cli
from quadpart.cli import run


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("QUADPART_CACHE_DIR", str(d))
    return d


def out_of(capsys):
    return capsys.readouterr().out


def test_field_command(capsys, cache_dir):
    assert run(["field", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["delta"] == 8 and doc["c_d"] == 2 and doc["schema"] == 1


def test_cf_command_round_trip(capsys, cache_dir):
    assert run(["cf", "2", "--rows", "3"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["u0"] == 2 and doc["period"] == [2]
    eps = QuadInt.from_json(doc["epsilon"])
    assert eps == QuadInt(1, 1, make_field(2))
    assert doc["rows"][0] == {"i": -1, "p": "1", "q": "0",
                              "alpha": {"a": "1", "b": "0", "D": 2}, "N": "1"}


def test_cache_hits_are_byte_identical(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    first = out_of(capsys)
    assert (cache_dir / "v1" / "scan_m3_x13.json").exists()
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    second = out_of(capsys)
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    third = out_of(capsys)
    assert first == second == third


def test_stale_cache_entries_are_ignored(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = cache_dir / "v1" / "scan_m3_x13.json"
    path.write_text(json.dumps({"version": 0, "payload": {"rows": []}}))
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good  # wrong version forces recomputation
    path.write_text("not json at all")
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good  # corrupt entries are ignored too


def test_cache_entries_that_are_not_objects_are_ignored(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = cache_dir / "v1" / "scan_m3_x13.json"
    for text in ("[]", "null", "13", '"scan"'):  # valid JSON, but no entry
        path.write_text(text)
        assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
        assert out_of(capsys) == good, text


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_fingerprint_does_not_import_hashlib():
    # hashlib loads OpenSSL, about 3.5 MB of RSS in every cached scan
    code = ("import sys; from quadpart import cli; print(cli.code_fingerprint()); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    assert _fresh_interpreter(code).split() == [cli.code_fingerprint(), "[]"]


def test_commands_do_not_import_the_pool():
    # The pool is imported only when a scan fans out: loading multiprocessing
    # and concurrent.futures costs every other command ~25 ms and 2.6 MB RSS
    code = ("import contextlib, io, sys; import quadpart, quadpart.cli\n"
            "def pool(): return sorted(m for m in sys.modules\n"
            "                          if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "print(pool())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = quadpart.cli.run(['verify', '9001', '--bound', 'hk10'])\n"
            "print(code, pool())\n")
    assert _fresh_interpreter(code).splitlines() == ["[]", "0 []"]


def test_entries_from_other_code_are_recomputed(capsys, cache_dir):
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    good = out_of(capsys)
    path = cache_dir / "v1" / "scan_m3_x13.json"
    entry = json.loads(path.read_text())
    assert entry["code"] == cli.code_fingerprint()
    entry["code"] = "0" * 64  # as if written by an older version of the package
    entry["payload"]["rows"] = []
    path.write_text(json.dumps(entry))
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == good
    assert json.loads(path.read_text())["code"] == cli.code_fingerprint()


def test_no_cache_writes_nothing(capsys, cache_dir):
    assert run(["--no-cache", "scan", "--m", "3", "--xmax", "13"]) == 0
    out_of(capsys)
    assert not (cache_dir / "v1" / "scan_m3_x13.json").exists()


def test_cache_write_failing_mid_dump_leaves_nothing(capsys, cache_dir, monkeypatch):
    def dump_half(obj, fh, **kwargs):
        fh.write('{"key": "scan_m3_x13", "payl')
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as mp:
        mp.setattr(cli.json, "dump", dump_half)
        assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    fresh = out_of(capsys)
    assert list((cache_dir / "v1").iterdir()) == []
    assert run(["scan", "--m", "3", "--xmax", "13"]) == 0
    assert out_of(capsys) == fresh
    entry = cache_dir / "v1" / "scan_m3_x13.json"
    good = entry.read_text()
    with monkeypatch.context() as mp:
        mp.setattr(cli.json, "dump", dump_half)
        cli.cache_put("scan_m3_x13", {"rows": []}, no_cache=False)
    assert entry.read_text() == good  # the old entry survives a failed rewrite
    assert [p.name for p in (cache_dir / "v1").iterdir()] == ["scan_m3_x13.json"]


def test_indec_command(capsys, cache_dir):
    assert run(["indec", "2", "--window", "2"]) == 0
    doc = json.loads(out_of(capsys))
    rows = {r["j"]: r for r in doc["rows"]}
    assert rows[0]["v"] == 4 and rows[1]["v"] == 2
    assert QuadInt.from_json(rows[-1]["alpha"]) == QuadInt(2, -1, make_field(2))
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


def test_gen_command(capsys, cache_dir):
    assert run(["gen", "2", "--pk", "6", "--imax", "1"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["count"] == len(doc["elements"]) > 0
    assert run(["gen", "2", "--pki", "2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["kind"] == "pki2" and doc["count"] > 0


def test_verify_command(capsys, cache_dir):
    assert run(["verify", "2", "--bound", "n2"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["ok"] is True and doc["violations"] == []
    assert run(["verify", "2", "--bound", "n", "--m", "2"]) == 0
    out_of(capsys)


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
    assert run(["nonsense"]) == 2
    assert run(["gen", "2"]) == 2  # neither --pk nor --pki
    assert run(["verify", "2", "--bound", "n"]) == 2  # missing --m
    assert run(["verify", "94", "--bound", "hk10", "--m", "3"]) == 2  # m only for n
    assert run(["scan", "--m", "0", "--xmax", "1"]) == 2  # no fields, still a bad m
    assert not (cache_dir / "v1" / "scan_m0_x1.json").exists()
    assert run(["scan", "--m", "3", "--xmax", "10", "--fast6"]) == 2
    assert run(["--help"]) == 0
