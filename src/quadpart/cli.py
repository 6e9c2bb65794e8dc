"""Command-line front end: field queries, counting, generators, verification,
scans, and density reports, with JSON/CSV output.  Scan results are cached
on disk; in memory, state is kept only for the most recently used fields.
Scans and density reports decide one field per job through
theorems.map_fields, which forks worker processes for long field lists and
yields the results in ascending D; only this process reads or writes the
cache.  A scan row is one CSV line from its job to stdout, and a cache entry
is the scan's CSV text followed by one seal line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile
from typing import Iterable, Optional

from .qfield import (
    BadIndex,
    CtxMismatch,
    NotSquarefree,
    NotTotallyPositive,
    OutOfRange,
    QuadInt,
    QuadpartError,
    make_field,
)
from .indec import indec_seq
from .partcount import (
    default_i_max,
    exists_six_partitions,
    gen_six_partitions,
    gen_two_indec_partitions,
    list_partitions,
    pk,
    pk_indec,
)
from .theorems import (
    BOUND_KINDS,
    SCHEMA_VERSION,
    density_report,
    map_fields,
    partition_range_witnesses,
    squarefree_range,
    value_attained,
    verify_norm_bound,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

_USAGE_ERRORS = (NotSquarefree, OutOfRange, BadIndex, NotTotallyPositive, CtxMismatch)


# -- cache -----------------------------------------------------------------------


def cache_dir() -> str:
    return os.environ.get("QUADPART_CACHE_DIR", os.path.join(".", ".quadpart-cache"))


def _cache_path(key: str) -> str:
    return os.path.join(cache_dir(), f"v{SCHEMA_VERSION}", key + ".csv")


def _sha256(data: bytes = b""):
    """A SHA-256 hash of data, from CPython's own module where it has one."""
    try:  # _sha2 from 3.12: hashlib loads OpenSSL, ~3.5 MB RSS
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 of this package's .py sources, read once per process.

    Each cache entry's seal holds it, so an entry computed by other code is a miss.
    """
    global _fingerprint
    if _fingerprint is None:
        pkg = os.path.dirname(os.path.abspath(__file__))
        h = _sha256()
        for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
            with open(os.path.join(pkg, name), "rb") as fh:
                source = fh.read()
            h.update(f"{name}\0{len(source)}\0".encode())
            h.update(source)
        _fingerprint = h.hexdigest()
    return _fingerprint


def _seal(key: str, digest: str) -> bytes:
    """The last line of a cache entry: the code and key it was computed for
    and the SHA-256 of the text above it."""
    return (json.dumps({"code": code_fingerprint(), "key": key, "sha256": digest,
                        "version": SCHEMA_VERSION}, sort_keys=True) + "\n").encode()


def cache_get(key: str) -> Optional[str]:
    """The text of the entry for key, or None unless its last line is the seal
    of this key and text: stale, foreign, cut and edited entries are misses."""
    try:
        with open(_cache_path(key), "rb") as fh:
            entry = fh.read()
    except OSError:
        return None
    cut = entry.rfind(b"\n", 0, len(entry) - 1) + 1  # where the last line starts
    if entry[cut:] != _seal(key, _sha256(memoryview(entry)[:cut]).hexdigest()):
        return None
    return entry[:cut].decode()


def cache_put(key: str, lines: Iterable[str]) -> bool:
    """Write lines and then their seal as the entry for key; False if the
    entry could not be written.  A failed write leaves the old entry, and
    every line is still read; an OSError raised by the lines passes through."""
    path = _cache_path(key)
    raised = []  # an OSError of the lines themselves, not of the entry

    def read():
        try:
            yield from lines
        except OSError as exc:
            raised.append(exc)
            raise

    rows = read()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=key + ".",
                                   suffix=".tmp")
        try:
            h = _sha256()
            with os.fdopen(fd, "wb") as fh:
                for line in rows:
                    data = line.encode()
                    fh.write(data)
                    h.update(data)
                fh.write(_seal(key, h.hexdigest()))
            os.replace(tmp, path)  # readers see the old entry or the whole new one
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        if raised:
            raise
        for _ in rows:  # the caller reads the lines for itself too
            pass
        return False  # caching is best-effort; results never depend on it
    return True


def _dump(payload: dict) -> str:
    """A JSON document of this package: the payload and its schema version."""
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True)


# -- subcommand bodies -------------------------------------------------------------


def _cmd_field(args) -> int:
    print(_dump(make_field(args.D)._asdict()))
    return 0


def _cmd_cf(args) -> int:
    if args.rows is not None and args.rows < -1:
        raise BadIndex(f"rows must be >= -1, got {args.rows}")
    seq = indec_seq(args.D)
    out = {**seq.cf.to_json(),
           "epsilon": seq.table.eps.to_json(),
           "epsilon_plus": seq.table.eps_plus.to_json()}
    if args.rows is not None:
        rows = []
        for i in range(-1, args.rows + 1):
            p, q, alpha, absnorm = seq.table.row(i)
            rows.append({"i": i, "p": str(p), "q": str(q),
                         "alpha": alpha.to_json(), "N": str(absnorm)})
        out["rows"] = rows
    print(_dump(out))
    return 0


def _cmd_indec(args) -> int:
    if args.window < 0:
        raise BadIndex(f"window must be >= 0, got {args.window}")
    seq = indec_seq(args.D)
    rows = []
    for j in range(-args.window, args.window + 1):
        b = seq.beta(j)
        i, r = seq.pair(j)
        rows.append({
            "j": j, "i": i, "r": r,
            "alpha": b.to_json(),
            "v": seq.v(j),
            "norm": str(b.norm()),
        })
    print(_dump({"D": args.D, "s_prime": seq.s_prime, "rows": rows}))
    return 0


def _cmd_decomp(args) -> int:
    seq = indec_seq(args.D)
    alpha = QuadInt(args.a, args.b, seq.ctx)
    d = seq.canonical_decomp(alpha)
    print(_dump({"D": args.D, "alpha": alpha.to_json(), "j": d.j, "e": d.e, "f": d.f}))
    return 0


def _cmd_pk(args) -> int:
    if args.indec and not args.list:
        raise BadIndex("--indec only applies to --list")
    ctx = make_field(args.D)
    alpha = QuadInt(args.a, args.b, ctx)
    full = pk(alpha, cap=args.cap)
    restricted = pk_indec(alpha, cap=args.cap)
    out = {
        "D": args.D,
        "alpha": alpha.to_json(),
        "pk": {"value": full.value, "exact": full.exact},
        "pk_indec": {"value": restricted.value, "exact": restricted.exact},
        "exact": full.exact and restricted.exact,
    }
    if args.list:
        parts = list_partitions(alpha, args.indec, None if args.cap is None else args.cap + 1)
        out["partitions"] = [[q.to_json() for q in p] for p in parts]
    print(_dump(out))
    return 0


def _cmd_gen(args) -> int:
    seq = indec_seq(args.D)
    i_max = args.imax if args.imax is not None else default_i_max(seq)
    if args.pk is not None:
        items = gen_six_partitions(seq, i_max)
        kind = "pk6"
    else:
        items = gen_two_indec_partitions(seq, i_max)
        kind = "pki2"
    print(_dump({"D": args.D, "kind": kind, "i_max": i_max, "count": len(items),
                 "elements": [x.to_json() for x in items]}))
    return 0


def _cmd_verify(args) -> int:
    rep = verify_norm_bound(args.D, args.bound, args.m)
    print(_dump(rep.to_json()))
    return 0 if rep.ok else CHECK_FAILED


def _scan_row(d: int, m: int, fast6: bool) -> str:
    """The scan's CSV line for field d: D,m,in_range,witness_a,witness_b,pk."""
    if fast6:
        ok, w = exists_six_partitions(d), None
    else:
        ok, w = value_attained(d, m)
    a, b = (w.a, w.b) if w is not None else ("", "")
    return f"{d},{m},{ok},{a},{b},{m if ok and not fast6 else ''}\n"


def _cmd_scan(args) -> int:
    if args.m < 1:  # checked here too: a scan of no fields checks no m
        raise BadIndex(f"m must be >= 1, got {args.m}")
    if args.xmax < 2:
        raise BadIndex(f"X must be >= 2, got {args.xmax}")
    if args.fast6 and args.m != 6:
        raise BadIndex("--fast6 only applies to --m 6")
    key = f"scan_m{args.m}_x{args.xmax}" + ("_fast6" if args.fast6 else "")
    job = functools.partial(_scan_row, m=args.m, fast6=args.fast6)

    def printed():
        """Each line, written to sys.stdout as it is handed on."""
        for line in itertools.chain(["D,m,in_range,witness_a,witness_b,pk\n"],
                                    map_fields(job, squarefree_range(args.xmax))):
            sys.stdout.write(line)
            yield line

    text = None if args.no_cache else cache_get(key)
    if text is not None:
        sys.stdout.write(text)
    elif args.no_cache:
        for _ in printed():
            pass
    else:
        cache_put(key, printed())  # the entry is renamed into place once whole
    return 0


def _cmd_witness(args) -> int:
    b, ws = partition_range_witnesses(args.D)
    print(_dump({
        "D": args.D,
        "B": b,
        "range_max": b // 2 + 2,
        "witnesses": {str(m): w.to_json() for m, w in sorted(ws.items())},
    }))
    return 0


def _cmd_density(args) -> int:
    rep = density_report(args.m, args.xmax)
    print(_dump(rep.to_json()))
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadpart",
        description="Partitions and indecomposables in real quadratic fields "
                    "(exact arithmetic).")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk cache entirely")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print field constants")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("cf", help="continued fraction expansion and units")
    p.add_argument("D", type=int)
    p.add_argument("--rows", type=int, default=None,
                   help="also print convergent rows up to this index")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("indec", help="indecomposable sequence rows")
    p.add_argument("D", type=int)
    p.add_argument("--window", type=int, required=True)
    p.set_defaults(func=_cmd_indec)

    p = sub.add_parser("decomp", help="canonical decomposition of a + b*w")
    p.add_argument("D", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_decomp)

    p = sub.add_parser("pk", help="partition counts of a + b*w")
    p.add_argument("D", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--indec", action="store_true",
                   help="list only indecomposable-part partitions")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_pk)

    p = sub.add_parser("gen", help="run a closed-form generator")
    p.add_argument("D", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pk", type=int, choices=[6])
    group.add_argument("--pki", type=int, choices=[2])
    p.add_argument("--imax", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify a norm bound exhaustively")
    p.add_argument("D", type=int)
    p.add_argument("--bound", choices=BOUND_KINDS, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="scan fields missing a partition count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--fast6", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("witness", help="witness elements for small counts")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("density", help="census of fields missing a count <= m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.set_defaults(func=_cmd_density)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except QuadpartError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: keep the interpreter's last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CHECK_FAILED
    raise SystemExit(code)


if __name__ == "__main__":
    main()
