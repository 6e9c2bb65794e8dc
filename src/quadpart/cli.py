"""Command-line front end: field queries, counting, generators, verification,
scans, and density reports, with JSON/CSV output.  Scan results are cached
on disk; in memory, state is kept only for the most recently used fields.
Scans and density reports decide one field per job through
theorems.map_fields, which forks worker processes for long field lists and
returns the results in ascending D; only this process reads or writes the
cache.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from typing import Optional

from .qfield import (
    BadIndex,
    CtxMismatch,
    InternalError,
    NotSquarefree,
    NotTotallyPositive,
    OutOfRange,
    QuadInt,
    QuadpartError,
    make_field,
)
from .indec import indec_seq
from .partcount import (
    exists_six_partitions,
    gen_six_partitions,
    gen_two_indec_partitions,
    list_partitions,
    pk,
    pk_indec,
)
from .theorems import (
    density_report,
    map_fields,
    partition_range_witnesses,
    squarefree_range,
    value_attained,
    verify_norm_bound,
)

SCHEMA_VERSION = 1
USAGE_ERROR = 2
CHECK_FAILED = 1

_USAGE_ERRORS = (NotSquarefree, OutOfRange, BadIndex, NotTotallyPositive, CtxMismatch)


# -- cache -----------------------------------------------------------------------


def cache_dir() -> str:
    return os.environ.get("QUADPART_CACHE_DIR", os.path.join(".", ".quadpart-cache"))


def _cache_path(key: str) -> str:
    return os.path.join(cache_dir(), f"v{SCHEMA_VERSION}", key + ".json")


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 of this package's .py sources, read once per process.

    Each cache entry stores it, so an entry computed by other code is a miss.
    """
    global _fingerprint
    if _fingerprint is None:
        try:  # CPython's own SHA-256 (_sha2 from 3.12): hashlib loads OpenSSL, ~3.5 MB RSS
            from _sha256 import sha256
        except ImportError:
            try:
                from _sha2 import sha256
            except ImportError:
                from hashlib import sha256
        pkg = os.path.dirname(os.path.abspath(__file__))
        h = sha256()
        for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
            with open(os.path.join(pkg, name), "rb") as fh:
                source = fh.read()
            h.update(f"{name}\0{len(source)}\0".encode())
            h.update(source)
        _fingerprint = h.hexdigest()
    return _fingerprint


def cache_get(key: str, no_cache: bool) -> Optional[dict]:
    if no_cache:
        return None
    path = _cache_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(entry, dict) or entry.get("version") != SCHEMA_VERSION
            or entry.get("code") != code_fingerprint()):
        return None
    return entry.get("payload")


def cache_put(key: str, payload: dict, no_cache: bool) -> None:
    if no_cache:
        return
    path = _cache_path(key)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=key + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"version": SCHEMA_VERSION, "code": code_fingerprint(),
                           "key": key, "payload": payload}, fh, sort_keys=True)
            os.replace(tmp, path)  # readers see the old entry or the whole new one
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass  # caching is best-effort; results never depend on it


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# -- subcommand bodies -------------------------------------------------------------


def _cmd_field(args) -> int:
    ctx = make_field(args.D)
    print(_dump({
        "schema": SCHEMA_VERSION,
        "D": ctx.D,
        "delta": ctx.delta,
        "basis_case": ctx.basis_case,
        "tr_omega": ctx.tr_omega,
        "nm_omega": ctx.nm_omega,
        "floor_omega": ctx.floor_omega,
        "floor_xi": ctx.floor_xi,
        "c_d": ctx.c_d,
    }))
    return 0


def _cf_payload(d: int) -> dict:
    seq = indec_seq(d)
    cf, un = seq.cf, seq.units
    return {
        "schema": SCHEMA_VERSION,
        "D": d,
        "u0": cf.u0,
        "period": list(cf.period),
        "s": cf.s,
        "epsilon": un.eps.to_json(),
        "epsilon_plus": un.eps_plus.to_json(),
    }


def _cmd_cf(args) -> int:
    out = _cf_payload(args.D)
    if args.rows is not None:
        tab = indec_seq(args.D).table
        rows = []
        for i in range(-1, args.rows + 1):
            p, q, alpha, absnorm = tab.row(i)
            rows.append({"i": i, "p": str(p), "q": str(q),
                         "alpha": alpha.to_json(), "N": str(absnorm)})
        out["rows"] = rows
    print(_dump(out))
    return 0


def _cmd_indec(args) -> int:
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
    print(_dump({"schema": SCHEMA_VERSION, "D": args.D, "s_prime": seq.s_prime,
                 "rows": rows}))
    return 0


def _cmd_decomp(args) -> int:
    seq = indec_seq(args.D)
    alpha = QuadInt(args.a, args.b, seq.ctx)
    d = seq.canonical_decomp(alpha)
    print(_dump({"schema": SCHEMA_VERSION, "D": args.D, "alpha": alpha.to_json(),
                 "j": d.j, "e": d.e, "f": d.f}))
    return 0


def _cmd_pk(args) -> int:
    ctx = make_field(args.D)
    alpha = QuadInt(args.a, args.b, ctx)
    full = pk(alpha, cap=args.cap)
    restricted = pk_indec(alpha, cap=args.cap)
    out = {
        "schema": SCHEMA_VERSION,
        "D": args.D,
        "alpha": alpha.to_json(),
        "pk": {"value": full.value, "exact": full.exact},
        "pk_indec": {"value": restricted.value, "exact": restricted.exact},
        "exact": full.exact and restricted.exact,
    }
    if args.list:
        parts = list_partitions(alpha, indec_only=args.indec)
        out["partitions"] = [[q.to_json() for q in p] for p in parts]
    print(_dump(out))
    return 0


def _cmd_gen(args) -> int:
    seq = indec_seq(args.D)
    if args.imax is not None:
        i_max = args.imax
    else:
        s = seq.cf.s
        i_max = (s if s % 2 == 0 else 2 * s) - 3
    if args.pk is not None:
        if args.pk != 6:
            raise BadIndex("only --pk 6 is supported")
        items = gen_six_partitions(seq, i_max)
        kind = "pk6"
    elif args.pki is not None:
        if args.pki != 2:
            raise BadIndex("only --pki 2 is supported")
        items = gen_two_indec_partitions(seq, i_max)
        kind = "pki2"
    else:
        raise BadIndex("gen requires --pk 6 or --pki 2")
    print(_dump({"schema": SCHEMA_VERSION, "D": args.D, "kind": kind,
                 "i_max": i_max, "count": len(items),
                 "elements": [x.to_json() for x in items]}))
    return 0


def _cmd_verify(args) -> int:
    rep = verify_norm_bound(args.D, args.bound, args.m)
    print(_dump(rep.to_json()))
    return 0 if rep.ok else CHECK_FAILED


def _scan_row(d: int, m: int, fast6: bool) -> dict:
    if fast6:
        ok, w = exists_six_partitions(d), None
    else:
        ok, w = value_attained(d, m)
    return {
        "D": d,
        "m": m,
        "in_range": ok,
        "witness_a": str(w.a) if w is not None else "",
        "witness_b": str(w.b) if w is not None else "",
        "pk": str(m) if ok and not fast6 else "",
    }


def _scan_rows(m: int, xmax: int, fast6: bool) -> list[dict]:
    return map_fields(functools.partial(_scan_row, m=m, fast6=fast6), squarefree_range(xmax))


def _cmd_scan(args) -> int:
    if args.m < 1:  # checked here too: a scan of no fields checks no m
        raise BadIndex(f"m must be >= 1, got {args.m}")
    if args.fast6 and args.m != 6:
        raise BadIndex("--fast6 only applies to --m 6")
    key = f"scan_m{args.m}_x{args.xmax}" + ("_fast6" if args.fast6 else "")
    payload = cache_get(key, args.no_cache)
    if payload is None:
        rows = _scan_rows(args.m, args.xmax, args.fast6)
        payload = {"rows": rows}
        cache_put(key, payload, args.no_cache)
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["D", "m", "in_range", "witness_a", "witness_b", "pk"],
        quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writeheader()
    for row in payload["rows"]:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())
    return 0


def _cmd_witness(args) -> int:
    b, ws = partition_range_witnesses(args.D)
    print(_dump({
        "schema": SCHEMA_VERSION,
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
    p.add_argument("--pk", type=int, default=None)
    p.add_argument("--pki", type=int, default=None)
    p.add_argument("--imax", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify a norm bound exhaustively")
    p.add_argument("D", type=int)
    p.add_argument("--bound", choices=["ds", "hk10", "n", "n2"], required=True)
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
    except InternalError as exc:
        print(f"InternalError: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except QuadpartError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
