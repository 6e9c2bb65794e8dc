"""Benchmark-owned child: decide value_attained(D, m) for a list of pairs.

Usage: python decide.py '<json list of [D, m]>' <timeout seconds per decision>

Prints one JSON line per pair, flushed as soon as the pair is decided, so
that a parent that kills this process still sees every finished decision:

    {"D": 109, "m": 20, "ok": false, "a": "", "b": "", "s": 2.21}
    {"D": 94, "m": 40, "error": "timeout", "s": 20.0}

Only the public library API is used.  A decision that runs past its timeout
is interrupted by SIGALRM and reported as an error; the next pair still runs.
"""

import json
import signal
import sys
import time

from quadpart import value_attained


class DecisionTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise DecisionTimeout()


def main() -> int:
    pairs = json.loads(sys.argv[1])
    limit = float(sys.argv[2])
    signal.signal(signal.SIGALRM, _on_alarm)
    for d, m in pairs:
        row = {"D": d, "m": m}
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            ok, w = value_attained(d, m)
            signal.setitimer(signal.ITIMER_REAL, 0)
            row.update(ok=ok, a=str(w.a) if w is not None else "",
                       b=str(w.b) if w is not None else "")
        except DecisionTimeout:
            row["error"] = "timeout"
        except Exception as exc:  # report and go on with the next pair
            signal.setitimer(signal.ITIMER_REAL, 0)
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["s"] = time.perf_counter() - t0
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
