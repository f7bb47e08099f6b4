"""Per-kind latencies of the benchmark's `session` streams, in process.

    python3 tools/session_tail.py SEED [STREAMS] [--top LEVEL]

Run it from the root of a checkout.  It imports `perfbench/run.py`,
`perfbench/session.py` and `perfbench/unit.py` without changing them, and
builds the streams the `session` workload draws for SEED (stream i from
seed SEED * 12 + i, i < STREAMS, 12 by default, up to index level LEVEL,
12 by default).  Each stream runs in a fresh interpreter, one at a time,
so every stream starts from cold stores as a benchmark unit does; each
query is one call of `unit.answer`, the benchmark's own, timed alone.

It prints one line per (kind, route, new or revisit), where route is the
y1star route, "level" for the level-step `phi_series` fill that opens
each level, and "-" otherwise, and a query is new at its first occurrence
in its stream: the count, the median in microseconds, the count above the
p90 pooled over all queries of all streams, the count in
[0.6 p90, p90] and the count at or below the pooled p50.  The last line
gives the pooled p50 and p90.  Timings are this host's, without the
benchmark's host-speed scaling.
"""

from __future__ import annotations

import argparse
import multiprocessing
from pathlib import Path
import statistics
import sys
import time

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

_argv, sys.argv = sys.argv, [sys.argv[0], str(time.monotonic())]
try:
    # unit.py reads the parent's spawn time from argv when it is imported
    import run  # noqa: E402
    import session  # noqa: E402
    import unit  # noqa: E402
finally:
    sys.argv = _argv


def groups(queries: list[list]) -> list[tuple[str, str, str]]:
    """(kind, route, "new" or "revisit") of each query of a stream; each
    level opens with its fill (session.make_queries)."""
    seen = set()
    out = []
    for index, query in enumerate(queries):
        text = repr(query)
        age = "revisit" if text in seen else "new"
        seen.add(text)
        if query[0] in ("y1star", "y1star_at"):
            route = query[3]
        elif index % session.PER_LEVEL == 0:
            route = "level"
        else:
            route = "-"
        out.append((query[0], route, age))
    return out


def run_stream(queries: list[list]) -> list[float]:
    """The seconds of each query of one stream, in order."""
    clock = time.perf_counter
    out = []
    for query in queries:
        decoded = session.decode(query)
        t0 = clock()
        unit.answer(decoded)
        out.append(clock() - t0)
    return out


def table(timed: list[tuple[tuple, float]]) -> list[str]:
    """The report lines of the module docstring."""
    p50, p90 = (run.quantile([s for _, s in timed], q) for q in (50, 90))
    by_group: dict[tuple, list[float]] = {}
    for group, seconds in timed:
        by_group.setdefault(group, []).append(seconds)
    lines = [f"{'kind':<10}{'route':<7}{'age':<8}{'count':>6}"
             f"{'median_us':>11}{'>p90':>6}{'near':>6}{'<=p50':>7}"]
    for group in sorted(by_group):
        values = by_group[group]
        above = sum(1 for s in values if s > p90)
        near = sum(1 for s in values if 0.6 * p90 <= s <= p90)
        low = sum(1 for s in values if s <= p50)
        kind, route, age = group
        lines.append(f"{kind:<10}{route:<7}{age:<8}{len(values):>6}"
                     f"{statistics.median(values) * 1e6:>11.1f}"
                     f"{above:>6}{near:>6}{low:>7}")
    lines.append(f"{len(timed)} queries, pooled p50 {p50 * 1e3:.5f} ms, "
                 f"p90 {p90 * 1e3:.5f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("streams", type=int, nargs="?",
                        default=run.Session.STREAMS)
    parser.add_argument("--top", type=int, default=12,
                        help="the highest index level (default 12)")
    args = parser.parse_args(argv)
    if args.streams < 1 or args.top < 2:
        parser.error("STREAMS must be at least 1 and --top at least 2")
    streams = [session.make_queries(args.seed * run.Session.STREAMS + i,
                                    args.top) for i in range(args.streams)]
    # one fresh interpreter per stream, one at a time
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, maxtasksperchild=1) as pool:
        timed = [pair for queries, seconds
                 in zip(streams, pool.map(run_stream, streams, 1))
                 for pair in zip(groups(queries), seconds)]
    print("\n".join(table(timed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
