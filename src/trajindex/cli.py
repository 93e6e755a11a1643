"""Command-line front-end: build, query, stats, bench, verify.

Everything is deterministic given the same flags and inputs: JSON output
uses sorted keys, CSV columns are fixed per query type, and result
orderings follow the engine's canonical orders.  Exit codes: 0 success,
1 failure (build error, verification mismatch), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import shlex
import statistics
import sys
import time

from .engine import TrajectoryIndex
from .ingest import InstantLimitError, normalize, parse_binary, parse_csv
from .oracle import Oracle

QUERY_TYPES = ("object", "trajectory", "time-slice", "time-interval", "knn")

REQUIRED_FLAGS = {
    "object": ("id", "t"),
    "trajectory": ("id", "t-begin", "t-end"),
    "time-slice": ("x1", "y1", "x2", "y2", "t"),
    "time-interval": ("x1", "y1", "x2", "y2", "t-begin", "t-end"),
    "knn": ("k-nn", "px", "py", "t"),
}


def _add_build_flags(p):
    p.add_argument("--input", required=True, help="raw records file")
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--has-header", action="store_true", help="skip first CSV line")
    p.add_argument("--cell-size", type=float, default=1.0)
    p.add_argument("--time-step", type=float, default=1.0)
    p.add_argument("--speed-cap", type=float, default=None)
    p.add_argument("--gap", type=_gap, default=15, help="segment split threshold")
    p.add_argument("--period", type=int, required=True, help="instants per snapshot")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--side", type=int, default=None, help="grid side (power of k)")


def _add_query_flags(p):
    p.add_argument("--type", required=True, choices=QUERY_TYPES)
    p.add_argument("--id", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--t-begin", type=int)
    p.add_argument("--t-end", type=int)
    p.add_argument("--x1", type=int)
    p.add_argument("--y1", type=int)
    p.add_argument("--x2", type=int)
    p.add_argument("--y2", type=int)
    p.add_argument("--px", type=int)
    p.add_argument("--py", type=int)
    p.add_argument("--k-nn", type=int)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % value)
    return value


def _gap(text):
    value = int(text)
    try:
        float(value)  # normalize scales it by the time step
    except OverflowError:
        raise argparse.ArgumentTypeError("must be within float range") from None
    return value


def _parser():
    ap = argparse.ArgumentParser(
        prog="trajindex",
        description="Grammar-compressed trajectory index over gridded GPS data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="ingest raw records and write an index file")
    _add_build_flags(b)
    b.add_argument("--output", required=True, help="index file to write")

    q = sub.add_parser("query", help="run one query against an index file")
    q.add_argument("--index", required=True)
    _add_query_flags(q)
    q.add_argument("--out", choices=("csv", "json"), default="csv")

    s = sub.add_parser("stats", help="print size/shape statistics as JSON")
    s.add_argument("--index", required=True)

    be = sub.add_parser("bench", help="time a workload file, CSV to stdout")
    be.add_argument("--index", required=True)
    be.add_argument("--workload", required=True, help="one query per line")
    be.add_argument("--repeat", type=_positive_int, default=1)

    v = sub.add_parser("verify", help="compare the index against a brute-force scan")
    _add_build_flags(v)
    v.add_argument("--queries", type=_positive_int, default=100, help="queries per type")
    v.add_argument("--seed", type=int, default=0)
    return ap


def _require(ns):
    missing = [
        n for n in REQUIRED_FLAGS[ns.type] if getattr(ns, n.replace("-", "_")) is None
    ]
    if missing:
        raise ValueError(
            "query type %r needs %s" % (ns.type, ", ".join("--" + n for n in missing))
        )


def _run_query(index, ns, warn=True):
    """Dispatch one parsed query; returns (column names, list of rows)."""
    t_max = index.params.t_max
    side = index.params.side

    def check_extent(*instants):
        for t in instants:
            if warn and not 0 <= t <= t_max:
                print(
                    "warning: instant %d outside extent [0, %d]" % (t, t_max),
                    file=sys.stderr,
                )

    if ns.type == "object":
        _require(ns)
        check_extent(ns.t)
        pos = index.position_of(ns.id, ns.t)
        rows = [] if pos is None else [(ns.id, ns.t, pos[0], pos[1])]
        return ("id", "t", "x", "y"), rows
    if ns.type == "trajectory":
        _require(ns)
        check_extent(ns.t_begin, ns.t_end)
        rows = [(t, p[0], p[1]) for t, p in index.trajectory(ns.id, ns.t_begin, ns.t_end)]
        return ("t", "x", "y"), rows
    if ns.type == "time-slice":
        _require(ns)
        check_extent(ns.t)
        rows = [
            (oid, p[0], p[1])
            for oid, p in index.time_slice((ns.x1, ns.y1, ns.x2, ns.y2), ns.t)
        ]
        return ("id", "x", "y"), rows
    if ns.type == "time-interval":
        _require(ns)
        check_extent(ns.t_begin, ns.t_end)
        rows = [
            (oid,)
            for oid in index.time_interval(
                (ns.x1, ns.y1, ns.x2, ns.y2), ns.t_begin, ns.t_end
            )
        ]
        return ("id",), rows
    # knn
    _require(ns)
    check_extent(ns.t)
    if warn and not (0 <= ns.px < side and 0 <= ns.py < side):
        print(
            "warning: point (%d, %d) outside grid [0, %d)" % (ns.px, ns.py, side),
            file=sys.stderr,
        )
    rows = [
        (oid, "%.12g" % dist) for oid, dist in index.knn(ns.k_nn, (ns.px, ns.py), ns.t)
    ]
    return ("id", "distance"), rows


def _emit(columns, rows, out_format):
    if out_format == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(str(v) for v in row))


def _build_series(ns):
    if ns.format == "bin":
        with open(ns.input, "rb") as fh:
            records = parse_binary(fh.read())
    else:
        with open(ns.input, "r", encoding="utf-8") as fh:
            records = parse_csv(fh.read(), has_header=ns.has_header)
    return normalize(
        records,
        cell_size=ns.cell_size,
        time_step=ns.time_step,
        speed_cap=ns.speed_cap,
        gap_threshold=ns.gap,
    )


def _build_index(ns):
    series = _build_series(ns)
    index = TrajectoryIndex.build(series, ns.period, k=ns.k, side=ns.side)
    return series, index


def cmd_build(ns):
    _series, index = _build_index(ns)
    index.save(ns.output)
    print(json.dumps(index.stats(), indent=2, sort_keys=True))
    return 0


def cmd_query(ns, parser):
    index = TrajectoryIndex.load(ns.index)
    try:
        columns, rows = _run_query(index, ns)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    _emit(columns, rows, ns.out)
    return 0


def cmd_stats(ns):
    index = TrajectoryIndex.load(ns.index)
    print(json.dumps(index.stats(), indent=2, sort_keys=True))
    return 0


def cmd_bench(ns):
    index = TrajectoryIndex.load(ns.index)
    qp = argparse.ArgumentParser(prog="workload", add_help=False)
    _add_query_flags(qp)
    with open(ns.workload, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    queries = []
    for no, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        try:
            qns = qp.parse_args(shlex.split(line))
            _require(qns)
        except (SystemExit, ValueError) as exc:
            print(
                "workload line %d: cannot parse %r (%s)" % (no, line, exc),
                file=sys.stderr,
            )
            return 1
        queries.append(qns)
    print("loaded %d queries" % len(queries), file=sys.stderr)
    by_type = {}
    for qns in queries:
        by_type.setdefault(qns.type, []).append(qns)
    print("type,queries,repeat,results,mean_ms,median_ms,p95_ms")
    for qtype in QUERY_TYPES:
        batch = by_type.get(qtype)
        if not batch:
            continue
        times = []
        results = 0
        for _rep in range(ns.repeat):
            results = 0
            for qns in batch:
                t0 = time.perf_counter()
                _cols, rows = _run_query(index, qns, warn=False)
                times.append((time.perf_counter() - t0) * 1000.0)
                results += len(rows)
        times.sort()
        p95 = times[min(len(times) - 1, int(len(times) * 0.95))]
        print(
            "%s,%d,%d,%d,%.4f,%.4f,%.4f"
            % (
                qtype,
                len(batch),
                ns.repeat,
                results,
                statistics.fmean(times),
                statistics.median(times),
                p95,
            )
        )
    return 0


def _random_region(rng, side):
    x1 = rng.randrange(side)
    y1 = rng.randrange(side)
    x2 = min(side - 1, x1 + rng.randrange(max(side // 4, 1)))
    y2 = min(side - 1, y1 + rng.randrange(max(side // 4, 1)))
    return (x1, y1, x2, y2)


def _verify_queries(rng, n, ids, index_params):
    """``n`` queries of each type, drawn from ``rng`` in a fixed order, as
    (type, params, method name, args); the index and the oracle share each
    method's name and signature."""
    t_max, side, period = index_params.t_max, index_params.side, index_params.period

    def window():
        t0 = rng.randrange(t_max + 1)
        return t0, min(t_max, t0 + rng.randrange(3 * period + 1))

    for _ in range(n):
        oid, t = rng.choice(ids), rng.randrange(t_max + 1)
        yield "object", {"id": oid, "t": t}, "position_of", (oid, t)
    for _ in range(n):
        oid, (t0, t1) = rng.choice(ids), window()
        yield "trajectory", {"id": oid, "t_begin": t0, "t_end": t1}, "trajectory", (oid, t0, t1)
    for _ in range(n):
        region, t = _random_region(rng, side), rng.randrange(t_max + 1)
        yield "time-slice", {"region": region, "t": t}, "time_slice", (region, t)
    for _ in range(n):
        region, (t0, t1) = _random_region(rng, side), window()
        params = {"region": region, "t_begin": t0, "t_end": t1}
        yield "time-interval", params, "time_interval", (region, t0, t1)
    for _ in range(n):
        count = 1 + rng.randrange(10)
        point = (rng.randrange(side), rng.randrange(side))
        t = rng.randrange(t_max + 1)
        yield "knn", {"count": count, "point": point, "t": t}, "knn", (count, point, t)


def _same(qtype, got, want):
    if qtype != "knn":
        return got == want
    return len(got) == len(want) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= 1e-9 for g, w in zip(got, want)
    )


def cmd_verify(ns):
    series, index = _build_index(ns)
    oracle = Oracle(series)
    ids = [int(v) for v in index.ids]
    if not ids:
        print("PASS 5x%d (empty dataset)" % ns.queries)
        return 0
    queries = _verify_queries(random.Random(ns.seed), ns.queries, ids, index.params)
    for qtype, params, method, args in queries:
        got = getattr(index, method)(*args)
        want = getattr(oracle, method)(*args)
        if not _same(qtype, got, want):
            print(
                "FAIL %s %r seed=%d\n  expected: %r\n  got:      %r"
                % (qtype, params, ns.seed, want, got)
            )
            return 1
    print("PASS 5x%d" % ns.queries)
    return 0


def main(argv=None):
    parser = _parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "build":
            return cmd_build(ns)
        if ns.command == "query":
            return cmd_query(ns, parser)
        if ns.command == "stats":
            return cmd_stats(ns)
        if ns.command == "bench":
            return cmd_bench(ns)
        return cmd_verify(ns)
    except InstantLimitError as exc:  # --gap or --time-step asks for too much
        parser.error(str(exc))  # exits 2
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
