"""trajindex benchmark: build, load, size and per-query latency.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload walk-d720 --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client.  Per workload it

1. generates the seeded dataset and renders it as ``id,time,x,y`` CSV text;
2. builds the index the way ``trajindex build`` does (parse_csv ->
   normalize with the CLI defaults -> TrajectoryIndex.build -> to_bytes),
   several times, and reports the median as ``setup_s``;
3. loads the bytes back with ``from_bytes`` and, in a separate untimed
   pass, measures with ``tracemalloc`` the bytes the loaded index retains;
4. draws a fixed list of queries (QUERY_ROUNDS rounds of one query of each
   type) from one seeded, shuffled stream mixing the five query types, and
   answers it against the loaded index in passes, as one closed-loop
   client, until the queries have taken ``--seconds`` seconds (``--trace
   0``); or answers its first TRACE_ROUNDS rounds once untraced and once
   traced (``--trace 1``; the ratio of the two pass times, minus one, is
   ``trace.overhead_frac``);
5. checks every answer against the brute-force ``Oracle`` built from the
   normalized series, outside the timed region (kNN distances to 1e-9),
   and every repeated execution against the first.

Timings and host speed.  The collector stays on.  ``query_mix_qps`` is
the closed-loop rate, executions over the time spent in them, and the
latency percentiles of a type are Harrell-Davis estimates (``hd_quantile``)
over all its executions in the run.  On a shared host the speed of a CPU
drifts by 20-40% from one run to the next, for all code alike.  So the
times of the query phase are scaled to a nominal host speed: about every
REF_EVERY_S of query time the run also times a fixed piece of interpreter
work (``reference_work``), and the latencies and ``load_s`` are multiplied
by REF_NOMINAL_S over its mean time (the rate is divided by it).  The
unscaled figures and the factor are printed above the JSON line.
``load_s`` is the median of the loads timed about once a second between
queries, each after a full collection.  ``setup_s`` is the median of
SETUP_REPS builds, unscaled: reference samples taken between builds
follow the host's speed during the builds less well than the builds'
own median does.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the failed fraction:
queries whose answer differs from the oracle or that raised.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see ``tracing.py``; ``*_ms.<type>`` and counts are per query
of that type; times other than ``engine.self_ms`` include nested layers).
The traced run writes its spans to ``.perfbench_out/`` at the checkout root.
"""

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from workloads import WORKLOADS, grid_side, query_stream, render_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
PAUSE_EVERY_S = 1.0  # how often the timed run times a load
REF_EVERY_S = 0.02  # query time between two samples of the reference work
# mean time of ``reference_work`` on a 2-vCPU Xeon (Sapphire Rapids) KVM
# guest, so that scaled figures read as that host's seconds
REF_NOMINAL_S = 0.6e-3
# Rounds (one query of each type) in a run's fixed query list, at least
# 200 so that ten distinct queries of a type lie beyond its p95.  One pass
# over the list takes about 30 s on walk-d720 and 3-4 s on the others on a
# 2-CPU x86 host, so walk-d720 answers each query about once in a 30-second
# run and the others about ten times.  The traced run answers the first
# TRACE_ROUNDS rounds only, as the tracer makes queries two to four times
# slower.
QUERY_ROUNDS = {"walk-d720": 200, "appear-d30": 1000, "routes-d120": 1000}
TRACE_ROUNDS = {"walk-d720": 40, "appear-d30": 250, "routes-d120": 250}

# the ``trajindex build`` defaults: --cell-size 1 --time-step 1 --gap 15
CLI_NORMALIZE = {
    "cell_size": 1.0, "time_step": 1.0, "speed_cap": None, "gap_threshold": 15
}

METHODS = {
    "object": "position_of",
    "trajectory": "trajectory",
    "slice": "time_slice",
    "interval": "time_interval",
    "knn": "knn",
}


def _fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import trajindex from this checkout's ``src`` only."""
    if not (SRC / "trajindex" / "__init__.py").is_file():
        _fail("no trajindex sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import trajindex

    if Path(trajindex.__file__).resolve().parent != SRC / "trajindex":
        _fail("imported trajindex from %s, not from %s" % (trajindex.__file__, SRC))
    return trajindex


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    return ns


# ---------------------------------------------------------------------------
# setup, load, memory
# ---------------------------------------------------------------------------


def setup(tj, csv_text, period, side):
    """The ``trajindex build`` write path; returns (index, file bytes)."""
    records = tj.ingest.parse_csv(csv_text)
    series = tj.ingest.normalize(records, **CLI_NORMALIZE)
    index = tj.TrajectoryIndex.build(series, period, k=2, side=side)
    return index, index.to_bytes()


def retained_bytes(tj, blob):
    """Bytes allocated by ``from_bytes`` and still held by its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = tj.TrajectoryIndex.from_bytes(blob)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del index
    return after - before


def numpy_bytes(root, stop=()):
    """Sum of ``nbytes`` over the numpy arrays reachable from ``root``
    through instance attributes and containers, not entering ``stop``."""
    seen = {id(s) for s in stop}
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return total


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def reference_work():
    """A fixed piece of interpreter work of the kind the program does: dict
    updates, integer arithmetic and a sort."""
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + 3 * i
    return sorted(counts.values())


class HostSpeed:
    """Mean time of ``reference_work`` over a run, sampled between queries."""

    def __init__(self):
        self.total = 0.0
        self.samples = 0

    def sample(self):
        gc.disable()  # a collection here would charge the program's heap
        t0 = time.perf_counter()
        reference_work()
        self.total += time.perf_counter() - t0
        gc.enable()
        self.samples += 1

    def scale(self):
        """Factor that brings a time measured in this run to nominal speed."""
        return REF_NOMINAL_S * self.samples / self.total


# ---------------------------------------------------------------------------
# query stream
# ---------------------------------------------------------------------------


class Answers:
    """Per-query outcome of one or more passes over a fixed query list."""

    def __init__(self, queries):
        self.queries = queries
        self.answers = [None] * len(queries)
        self.errors = [None] * len(queries)
        self.times = {qtype: [] for qtype in METHODS}  # seconds per execution
        self.answered = 0  # queries of the list executed at least once
        self.executions = 0  # query calls, those that raised included
        self.busy = 0.0  # seconds spent inside queries


def run_passes(index, queries, seconds=None, pause=None, host=None):
    """Answer a fixed query list in passes, one query at a time.

    With ``seconds``, passes repeat until the queries have taken that long,
    stopping at the end of a round (five queries, one of each type); about
    once a second ``pause`` is called, and about every REF_EVERY_S of query
    time ``host`` is sampled, neither of them timed.  Without, one pass
    runs.  Every later execution of a query must give the first
    execution's answer, or the query counts as failed.
    """
    clock = time.perf_counter
    out = Answers(queries)
    gc.collect()
    next_pause = clock() + PAUSE_EVERY_S
    next_ref = 0.0
    n_pass = 0
    while True:
        for i, (qtype, args) in enumerate(queries):
            fn = getattr(index, METHODS[qtype])
            t0 = clock()
            try:
                answer, error = fn(*args), None
            except Exception as exc:  # counted as a failed query
                answer, error = None, exc
            t1 = clock()
            out.busy += t1 - t0
            out.executions += 1
            out.answered = max(out.answered, i + 1)
            if error is not None:
                out.errors[i] = error
            else:
                out.times[qtype].append(t1 - t0)
                if n_pass == 0:
                    out.answers[i] = answer
                elif answer != out.answers[i] and out.errors[i] is None:
                    out.errors[i] = "answer changed on a later pass: %r" % (answer,)
            if seconds is None:
                continue
            if out.busy >= seconds and i % 5 == 4:
                return out
            if host is not None and out.busy >= next_ref:
                host.sample()
                next_ref = out.busy + REF_EVERY_S
            if pause is not None and t1 >= next_pause:
                pause()
                next_pause = clock() + PAUSE_EVERY_S
        n_pass += 1
        if seconds is None:
            return out


def _same(qtype, got, want):
    if qtype != "knn":
        return got == want
    return len(got) == len(want) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= 1e-9 for g, w in zip(got, want)
    )


def check(result, oracle):
    """Number of queries that raised or whose answer differs from the oracle."""
    failed = 0
    n = result.answered
    outcomes = zip(result.queries[:n], result.answers[:n], result.errors[:n])
    for (qtype, args), answer, error in outcomes:
        want = getattr(oracle, METHODS[qtype])(*args)
        if error is None and _same(qtype, answer, want):
            continue
        if not failed:
            print(
                "first failure: %s%r\n  expected: %r\n  got:      %r"
                % (qtype, args, want, error if error is not None else answer)
            )
        failed += 1
    return failed


def hd_quantile(sorted_values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  Unlike a single order
    statistic it does not jump when a few samples swap places, which keeps
    the tail of a few hundred samples steady."""
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf)
    return float(np.dot(np.diff(edges), sorted_values))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _metric(out, name, value, unit):
    out[name] = {"value": value, "unit": unit}


class Inputs:
    """A workload's seeded dataset as CSV text, the oracle built from its
    normalized series, and the run's fixed query list (QUERY_ROUNDS rounds,
    after one warm-up round that is answered untimed)."""

    def __init__(self, tj, workload, seed):
        self.seed = seed
        raw = workload.make(seed)
        self.csv = render_csv(raw)
        self.side = grid_side(raw, workload.grid)
        self.records = self.csv.count("\n")
        series = tj.ingest.normalize(tj.ingest.parse_csv(self.csv), **CLI_NORMALIZE)
        self.oracle = tj.Oracle(series)
        self.ids = sorted(series)
        stream = query_stream(
            seed, self.ids, self.oracle.t_max, self.side, workload.period
        )
        rounds = max(QUERY_ROUNDS[workload.name], TRACE_ROUNDS[workload.name])
        queries = [next(stream) for _ in range(5 * (rounds + 1))]
        self.warm, self.queries = queries[:5], queries[5:]


def run_end_to_end(tj, workload, inputs, seconds):
    period = workload.period
    setup_times, blobs = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        built, blob = setup(tj, inputs.csv, period, inputs.side)
        setup_times.append(time.perf_counter() - t0)
        blobs.append(blob)
    blob = blobs[0]
    deterministic = all(b == blob for b in blobs)
    print("raw symbols: %d" % built.params.raw_symbols)
    del built, blobs

    load_times = []

    def load():
        gc.collect()
        t0 = time.perf_counter()
        loaded = tj.TrajectoryIndex.from_bytes(blob)
        load_times.append(time.perf_counter() - t0)
        return loaded

    mem = retained_bytes(tj, blob)
    # The inputs and the oracle stay alive for the check; frozen, they are
    # left out of the collections that the loads and queries trigger.
    gc.collect()
    gc.freeze()
    try:
        index = load()
        round_trip = index.to_bytes() == blob
        run_passes(index, inputs.warm)
        host = HostSpeed()
        result = run_passes(index, inputs.queries, seconds, load, host)
    finally:
        gc.unfreeze()
    failed = check(result, inputs.oracle)
    scale = host.scale()
    setup_s = statistics.median(setup_times)
    load_s = statistics.median(load_times)
    qps = result.executions / result.busy
    print("executions: %d, of %d queries; loads: %d" % (
        result.executions, result.answered, len(load_times)))
    print("host: %d reference samples, mean %.6f s, scale %.4f" % (
        host.samples, host.total / host.samples, scale))
    print("unscaled: load_s %.6f, query_mix_qps %.3f" % (load_s, qps))
    if not deterministic:
        print("setup is not deterministic: repeated builds gave different bytes")
    if not round_trip:
        print("from_bytes(blob).to_bytes() differs from blob")

    m = {}
    _metric(m, "setup_s", setup_s, "s")
    _metric(m, "load_s", load_s * scale, "s")
    _metric(m, "file_bytes", len(blob), "B")
    _metric(m, "mem_bytes", mem, "B")
    _metric(m, "query_mix_qps", qps / scale, "1/s")
    for qtype in METHODS:
        # a query that raised has no latency; it counts in ``failed``
        lat = sorted(t * 1e3 * scale for t in result.times[qtype]) or [0.0]
        print("latency samples %s: %d" % (qtype, len(lat)))
        _metric(m, "%s_p50_ms" % qtype, hd_quantile(lat, 0.5), "ms")
        _metric(m, "%s_p95_ms" % qtype, hd_quantile(lat, 0.95), "ms")
    print("failed_frac: %.6f" % (failed / result.answered))
    correct = deterministic and round_trip and failed == 0
    return correct, result.answered, failed, m


def run_traced(tj, workload, inputs):
    import tracing

    period = workload.period
    tracer = tracing.Tracer()
    tracing.install_build(tracer)
    try:
        built, blob = setup(tj, inputs.csv, period, inputs.side)
    finally:
        tracer.uninstall()
    stats = built.stats()
    print("raw symbols: %d" % stats["raw_symbols"])
    del built

    tracing.install_load(tracer)
    try:
        index = tj.TrajectoryIndex.from_bytes(blob)
    finally:
        tracer.uninstall()
    round_trip = index.to_bytes() == blob

    queries = inputs.queries[:5 * TRACE_ROUNDS[workload.name]]
    run_passes(index, inputs.warm)
    plain = run_passes(index, queries)
    tracing.install_queries(tracer, index, METHODS)
    try:
        traced = run_passes(index, queries)
    finally:
        tracer.uninstall()
    failed = check(plain, inputs.oracle) + check(traced, inputs.oracle)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / "spans-{}-seed{}.jsonl".format(workload.name, inputs.seed)
    tracer.write_spans(span_file)
    print("spans: %d written to %s" % (len(tracer.spans), span_file))

    m = {}
    for name in ("ingest.parse_csv", "ingest.normalize", "grammar.repair",
                 "grammar.enrich", "snapshot.build", "serial.to_bytes",
                 "bits.dac_decode", "bits.perm_init", "logs.store_init"):
        _metric(m, name + "_s", tracer.time[name, None], "s")
    _metric(m, "engine.build_self_s", tracer.self_time["engine.build_self", None], "s")
    _metric(m, "snapshot.builds", tracer.calls["snapshot.build", None], "count")
    for key in ("raw_symbols", "compressed_symbols", "rules"):
        _metric(m, "grammar." + key, stats[key], "count")
    for part in ("snapshots", "log_streams", "log_events", "dictionary"):
        _metric(m, "serial.bytes." + part, stats["bytes"][part], "B")
    _metric(m, "snapshot.mem_bytes", numpy_bytes(index.snapshots), "B")
    _metric(m, "logs.mem_bytes", numpy_bytes(index.logs, stop=(index.rules,)), "B")
    _metric(m, "grammar.mem_bytes", numpy_bytes(index.rules), "B")
    _metric(m, "trace.overhead_frac", traced.busy / plain.busy - 1.0, "ratio")
    for qtype in METHODS:
        for name, unit, value in per_query_metrics(tracer, qtype):
            _metric(m, "%s.%s" % (name, qtype), value, unit)
    attempted = 2 * len(queries)
    print("failed_frac: %.6f" % (failed / attempted))
    return round_trip and failed == 0, attempted, failed, m


# Per-query-type metrics that are zero by construction are left out:
# trajectory has no engine symbol counter, interval scans rules itself
# (no move_jump/move_back), object and trajectory use no region or
# snapshot candidate list, and only slice and interval test rule MBRs.
PER_QUERY = (
    # (metric, unit, tracer table, key, scale, query types)
    ("engine.self_ms", "ms", "self_time", "engine.self", 1e3, None),
    ("engine.symbols", "count", "items", "engine.symbols", 1,
     ("object", "slice", "interval", "knn")),
    ("engine.answers", "count", "items", "engine.answers", 1, None),
    ("engine.mbr_pruned", "count", "calls", "engine.mbr_pruned", 1,
     ("slice", "interval")),
    ("logs.elements", "count", "items", "logs.elements", 1, None),
    ("logs.cursor_ms", "ms", "time", "logs.cursor", 1e3, None),
    ("logs.jumps", "count", "calls", "logs.jumps", 1,
     ("object", "trajectory", "slice", "knn")),
    ("logs.descents", "count", "calls", "logs.descents", 1,
     ("object", "trajectory", "slice", "knn")),
    ("logs.step_terminals", "count", "items", "logs.step_terminals", 1,
     ("trajectory",)),
    ("logs.anchor_calls", "count", "calls", "logs.anchor", 1, None),
    ("grammar.accessor_calls", "count", "calls", "grammar.accessor", 1, None),
    ("grammar.accessor_ms", "ms", "time", "grammar.accessor", 1e3, None),
    ("snapshot.candidates", "count", "items", "snapshot.candidates", 1,
     ("slice", "interval", "knn")),
    ("k2tree.nodes", "count", "items", "k2tree.nodes", 1, None),
    ("k2tree.ms", "ms", "time", "k2tree", 1e3, None),
    ("bits.rank_select_calls", "count", "calls", "bits.rank_select", 1, None),
    ("bits.ms", "ms", "time", "bits", 1e3, None),
    ("spiral.decode_calls", "count", "calls", "spiral.decode", 1, None),
)


def per_query_metrics(tracer, qtype):
    """(name, unit, value) per query of ``qtype``, averaged over the run."""
    n = max(tracer.queries[qtype], 1)
    for name, unit, table, key, scale, types in PER_QUERY:
        if types is None or qtype in types:
            yield name, unit, getattr(tracer, table)[key, qtype] * scale / n
    if qtype in ("slice", "interval", "knn"):
        cands = tracer.items["snapshot.candidates", qtype]
        answers = tracer.items["engine.answers", qtype]
        yield "engine.candidate_yield", "ratio", answers / cands if cands else 0.0


def main(argv=None):
    ns = _args(argv)
    tj = _import_program()
    workload = WORKLOADS[ns.workload]
    inputs = Inputs(tj, workload, ns.seed)
    print(
        "input %s seed %d: %d objects, %d records, t_max %d, grid %d, period %d"
        % (workload.name, ns.seed, len(inputs.ids), inputs.records,
           inputs.oracle.t_max, inputs.side, workload.period)
    )
    if ns.trace:
        outcome = run_traced(tj, workload, inputs)
    else:
        outcome = run_end_to_end(tj, workload, inputs, ns.seconds)
    correct, attempted, failed, metrics = outcome
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
