"""Per-layer tracing by wrapping the public functions of each layer.

The wrappers are installed from outside the program (``src/`` is never
edited) and only for the traced run.  Each wrapped call opens a frame;
when the wrapper returns, the whole time spent in it, the tracer's own
bookkeeping included, is charged to the enclosing frame.  So a frame's self
time is its duration minus the time its wrapped children took, and holds
none of the tracer's per-call cost for those children.  Per call the tracer
keeps:

* counts -- calls, and items produced (list length or values yielded),
  keyed by metric name and the type of the query being answered;
* inclusive time per layer -- the outermost call of a layer only, so a
  layer calling itself (``rank0`` -> ``rank1``) is not counted twice; it
  holds the tracer's cost for the wrapped calls nested in that call;
* self time of the query roots and of ``TrajectoryIndex.build``;
* a span ``(name, start, end, parent span, query id)`` for every call that
  is not on a per-symbol hot path (queries, build and load phases,
  snapshot calls, log anchors).  Hot accessors are aggregated only, which
  keeps the span list to a few entries per query.

Spans stay in memory until ``Tracer.write_spans`` is called at the end.
Generators (log cursors, best-first k2-tree walks) are timed per ``next()``
call.
"""

import json
import time
from collections import Counter

from trajindex import engine, ingest, spiral
from trajindex.bits import BitVector, DacSequence, Permutation
from trajindex.engine import TrajectoryIndex
from trajindex.grammar import RuleDictionary
from trajindex.k2tree import K2Tree
from trajindex.logs import LogStore
from trajindex.snapshot import Snapshot

_clock = time.perf_counter

class _Frame:
    __slots__ = ("layer", "start", "child", "span")

    def __init__(self, layer, start, span):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1, query id)
        self.calls = Counter()  # (metric, query type or None) -> calls
        self.items = Counter()  # (metric, query type or None) -> items
        self.time = Counter()  # (layer, query type or None) -> seconds
        self.self_time = Counter()  # (name, query type or None) -> seconds
        self.queries = Counter()  # query type -> queries traced
        self.qid = -1
        self.qtype = None
        self._stack = []
        self._depth = Counter()  # layer -> open frames of that layer
        self._patches = []

    # -- frames ------------------------------------------------------------

    def _open(self, name, layer, keep_span):
        span = None
        if keep_span:
            span = len(self.spans)
            parent = next(
                (f.span for f in reversed(self._stack) if f.span is not None), -1
            )
            self.spans.append([name, 0.0, 0.0, parent, self.qid])
        self._depth[layer] += 1
        frame = _Frame(layer, _clock(), span)
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = _clock()
        dur = end - frame.start
        self._stack.pop()
        self._depth[frame.layer] -= 1
        if not self._depth[frame.layer]:
            self.time[frame.layer, self.qtype] += dur
        if frame.span is not None:
            self.spans[frame.span][1] = frame.start
            self.spans[frame.span][2] = end
        return dur - frame.child

    def _charge(self, entry):
        """Charge a wrapper's whole time since ``entry`` to the enclosing frame."""
        if self._stack:
            self._stack[-1].child += _clock() - entry

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def timed(self, owner, attr, metric, layer=None, keep_span=False, items=None,
              classify=None, self_metric=None):
        """Wrap a function: count calls and time them under ``layer``
        (default: the metric name); optionally count items
        (``items(result)``) and classify calls (``classify(args)`` names a
        metric counted once per call)."""
        tracer = self
        layer = layer or metric

        def make(fn):
            def wrapper(*args, **kwargs):
                entry = _clock()
                frame = tracer._open(metric, layer, keep_span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self_dur = tracer._close(frame)
                qt = tracer.qtype
                tracer.calls[metric, qt] += 1
                if self_metric is not None:
                    tracer.self_time[self_metric, qt] += self_dur
                if items is not None:
                    tracer.items[metric, qt] += items(result)
                if classify is not None:
                    tracer.calls[classify(args), qt] += 1
                tracer._charge(entry)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def timed_generator(self, owner, attr, metric, layer):
        """Wrap a generator function: time every ``next()``, count items."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[metric, tracer.qtype] += 1
                it = fn(*args, **kwargs)
                while True:
                    entry = _clock()
                    frame = tracer._open(metric, layer, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                        tracer._charge(entry)
                    tracer.items[metric, tracer.qtype] += 1
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    def counted(self, owner, attr, metric, when=None):
        """Wrap a function with a call counter and no frame of its own; its
        time is charged to the enclosing frame as a child's.
        ``when(result)`` restricts counting to some outcomes."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                entry = _clock()
                result = fn(*args, **kwargs)
                if when is None or when(result):
                    tracer.calls[metric, tracer.qtype] += 1
                tracer._charge(entry)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def root(self, owner, attr, qtype, answers, symbols):
        """Wrap a query method: one span per query, with its self time,
        answer count and engine symbol counter delta."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.qid += 1
                tracer.qtype = qtype
                tracer.queries[qtype] += 1
                before = symbols()
                frame = tracer._open("engine." + qtype, "engine", True)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self_dur = tracer._close(frame)
                    tracer.qtype = None
                tracer.self_time["engine.self", qtype] += self_dur
                tracer.items["engine.symbols", qtype] += symbols() - before
                tracer.items["engine.answers", qtype] += answers(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "query": qid}
                    )
                    + "\n"
                )


def _sym_span(rules, sym):
    return 1 if sym < rules.nt_base else int(rules.span[sym - rules.nt_base])


def install_build(tracer):
    """Setup path: parse, normalize, build (and its phases), serialize."""
    tracer.timed(ingest, "parse_csv", "ingest.parse_csv", keep_span=True)
    tracer.timed(ingest, "normalize", "ingest.normalize", keep_span=True)
    tracer.timed(TrajectoryIndex, "build", "engine.build", keep_span=True,
                 self_metric="engine.build_self")
    tracer.timed(engine, "repair_compress", "grammar.repair", keep_span=True)
    tracer.timed(RuleDictionary, "build", "grammar.enrich", keep_span=True)
    tracer.timed(Snapshot, "build", "snapshot.build", keep_span=True)
    tracer.timed(TrajectoryIndex, "to_bytes", "serial.to_bytes", keep_span=True)


def install_load(tracer):
    """Load path: ``from_bytes`` and its costly constructors."""
    tracer.timed(TrajectoryIndex, "from_bytes", "serial.from_bytes", keep_span=True)
    tracer.timed(DacSequence, "to_list", "bits.dac_decode")
    tracer.timed(Permutation, "__init__", "bits.perm_init")
    tracer.timed(LogStore, "__init__", "logs.store_init", keep_span=True)


def install_queries(tracer, index, methods):
    """Query path: the query methods (``methods`` maps query type to method
    name) and every layer below them."""
    counters = index.counters
    rules = index.rules

    def symbols():
        return sum(counters.values())

    answer_counts = {
        "object": lambda r: 0 if r is None else 1,
    }
    for qtype, attr in methods.items():
        answers = answer_counts.get(qtype, len)
        tracer.root(TrajectoryIndex, attr, qtype, answers, symbols)

    # logs: cursors, whole-rule moves, terminal expansion, anchors
    for attr in ("elements", "elements_backward"):
        tracer.timed_generator(LogStore, attr, "logs.elements", "logs.cursor")

    # a move is applied whole when the symbol's span fits before the limit
    def jump_kind(args):
        _d, _p, t_c, t_e, sym = args
        whole = t_c + _sym_span(rules, sym) <= t_e
        return "logs.jumps" if whole else "logs.descents"

    def back_kind(args):
        _d, _p, t_floor, t_c, sym = args
        whole = t_c - _sym_span(rules, sym) >= t_floor
        return "logs.jumps" if whole else "logs.descents"

    tracer.timed(engine, "move_jump", "logs.move_jump", "logs.move", classify=jump_kind)
    tracer.timed(engine, "move_back", "logs.move_back", "logs.move", classify=back_kind)
    tracer.timed(engine, "move_steps", "logs.step_terminals", "logs.move",
                 keep_span=True, items=len)
    tracer.timed(LogStore, "first_anchor", "logs.anchor", "logs.anchor", keep_span=True)
    tracer.timed(LogStore, "last_anchor", "logs.anchor", "logs.anchor", keep_span=True)

    # grammar: checked per-symbol accessors
    for attr in ("span_of", "disp_of", "mbr_of", "pair_of"):
        tracer.timed(RuleDictionary, attr, "grammar.accessor", "grammar.accessor")

    # snapshot, k2-tree, bits
    tracer.timed(Snapshot, "objects_in_region", "snapshot.candidates", "snapshot",
                 keep_span=True, items=len)
    tracer.timed_generator(Snapshot, "candidates_by_distance", "snapshot.candidates",
                           "snapshot")
    tracer.timed(K2Tree, "range_report", "k2tree.nodes", "k2tree", items=len)
    tracer.timed_generator(K2Tree, "nodes_by_distance", "k2tree.nodes", "k2tree")
    tracer.timed(K2Tree, "locate", "k2tree.nodes", "k2tree", items=lambda r: 1)
    for owner, attrs in ((BitVector, ("rank1", "rank0", "select1", "select0")),
                         (Permutation, ("apply", "inverse"))):
        for attr in attrs:
            tracer.timed(owner, attr, "bits.rank_select", "bits")

    # spiral decoding and the engine's MBR tests
    tracer.counted(spiral, "decode", "spiral.decode")
    tracer.counted(engine, "regions_intersect", "engine.mbr_pruned",
                   when=lambda r: not r)
