"""Release gate: seven end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``.  Each test prints its
verdict directly to the terminal (bypassing capture) and then asserts, so
a red run still shows the full scoreboard.
"""

import math
import random
import time
import zlib

import numpy as np
import pytest

from trajindex import Oracle, TrajectoryIndex
from trajindex import spiral
from trajindex.bits import BitVector, DacSequence, Permutation
from trajindex.geometry import expanded_region
from trajindex.grammar import MOVE_BASE, RuleDictionary, repair_compress
from trajindex.k2tree import K2Tree
from trajindex.logs import move_jump, move_steps
from trajindex.serial import SerializationError

from conftest import DATASET_SIDE, PERIODS

N_QUERIES = 500  # per type, per dataset, per snapshot period


def _criterion(capfd, num, desc, body):
    failures = []

    def check(cond, label):
        if not cond:
            failures.append(label)

    try:
        body(check)
    except Exception as exc:
        failures.append("unexpected %s: %s" % (type(exc).__name__, exc))
    verdict = "PASS" if not failures else "FAIL"
    with capfd.disabled():
        print("ACCEPTANCE CRITERION %d [%s]: %s" % (num, desc, verdict))
    assert not failures, "criterion %d [%s]: %s" % (
        num,
        desc,
        "; ".join(str(f) for f in failures[:4]),
    )


# ---------------------------------------------------------------------------
# query generators shared by criteria 2 and 5
# ---------------------------------------------------------------------------


def _rand_region(rng, side, max_w):
    x1, y1 = rng.randrange(side), rng.randrange(side)
    return (
        x1,
        y1,
        min(side - 1, x1 + rng.randrange(1, max_w)),
        min(side - 1, y1 + rng.randrange(1, max_w)),
    )


def _knn_matches(got, want):
    if len(got) != len(want):
        return False
    return all(
        g[0] == w[0] and abs(g[1] - w[1]) <= 1e-9
        for g, w in zip(
            sorted(got, key=lambda r: (r[1], r[0])),
            sorted(want, key=lambda r: (r[1], r[0])),
        )
    )


def _sweep(index, oracle, ids, side, rng, check, tag):
    t_max = index.params.t_max
    for _ in range(N_QUERIES):
        o, t = rng.choice(ids), rng.randrange(t_max + 1)
        if index.position_of(o, t) != oracle.position_of(o, t):
            check(False, "%s object id=%d t=%d" % (tag, o, t))
            return
    for _ in range(N_QUERIES):
        o = rng.choice(ids)
        t0 = rng.randrange(t_max + 1)
        t1 = min(t_max, t0 + rng.randrange(150))
        if index.trajectory(o, t0, t1) != oracle.trajectory(o, t0, t1):
            check(False, "%s trajectory id=%d [%d,%d]" % (tag, o, t0, t1))
            return
    for _ in range(N_QUERIES):
        region = _rand_region(rng, side, 48)
        t = rng.randrange(t_max + 1)
        if index.time_slice(region, t) != oracle.time_slice(region, t):
            check(False, "%s time-slice %r t=%d" % (tag, region, t))
            return
    for _ in range(N_QUERIES):
        region = _rand_region(rng, side, 32)
        t0 = rng.randrange(t_max + 1)
        t1 = min(t_max, t0 + rng.randrange(120))
        if index.time_interval(region, t0, t1) != oracle.time_interval(
            region, t0, t1
        ):
            check(False, "%s time-interval %r [%d,%d]" % (tag, region, t0, t1))
            return
    for _ in range(N_QUERIES):
        k = 1 + rng.randrange(10)
        point = (rng.randrange(side), rng.randrange(side))
        t = rng.randrange(t_max + 1)
        if not _knn_matches(index.knn(k, point, t), oracle.knn(k, point, t)):
            check(False, "%s knn k=%d p=%r t=%d" % (tag, k, point, t))
            return


# ---------------------------------------------------------------------------
# the seven criteria
# ---------------------------------------------------------------------------


def test_criterion_1_exact_anchors(capfd, walkthrough_index):
    def body(check):
        check(spiral.encode(1, 1) == 8, "spiral (1,1)")
        check(spiral.encode(0, 3) == 45, "spiral (0,3)")

        rules = RuleDictionary.build(
            [(2 + MOVE_BASE, 9 + MOVE_BASE), (4 + MOVE_BASE, 5 + MOVE_BASE)],
            max_move_code=9,
        )
        w, z = rules.nt_base, rules.nt_base + 1
        check(
            (rules.span_of(w), rules.disp_of(w), rules.mbr_of(w))
            == (2, (3, 0), (0, -1, 3, 0)),
            "enrichment of the code-2/code-9 rule",
        )
        check(
            (rules.span_of(z), rules.disp_of(z), rules.mbr_of(z))
            == (2, (-2, -1), (-2, -1, 0, 0)),
            "enrichment of the code-4/code-5 rule",
        )

        check(move_jump(rules, (9, 5), 1, 3, z) == (3, (7, 4)), "whole jump")
        check(move_jump(rules, (9, 5), 1, 2, z) == (2, (8, 4)), "partial jump")
        check(
            move_steps(rules, (9, 5), 1, 3, z) == [(2, (8, 4)), (3, (7, 4))],
            "stepwise expansion",
        )

        check(
            expanded_region((7, 3, 10, 4), 8, 10, 1, 16) == (5, 1, 12, 6),
            "region expansion",
        )

        check(
            walkthrough_index.time_slice((7, 3, 10, 4), 10)
            == [(2, (9, 4)), (5, (7, 3))],
            "walkthrough time-slice",
        )
        got = walkthrough_index.knn(1, (10, 0), 9)
        check(
            len(got) == 1
            and got[0][0] == 2
            and abs(got[0][1] - math.sqrt(10)) <= 1e-12,
            "walkthrough knn",
        )

    _criterion(capfd, 1, "exact hand-checked anchors", body)


def test_criterion_2_oracle_equivalence(capfd, datasets, oracles, indexes):
    def body(check):
        t0 = time.monotonic()
        for name in sorted(datasets):
            ids = sorted(datasets[name])
            for period in PERIODS:
                rng = random.Random(zlib.crc32(f"{name}/{period}".encode()))
                _sweep(
                    indexes[name, period],
                    oracles[name],
                    ids,
                    DATASET_SIDE[name],
                    rng,
                    check,
                    "%s/d=%d" % (name, period),
                )
        elapsed = time.monotonic() - t0
        check(elapsed < 300, "sweep took %.1fs (budget 300s)" % elapsed)

    _criterion(capfd, 2, "oracle equivalence, 3 datasets x 3 periods", body)


def test_criterion_3_lossless_reconstruction(capfd, datasets, indexes):
    def body(check):
        for (name, period), index in sorted(indexes.items()):
            series = datasets[name]
            t_max = index.params.t_max
            for oid in sorted(series):
                want = [
                    (t0 + i, cell)
                    for t0, cells in series[oid]
                    for i, cell in enumerate(cells)
                ]
                got = index.trajectory(oid, 0, t_max)
                if got != want:
                    check(
                        False,
                        "%s/d=%d object %d reconstruction" % (name, period, oid),
                    )
                    return

    _criterion(capfd, 3, "lossless trajectory reconstruction", body)


def test_criterion_4_compression(capfd, indexes):
    def body(check):
        snap_bytes = []
        for period in PERIODS:
            stats = indexes["routes", period].stats()
            check(
                stats["raw_symbols"] >= 10**5,
                "d=%d raw symbol count %d" % (period, stats["raw_symbols"]),
            )
            log_bytes = (
                stats["bytes"]["log_streams"]
                + stats["bytes"]["log_events"]
                + stats["bytes"]["dictionary"]
            )
            check(
                log_bytes <= 0.5 * stats["raw_symbols"],
                "d=%d log+dict %dB vs 1B/move baseline %dB"
                % (period, log_bytes, stats["raw_symbols"]),
            )
            snap_bytes.append(stats["bytes"]["snapshots"])
        check(
            snap_bytes[0] > snap_bytes[1] > snap_bytes[2],
            "snapshot bytes not decreasing: %r" % (snap_bytes,),
        )

    _criterion(capfd, 4, "shared-routes compression bound", body)


def test_criterion_5_pruning(capfd, datasets, indexes):
    def body(check):
        # flag combinations never change an answer
        for (name, period), index in sorted(indexes.items()):
            side = DATASET_SIDE[name]
            t_max = index.params.t_max
            rng = random.Random(500 + period)
            for _ in range(40):
                region = _rand_region(rng, side, 32)
                t = rng.randrange(t_max + 1)
                t1 = min(t_max, t + rng.randrange(100))
                base_iv = index.time_interval(region, t, t1)
                for mbr in (True, False):
                    for er in (True, False):
                        if index.time_interval(
                            region, t, t1, use_mbr=mbr, use_er=er
                        ) != base_iv:
                            check(
                                False,
                                "%s/d=%d interval differs mbr=%r er=%r"
                                % (name, period, mbr, er),
                            )
                            return

        # the box test must save symbol work on the compressible dataset
        index = indexes["routes", 120]
        rng = random.Random(77)
        queries = [
            (
                _rand_region(rng, 1024, 32),
                rng.randrange(index.params.t_max - 120),
            )
            for _ in range(120)
        ]

        def counted(use_mbr):
            index.counters.clear()
            for region, t0 in queries:
                index.time_interval(region, t0, t0 + 100, use_mbr=use_mbr)
            return index.counters.get("interval_symbols", 0)

        with_box = counted(True)
        without_box = counted(False)
        check(
            with_box < without_box,
            "with pruning %d >= without %d" % (with_box, without_box),
        )

    _criterion(capfd, 5, "pruning soundness and effectiveness", body)


def test_criterion_6_structure_properties(capfd):
    def body(check):
        rng = random.Random(6)

        # bit vector rank/select laws against a cumulative-sum oracle
        for _ in range(60):
            n = rng.randrange(1, 1500)
            bits = np.asarray(
                [rng.random() < rng.choice((0.05, 0.5, 0.95)) for _ in range(n)],
                dtype=np.uint8,
            )
            bv = BitVector(bits)
            cum = np.cumsum(bits)
            ones = np.flatnonzero(bits)
            zeros = np.flatnonzero(bits == 0)
            ok = all(bv.rank1(p) == cum[p - 1] for p in range(1, n + 1))
            ok = ok and all(
                bv.select1(j + 1) == ones[j] + 1 for j in range(len(ones))
            )
            ok = ok and all(
                bv.select0(j + 1) == zeros[j] + 1 for j in range(len(zeros))
            )
            if not ok:
                check(False, "rank/select law broken at n=%d" % n)
                return

        # DAC round trips
        for _ in range(100):
            n = rng.randrange(0, 400)
            values = [
                rng.randrange(2 ** rng.choice((1, 4, 8, 17, 30)))
                for _ in range(n)
            ]
            for seq in (
                DacSequence.optimal(values),
                DacSequence.fixed(values, 8, 2),
            ):
                if seq.to_list().tolist() != values:
                    check(False, "DAC decode mismatch (n=%d)" % n)
                    return

        # permutation inverses
        for n in (1, 2, 5, 17, 64, 200, 500):
            values = list(range(n))
            rng.shuffle(values)
            perm = Permutation(values)
            if any(perm.inverse(perm.apply(i)) != i for i in range(n)):
                check(False, "permutation n=%d" % n)
                return

        # k2-trees against a dense boolean matrix
        for trial in range(200):
            n_pts = rng.randrange(0, 250)
            pts = {
                (rng.randrange(256), rng.randrange(256)) for _ in range(n_pts)
            }
            xs = np.asarray([p[0] for p in pts], dtype=np.int64)
            ys = np.asarray([p[1] for p in pts], dtype=np.int64)
            tree = K2Tree.build(2, 256, xs, ys)
            matrix = np.zeros((256, 256), dtype=bool)
            matrix[xs, ys] = True
            ok = all(
                tree.locate(tree.cell(x, y)) == (x, y) for x, y in pts
            )
            for _ in range(30):
                x, y = rng.randrange(256), rng.randrange(256)
                ok = ok and ((tree.cell(x, y) is not None) == matrix[x, y])
            for _ in range(3):
                x1, y1, x2, y2 = _rand_region(rng, 256, 80)
                got = {(x, y) for x, y, _ in tree.range_report((x1, y1, x2, y2))}
                sub = matrix[x1 : x2 + 1, y1 : y2 + 1]
                want = {
                    (x1 + int(i), y1 + int(j)) for i, j in zip(*np.nonzero(sub))
                }
                ok = ok and got == want
            if not ok:
                check(False, "k2-tree mismatch on trial %d" % trial)
                return

        # spiral codes biject displacements of radius <= 1000
        r = 1000
        dx, dy = np.meshgrid(
            np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij"
        )
        codes = spiral.encode_array(dx.ravel(), dy.ravel())
        check(
            np.array_equal(np.sort(codes), np.arange((2 * r + 1) ** 2)),
            "spiral encode not bijective to radius %d" % r,
        )
        tdx, tdy = spiral.decode_table(spiral.max_code_for_radius(r))
        back = spiral.encode_array(tdx, tdy)
        check(
            np.array_equal(back, np.arange((2 * r + 1) ** 2)),
            "spiral decode not the inverse to radius %d" % r,
        )

        # random grammars: round-trip and enrichment vs brute force
        for trial in range(1000):
            max_code = rng.randrange(1, 25)
            nt_base = MOVE_BASE + max_code + 1
            streams = [
                [
                    MOVE_BASE + rng.randrange(max_code + 1)
                    for _ in range(rng.randrange(2, 40))
                ]
                for _ in range(rng.randrange(1, 4))
            ]
            out, pairs = repair_compress(streams, nt_base)
            rules = RuleDictionary.build(pairs, max_code)
            for original, compressed in zip(streams, out):
                flat = []
                for sym in compressed:
                    flat.extend(rules.expand(int(sym)))
                if flat != original:
                    check(False, "grammar round-trip trial %d" % trial)
                    return
            for ri in range(rules.n_rules):
                sym = nt_base + ri
                x = y = 0
                box = [0, 0, 0, 0]
                terms = rules.expand(sym)
                for term in terms:
                    sdx, sdy = spiral.decode(term - MOVE_BASE)
                    x, y = x + sdx, y + sdy
                    box = [
                        min(box[0], x),
                        min(box[1], y),
                        max(box[2], x),
                        max(box[3], y),
                    ]
                if (
                    rules.span_of(sym) != len(terms)
                    or rules.disp_of(sym) != (x, y)
                    or rules.mbr_of(sym) != tuple(box)
                ):
                    check(False, "enrichment mismatch trial %d" % trial)
                    return

    _criterion(capfd, 6, "building-block structure properties", body)


def test_criterion_7_determinism(capfd, datasets, indexes, walkthrough_series, tmp_path):
    def body(check):
        blob = indexes["routes", 120].to_bytes()
        again = TrajectoryIndex.build(
            datasets["routes"], period=120, k=2, side=1024
        ).to_bytes()
        check(blob == again, "rebuild of routes/d=120 not byte-identical")

        wt = TrajectoryIndex.build(walkthrough_series, period=8, k=2, side=16)
        path = tmp_path / "wt.idx"
        wt.save(path)
        check(
            path.read_bytes() == wt.to_bytes()
            and TrajectoryIndex.load(path).to_bytes() == wt.to_bytes(),
            "save/load not bit-exact",
        )

        small = wt.to_bytes()
        cuts = sorted({1, 4, 5, 12, len(small) // 3, len(small) // 2, len(small) - 1})
        for cut in cuts:
            try:
                TrajectoryIndex.from_bytes(small[:cut])
            except SerializationError:
                continue
            check(False, "truncation at %d bytes not rejected" % cut)
            return

    _criterion(capfd, 7, "deterministic builds and safe loading", body)
