"""Per-object movement logs between snapshots, and their traversal.

The timeline is cut into portions: portion h covers the instants
(h*period, min((h+1)*period, t_max)].  A snapshot instant is therefore also
the last instant of the portion before it, so logs can be read forward from
the earlier snapshot or backward from the later one.

Each (portion, object) log is one slice of the jointly compressed symbol
stream plus two side arrays aligned with its event symbols, in order:

* D entry:  gap length for RM/RNM, absolute instant for AA/D;
* P entry:  spiral code for RM (one value), absolute x, y for AA/D (two
  values), nothing for RNM.

A log looks like ``[AA?] (move | RM | RNM)* [D?]``: AA opens a log whose
object was absent at the starting snapshot, D closes a log whose object
stops emitting before the portion ends (its payload repeats the last known
instant/position so backward traversals can anchor on it).

Traversal primitives:

* ``LogStore.elements`` — forward walker from a log start (a snapshot or an
  AA anchor), crossing portions; it decodes every event and yields one
  ``(sym, t, p)`` state per element: a move symbol with the state it
  reaches applied whole, or ``sym=None`` with the state an AA/RM/RNM sets;
* ``LogStore.elements_backward`` — the mirror over one portion's log, read
  in place from its end, yielding the state before each element;
* ``move_jump`` / ``move_back`` — clip a symbol that straddles a time
  limit, descending into the rule with an explicit stack;
* ``move_steps`` — expand a symbol to terminals, one (instant, position)
  per step.

All of them read span, displacement and pairs from the symbol-indexed
tables of ``RuleDictionary``.
"""

import numpy as np

from . import spiral
from .grammar import EV_AA, EV_D, EV_RM, EV_RNM, MOVE_BASE


class Portion:
    """Logs of one portion: sorted object ids plus three offset tables."""

    def __init__(self, ids, sym_off, d_vals, d_off, p_vals, p_off):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.sym_off = np.asarray(sym_off, dtype=np.int64)
        self.d_vals = np.asarray(d_vals, dtype=np.int64)
        self.d_off = np.asarray(d_off, dtype=np.int64)
        self.p_vals = np.asarray(p_vals, dtype=np.int64)
        self.p_off = np.asarray(p_off, dtype=np.int64)
        # filled by LogStore._derive
        self.starts_aa = None
        self.ends_d = None
        self.last_covered = None

    def find(self, oid):
        i = int(np.searchsorted(self.ids, oid))
        if i < len(self.ids) and self.ids[i] == oid:
            return i
        return -1


class LogStore:
    def __init__(self, dictionary, period, t_max, syms, portions):
        self.dict = dictionary
        self.period = period
        self.t_max = t_max
        self.syms = np.asarray(syms, dtype=np.int64)
        if len(self.syms) and self.syms.max() >= len(dictionary.sym_span):
            raise ValueError("log symbol is not a known move, event or rule")
        self._syms = memoryview(self.syms)
        self.portions = portions
        for h, portion in enumerate(portions):
            self._derive(h, portion)

    def _derive(self, h, portion):
        if len(portion.ids) == 0:
            z = np.zeros(0, dtype=np.int64)
            portion.starts_aa = z.astype(bool)
            portion.ends_d = z.astype(bool)
            portion.last_covered = z
            return
        s0 = portion.sym_off[:-1]
        s1 = portion.sym_off[1:]
        portion.starts_aa = self.syms[s0] == EV_AA
        portion.ends_d = self.syms[s1 - 1] == EV_D
        end = self.portion_end(h)
        last = np.full(len(portion.ids), end, dtype=np.int64)
        closed = np.flatnonzero(portion.ends_d)
        if len(closed):
            last[closed] = portion.d_vals[portion.d_off[closed + 1] - 1]
        portion.last_covered = last

    @property
    def n_portions(self):
        return len(self.portions)

    def portion_end(self, h):
        return min((h + 1) * self.period, self.t_max)

    def first_anchor(self, h, oid):
        """(instant, position) of an appearance-opened log; None otherwise."""
        p = self.portions[h]
        i = p.find(oid)
        if i < 0 or not p.starts_aa[i]:
            return None
        t = int(p.d_vals[p.d_off[i]])
        x = int(p.p_vals[p.p_off[i]])
        y = int(p.p_vals[p.p_off[i] + 1])
        return t, (x, y)

    def last_anchor(self, h, oid):
        """(instant, position) of a D-closed log; None otherwise."""
        p = self.portions[h]
        i = p.find(oid)
        if i < 0 or not p.ends_d[i]:
            return None
        t = int(p.d_vals[p.d_off[i + 1] - 1])
        x = int(p.p_vals[p.p_off[i + 1] - 2])
        y = int(p.p_vals[p.p_off[i + 1] - 1])
        return t, (x, y)

    # -- walkers ---------------------------------------------------------

    def elements(self, oid, t_c, p_c, t_end):
        """Walk forward from (t_c, p_c), the start of portion
        ``t_c // period``'s log, yielding ``(sym, t, p)`` per element until
        the first one that reaches ``t_end``.

        A move symbol comes with the state it reaches when applied whole (the
        consumer clips it with ``move_jump``); an AA/RM/RNM comes as
        ``sym=None`` with the state it sets.  The AA opening the first log is
        the start state and is not yielded.  D ends a log and is skipped: a
        later portion's AA re-anchors the walk.
        """
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms = self._syms
        t_start = t_c
        x, y = p_c
        h = t_c // self.period
        while t_c < t_end and h < len(self.portions) and h * self.period < t_end:
            p = self.portions[h]
            h += 1
            i = p.find(oid)
            if i < 0:
                continue
            d_vals, p_vals = memoryview(p.d_vals), memoryview(p.p_vals)
            di, pi = int(p.d_off[i]), int(p.p_off[i])
            for sym in syms[p.sym_off[i]:p.sym_off[i + 1]]:
                if sym >= MOVE_BASE:
                    t_c += span[sym]
                    x += dx[sym]
                    y += dy[sym]
                elif sym == EV_D:
                    break
                elif sym == EV_AA:
                    t_c, x, y = d_vals[di], p_vals[pi], p_vals[pi + 1]
                    di += 1
                    pi += 2
                    if t_c == t_start:
                        continue
                    sym = None
                else:
                    t_c += d_vals[di] + 1
                    di += 1
                    if sym == EV_RM:  # displaced by a spiral code
                        mdx, mdy = spiral.decode(p_vals[pi])
                        x += mdx
                        y += mdy
                        pi += 1
                    sym = None
                yield sym, t_c, (x, y)
                if t_c >= t_end:
                    return

    def elements_backward(self, h, oid, t_c, p_c, t_floor):
        """Walk portion ``h``'s log backward from its end state (t_c, p_c),
        yielding ``(sym, t, p)``, the state before each element, until the
        first one that reaches ``t_floor``.

        The log is read in place from its end, the side-array cursors moving
        down.  ``sym`` is the move symbol, or None for an event; an AA or D
        sets the state to its payload.  ``h`` is explicit because a lone-D log
        may sit on the snapshot instant that starts the next portion.
        """
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        p = self.portions[h]
        i = p.find(oid)
        if i < 0:
            return
        d_vals, p_vals = memoryview(p.d_vals), memoryview(p.p_vals)
        di, pi = int(p.d_off[i + 1]), int(p.p_off[i + 1])
        x, y = p_c
        for sym in reversed(self._syms[p.sym_off[i]:p.sym_off[i + 1]]):
            if sym >= MOVE_BASE:
                t_c -= span[sym]
                x -= dx[sym]
                y -= dy[sym]
            elif sym == EV_D or sym == EV_AA:
                di -= 1
                pi -= 2
                t_c, x, y = d_vals[di], p_vals[pi], p_vals[pi + 1]
                sym = None
            else:
                di -= 1
                t_c -= d_vals[di] + 1
                if sym == EV_RM:  # displaced by a spiral code
                    pi -= 1
                    mdx, mdy = spiral.decode(p_vals[pi])
                    x -= mdx
                    y -= mdy
                sym = None
            yield sym, t_c, (x, y)
            if t_c <= t_floor:
                return


def move_jump(dictionary, p, t_c, t_e, sym):
    """Apply ``sym`` forward from (t_c, p), stopping exactly at t_e.

    Parts that fit before t_e are applied whole in O(1); a part straddling
    it is descended with an explicit stack (left child first).
    """
    span, dx, dy, pairs = (
        dictionary.sym_span, dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    )
    x, y = p
    stack = [sym]
    while stack and t_c < t_e:
        s = stack.pop()
        if t_c + span[s] <= t_e:  # a terminal always fits: span 1
            x += dx[s]
            y += dy[s]
            t_c += span[s]
        else:
            stack.append(pairs[s, 1])
            stack.append(pairs[s, 0])
    return t_c, (x, y)


def move_back(dictionary, p, t_floor, t_c, sym):
    """Undo ``sym`` backward from (t_c, p), stopping exactly at t_floor."""
    span, dx, dy, pairs = (
        dictionary.sym_span, dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    )
    x, y = p
    stack = [sym]
    while stack and t_c > t_floor:
        s = stack.pop()
        if t_c - span[s] >= t_floor:
            x -= dx[s]
            y -= dy[s]
            t_c -= span[s]
        else:
            stack.append(pairs[s, 0])  # undo the right child first
            stack.append(pairs[s, 1])
    return t_c, (x, y)


def move_steps(dictionary, p, t_c, t_e, sym):
    """Expand ``sym`` into per-instant pairs (t, position), truncated at t_e."""
    dx, dy, pairs = dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    nt_base = dictionary.nt_base
    out = []
    x, y = p
    stack = [sym]
    while stack and t_c < t_e:
        s = stack.pop()
        if s < nt_base:
            x += dx[s]
            y += dy[s]
            t_c += 1
            out.append((t_c, (x, y)))
        else:
            stack.append(pairs[s, 1])
            stack.append(pairs[s, 0])
    return out
