"""Hot inner-loop kernels over numpy arrays.

The non-adjacent sweep (:func:`nadj_pass`) plans its receivers as the rows
of one receivers x senders array. While a receiver's stance holds, the
influence p of each of its messages and the persistence step y are whole
arrays, and the recursion a <- a - y is a prefix sum along the row
(``np.add.accumulate`` over ``[a, -y_1, -y_2, ...]``). A row holds up to
its first message that may move the receiver; only then does the receiver
go through the per-receiver loop (:meth:`_NadjPass.finish`), where one-row
scans (:func:`_scan_rows`, as for a plan) take turns with the scalar
:func:`deliver`. The plan gives the per-message loop's results bit for
bit:

- Rows interact only through receivers that are also senders. A held row
  writes only its own receiver's ``avals`` and ``counts``, so each row of a
  plan reads the state the plan started with, and its events go where the
  per-message order puts them. A plan ends with the first receiver that is
  also a sender and may move; the rows after it are planned again, so they
  hear its new stance.
- Every sender's stance is known, so an unknown receiver is no sender and
  moves on its first message. The plan delivers the first messages of all
  its unknown receivers at once (:func:`_deliver_many`) and computes their
  rows after that, because the similarity includes the receiver's own
  stance on topic j.
- Each element goes through the IEEE operations of :func:`deliver` in its
  order. Both sweeps take p, |t_u - old| and t_u == old from
  :func:`_influence`, which sums the similarity topic by topic: the scalar
  sum starts from 0.0 and the array sum from the first topic's term, which
  is the same, as 0.0 + x is x for x >= 0. ``a - y`` is ``a + (-y)``. A
  cell that carries no message (the receiver's own column, or an unknown
  receiver's delivered first message) adds -0.0, which leaves a as it is.
- ``np.add.accumulate`` along a row adds strictly left to right, as the
  scalar loop does.

The adjacent sweep (:func:`adjacent_pass`) is array code too. The
adjacency memory only grows during a sweep, so the receivers it reaches
are the first out-edge slot of each receiver not in memory when it
starts, found with ``np.repeat`` over the row lengths and a stable
argsort. A message writes only its receiver's topic j, and each receiver
gets one message, so a message depends on an earlier one only when its
sender was that message's receiver. Messages go out level by level along
these dependencies, a level at a time as whole arrays
(:func:`_deliver_many`), with every input read before any write and the
IEEE operations of :func:`deliver` in its order (as above), so the sweep
and the per-edge loop agree bit for bit.

With a persistent adjacency memory, the engine hands the adjacent sweep
only the spreaders activated since the topic's previous sweep. That is
exact: after a sweep, every out-neighbor of every swept spreader is in the
memory, and the memory never shrinks, so an earlier spreader's edges all
lead to receivers that are skipped. Its slots would be dropped as not
fresh, and the first slot of every other receiver stays the same, so the
messages, their order and their levels are the same too.

These kernels are the arithmetic ground truth for the whole package: the
public scalar operations in :mod:`stancecast.influence` and
:mod:`stancecast.dynamics` delegate to them after validating inputs.
"""

from __future__ import annotations

import math

import numpy as np

# kernels have one implementation; perfbench records it as kernels_backend
BACKEND = "python"


def similarity(profiles, u, v):
    """Topic similarity sqrt(z) / (sqrt(z) + ||p_u - p_v||) of two nodes."""
    acc = 0.0
    for a, b in zip(profiles[u].tolist(), profiles[v].tolist()):
        d = a - b
        acc += d * d
    sq = math.sqrt(profiles.shape[1])
    return sq / (sq + math.sqrt(acc))


def stance_factor(t_v, t_u, lam, mu):
    """Stance weight f(t_v, t_u): 1, lam or mu, first matching case wins."""
    if t_v == -1.0 or t_v == 0.5 or t_v == t_u:
        return 1.0
    if abs(t_v - t_u) <= 0.5:
        return lam
    return mu


def persistence_update(a, k, t_v, t_u, p):
    """One incremental persistence step: new a after the k-th message."""
    diff = abs(t_u - t_v)
    same = 1.0 if t_u == t_v else 0.0
    a = a - (diff * p - same * p) / k
    if a < 0.0:
        return 0.0
    if a > 1.0:
        return 1.0
    return a


def transition(t_v, t_u, p, a, tie_eps):
    """Next stance of a receiver at t_v hit by a sender at t_u."""
    if t_v == -1.0 or t_v == 0.5:
        if p >= a:
            return t_u
        return 0.5
    if t_u == t_v:
        return t_v
    if p > a:
        eps = 1.0
    elif p < a:
        eps = 0.0
    else:
        eps = tie_eps
    if t_v == 0.0:
        return t_v + eps * 0.5
    return t_v - eps * 0.5


def deliver(profiles, avals, counts, q, v, j, delta, lam, mu, tie_eps):
    """Deliver one message from sender v to receiver q on topic j.

    Computes the influence probability, applies the persistence update,
    then the stance transition, mutating profiles/avals/counts in place.
    Returns (old_stance, new_stance, probability).
    """
    # Python floats: the IEEE operations of float64, without numpy's
    # per-scalar cost
    t_u = profiles.item(v, j)
    old = profiles.item(q, j)
    p = delta * similarity(profiles, v, q) * stance_factor(old, t_u, lam, mu)
    k = counts.item(q, j) + 1
    counts[q, j] = k
    a = persistence_update(avals.item(q, j), k, old, t_u, p)
    avals[q, j] = a
    new = transition(old, t_u, p, a, tie_eps)
    profiles[q, j] = new
    return old, new, p


def _influence(q_cols, sender_cols, j, delta, lam, mu):
    """The influence p of senders on receivers, |t_u - old| and t_u == old.

    ``q_cols[i]`` and ``sender_cols[i]`` hold the receivers' and senders'
    stances on topic i, broadcast together; j is the message's topic.
    """
    sq = math.sqrt(q_cols.shape[0])
    old = q_cols[j]
    t_u = sender_cols[j]
    d = sender_cols[0] - q_cols[0]
    acc = d * d
    for i in range(1, q_cols.shape[0]):
        np.subtract(sender_cols[i], q_cols[i], out=d)
        d *= d
        acc += d
    same = t_u == old
    # |t_u - old| is |old - t_u|: IEEE subtraction is exactly antisymmetric
    diff = np.abs(t_u - old)
    f = np.where(diff <= 0.5, lam, mu)
    f[same | ((old == -1.0) | (old == 0.5))] = 1.0
    return (delta * (sq / (sq + np.sqrt(acc)))) * f, diff, same


def _deliver_many(profiles, avals, counts, q, v, j, delta, lam, mu, tie_eps):
    """Deliver the messages ``v[i] -> q[i]`` on topic j as whole arrays.

    The receivers are distinct. Every input is gathered before any write, so
    a sender that is also a receiver here is read with its stance from
    before the call. Each element goes through the IEEE operations of
    :func:`deliver` in the same order. Returns (old, new, p).
    """
    # whole rows, by ``take``: several times faster than ``profiles[q]``
    q_cols = profiles.take(q, axis=0).T
    v_cols = profiles.take(v, axis=0).T
    old = q_cols[j]
    t_u = v_cols[j]
    p, diff, same = _influence(q_cols, v_cols, j, delta, lam, mu)
    # persistence_update, then transition
    k = counts[q, j] + 1
    a = avals[q, j] - (diff * p - same * p) / k
    a[a < 0.0] = 0.0
    a[a > 1.0] = 1.0
    eps = np.full(q.shape[0], tie_eps)
    eps[p > a] = 1.0
    eps[p < a] = 0.0
    new = old - eps * 0.5
    oppose = old == 0.0
    new[oppose] = old[oppose] + eps[oppose] * 0.5
    new[same] = old[same]
    unset = (old == -1.0) | (old == 0.5)
    new[unset] = 0.5
    adopt = unset & (p >= a)
    new[adopt] = t_u[adopt]
    counts[q, j] = k
    avals[q, j] = a
    profiles[q, j] = new
    return old, new, p


def out_slots(indptr, nodes):
    """The CSR slots of the out-edges of ``nodes``, in node order and then
    edge order, and each node's out-degree."""
    ends = indptr[1:][nodes]
    lens = ends - indptr[nodes]
    if lens.shape[0] == 1:
        # one row is one range; IC cascades on sparse graphs often have a
        # one-node frontier, where the general form took half of the round
        return np.arange(ends[0] - lens[0], ends[0]), lens
    offsets = lens.cumsum()
    total = int(offsets[-1]) if offsets.shape[0] else 0
    return (ends - offsets).repeat(lens) + np.arange(total), lens


def adjacent_pass(indptr, indices, profiles, avals, counts, vadj_row, spreaders,
                  j, delta_adj, lam, mu, tie_eps,
                  ev_node, ev_src, ev_old, ev_new, ev_p):
    """Adjacent-channel sweep of one round for one topic.

    Each spreader (in the order given) messages its out-neighbors (in CSR
    order) not yet in the adjacency memory; delivered receivers enter the
    memory. Event fields are written into the preallocated buffers in that
    order; returns the event count. A spreader whose out-neighbors are all
    in the memory sends nothing, so leaving it out changes nothing (the
    engine's frontier sweeps rest on this).

    Messages are delivered by dependency level (see the module docstring)
    through :func:`_deliver_many`: level 0 holds the messages whose sender
    was not an earlier receiver, level L + 1 those whose sender was
    received at level L.
    """
    slots, lens = out_slots(indptr, spreaders)
    recv = indices[slots]
    send = np.repeat(spreaders, lens)
    fresh = ~vadj_row[recv]
    recv = recv[fresh]
    send = send[fresh]
    order = np.argsort(recv, kind="mergesort")
    first = np.ones(order.shape[0], dtype=np.bool_)
    first[1:] = recv[order[1:]] != recv[order[:-1]]
    msgs = np.sort(order[first])
    q = recv[msgs]
    v = send[msgs]
    n_ev = q.shape[0]

    # parent: the earlier message whose receiver sends this one
    received_at = np.full(vadj_row.shape[0], -1)
    received_at[q] = np.arange(n_ev)
    parent = received_at[v]
    chained = (parent >= 0) & (parent < np.arange(n_ev))
    parent[~chained] = 0
    level = ~chained
    while level.any():
        at = np.flatnonzero(level)
        old, new, p = _deliver_many(profiles, avals, counts, q[at], v[at], j,
                                    delta_adj, lam, mu, tie_eps)
        ev_old[at] = old
        ev_new[at] = new
        ev_p[at] = p
        level = chained & level[parent]
    ev_node[:n_ev] = q
    ev_src[:n_ev] = v
    vadj_row[q] = True
    return n_ev


# A scan costs about as much as this many scalar steps; after a shorter
# hold, q is moving often, so its next messages go one by one.
_SHORT_HOLD = 16


# One plan holds at most this many (receiver, sender) cells.
_PLAN_CELLS = 65536
# A plan costs about as much as this many per-receiver scans, whatever its
# size; fewer receivers go through the per-receiver loop.
_MIN_PLAN = 8
# A scan costs about as much as this many cells, whatever its size.
_SCAN_CELLS = 2048


def _stops(before, movable, p, top, c0):
    """Each row's first column, from column ``c0`` on, whose message may move
    q or takes a out of [0, 1] (the column count when none does), a before
    that column, and whether a went above 1 there and is clamped to 1 (as
    its message may not move q at a = 1: it is not in ``top``).
    ``before[:, c]`` is a before column c, and ``before[:, -1]`` a after the
    last column."""
    run = before[:, 1:]
    over = run > 1.0
    hit = (movable & (p >= run)) | (run < 0.0) | over
    if c0 is not None:
        hit &= np.arange(hit.shape[1]) >= c0[:, None]
    r = np.arange(hit.shape[0])
    h = hit.argmax(axis=1)
    got = hit[r, h]
    stop = np.where(got, h, hit.shape[1])
    return stop, before[r, stop], got & (over & ~top)[r, h]


def _scan_rows(profiles, avals, q, sender_cols, delta, k, carry, j, lam, mu):
    """Hold-scan receivers ``q`` against senders as one rows x senders array.

    ``sender_cols[i]`` holds the senders' stances on topic i, ``carry``
    whether a cell carries a message, and ``k`` the number of a cell's
    message among q's messages on topic j, counted from q's first. A cell
    that carries none (q's own column, or a message delivered already)
    steps by -0.0, which leaves the running a as it is. Returns (p, stop,
    a): each cell's influence, the column of each row's first message that
    may move q or takes a below 0 (the sender count when the row holds to
    its end), and a before that column.
    """
    rows, s = delta.shape
    p, diff, same = _influence(profiles.take(q, axis=0).T[:, :, None],
                               sender_cols, j, delta, lam, mu)
    y = np.zeros((rows, s))
    np.divide(diff * p - same * p, k, out=y, where=carry)
    movable = carry & ~same
    # a message that may move q even at a = 1
    top = movable & (p >= 1.0)
    steps = np.empty((rows, s + 1))
    steps[:, 0] = avals[:, j][q]
    np.negative(y, out=steps[:, 1:])
    stop, a, clamp = _stops(np.add.accumulate(steps, axis=1), movable, p,
                            top, None)
    active = np.flatnonzero(clamp)
    while active.shape[0]:
        # a step that takes a above 1 is clamped to 1 (unless the message
        # may move q at a = 1), and a stays exactly 1 while the steps are
        # <= 0; the row's sum restarts from 1 at the first step > 0 or
        # message that may move q at a = 1
        back = (((y[active] > 0.0) | top[active])
                & (np.arange(s) >= stop[active, None]))
        ends = np.where(back.any(axis=1), back.argmax(axis=1), s)
        stop[active] = s
        a[active[ends == s]] = 1.0
        active, c0 = active[ends < s], ends[ends < s]
        # 0.0 + 1.0 is 1.0: zeroing the steps before c0 starts a fresh sum
        seg = steps[active]
        seg[np.arange(s + 1) < c0[:, None]] = 0.0
        seg[np.arange(active.shape[0]), c0] = 1.0
        stop[active], a[active], clamp = _stops(
            np.add.accumulate(seg, axis=1), movable[active], p[active],
            top[active], c0)
        active = active[clamp]
    return p, stop, a


class _NadjPass:
    """One :func:`nadj_pass` call: its arrays, and where the events of each
    receiver start."""

    def __init__(self, in_indptr, in_indices, profiles, avals, counts,
                 receivers, senders, j, delta_adj, delta_nonadj, lam, mu,
                 tie_eps, events):
        self.in_indptr, self.in_indices = in_indptr, in_indices
        self.profiles, self.avals, self.counts = profiles, avals, counts
        self.receivers, self.senders, self.j = receivers, senders, j
        self.delta_adj, self.delta_nonadj = delta_adj, delta_nonadj
        self.lam, self.mu, self.tie_eps = lam, mu, tie_eps
        self.events = events
        s = senders.shape[0]
        # a node's column among the senders, s for a node that is none
        self.col_of = np.full(profiles.shape[0], s)
        self.col_of[senders] = np.arange(s)
        self.own = self.col_of[receivers]
        # a receiver hears every sender but itself, in sender order, so its
        # events start at a place known before any is delivered
        self.starts = np.zeros(receivers.shape[0] + 1, dtype=np.int64)
        np.cumsum(s - (self.own < s), out=self.starts[1:])

    def deltas(self, rows):
        """delta of every (receiver, sender) cell of receivers ``rows``."""
        s = self.senders.shape[0]
        delta = np.full((rows.shape[0], s), self.delta_nonadj)
        slots, lens = out_slots(self.in_indptr, self.receivers[rows])
        col = self.col_of[self.in_indices[slots]]
        adj = col < s
        delta[np.repeat(np.arange(rows.shape[0]), lens)[adj], col[adj]] = self.delta_adj
        return delta

    def finish(self, i, delta, start, scan_from):
        """Deliver receiver i's messages from its ``start``-th on in the
        per-receiver loop, given its row of delta (None: look it up here);
        returns whether it held to its end, as a planned row may (only an
        unknown receiver's first message went one by one).

        A one-row :func:`_scan_rows` delivers the messages that cannot move
        q's stance; the message that may move it goes through the scalar
        :func:`deliver`, and the scan restarts after it with q's new stance.
        An unknown receiver moves on its first message, as every sender is
        known, so ``scan_from`` starts past that message. The messages before
        ``scan_from``, and the next ``_SHORT_HOLD`` after a hold shorter than
        that, go through :func:`deliver`.
        """
        q = self.receivers[i:i + 1]
        qi = q.item()
        profiles, avals, counts, j = self.profiles, self.avals, self.counts, self.j
        sv = self.senders
        s = sv.shape[0]
        if delta is None:  # one in-row: :meth:`deltas` costs 3x as much
            delta = np.full(s, self.delta_nonadj)
            ins = self.in_indices[self.in_indptr[qi]:self.in_indptr[qi + 1]]
            col = self.col_of[ins]
            delta[col[col < s]] = self.delta_adj
        own = self.own[i]
        if own < s:
            sv = np.concatenate((sv[:own], sv[own + 1:]))
            delta = np.concatenate((delta[:own], delta[own + 1:]))
        n = sv.shape[0]
        # while q's messages are delivered only q's row changes, and q is
        # none of these senders
        sender_cols = profiles.T.take(sv, axis=1)
        # q's message m of this pass is its k[m]-th on topic j
        first = counts.item(qi, j) - start + 1.0
        k = np.arange(first, first + n)
        carry = np.ones(n, dtype=np.bool_)
        unknown = profiles.item(qi, j) == -1.0
        if unknown:
            scan_from = max(scan_from, start + 1)
        at = self.starts.item(i)
        ev_node, ev_src, ev_old, ev_new, ev_p = self.events
        one_by_one = 0
        while start < n:
            if start >= scan_from:
                p, stop, a = _scan_rows(
                    profiles, avals, q, sender_cols[:, start:],
                    delta[None, start:], k[None, start:], carry[None, start:],
                    j, self.lam, self.mu)
                held = stop.item()
                if held:
                    end = start + held
                    ev = slice(at + start, at + end)
                    ev_node[ev] = qi
                    ev_src[ev] = sv[start:end]
                    ev_old[ev] = ev_new[ev] = profiles.item(qi, j)
                    ev_p[ev] = p[0, :held]
                    avals[qi, j] = a.item()
                    counts[qi, j] += held
                    start = end
                if held < _SHORT_HOLD:
                    scan_from = start + _SHORT_HOLD
            if start < n:
                v = sv.item(start)
                pos = at + start
                ev_node[pos] = qi
                ev_src[pos] = v
                ev_old[pos], ev_new[pos], ev_p[pos] = deliver(
                    profiles, avals, counts, qi, v, j, delta.item(start),
                    self.lam, self.mu, self.tie_eps)
                start += 1
                one_by_one += 1
        return one_by_one <= unknown

    def hold(self, r, rows, delta, msg, carry, p, stop, a):
        """Write the messages of scanned rows ``r + rows`` before each row's
        stop, and its a and k after them; returns (row, delta row, first
        message, scan_from) of each row that stopped early."""
        s = self.senders.shape[0]
        i = r + rows
        q = self.receivers[i]
        early = np.flatnonzero(stop < s)
        cells = carry
        if early.shape[0]:
            cells = carry & (np.arange(s) < stop[:, None])
        held = np.count_nonzero(cells, axis=1)
        pos = (self.starts[i][:, None] + msg)[cells]
        ev_node, ev_src, ev_old, ev_new, ev_p = self.events
        old = self.profiles[q, self.j]
        ev_node[pos] = q.repeat(held)
        ev_src[pos] = np.broadcast_to(self.senders, cells.shape)[cells]
        ev_old[pos] = ev_new[pos] = old.repeat(held)
        ev_p[pos] = p[cells]
        self.avals[q, self.j] = a
        self.counts[q, self.j] += held
        if not early.shape[0]:
            return []
        first = msg[early, stop[early]]
        # after a hold shorter than _SHORT_HOLD, q is moving often, so its
        # next messages go one by one, as in :meth:`finish`
        scan_from = first + np.where(held[early] < _SHORT_HOLD, _SHORT_HOLD, 1)
        return list(zip(i[early].tolist(), delta[early], first.tolist(),
                        scan_from.tolist()))

    def plan(self, r, end):
        """Deliver the messages of receivers r:end as one plan; returns
        whether each receiver it took held to its end (without a message
        that may move it). The plan halts after the first receiver that is
        also a sender and may move, as later rows must hear its new stance.
        An unknown receiver is no sender, so its first message, which moves
        it, is delivered within the plan."""
        s = self.senders.shape[0]
        j = self.j
        profiles = self.profiles
        q = self.receivers[r:end]
        own = self.own[r:end]
        sender_cols = profiles.T.take(self.senders, axis=1)
        unknown = profiles[q, j] == -1.0  # none of them a sender
        is_sender = own < s
        cols = np.arange(s)

        def scan(rows, skip, delta):
            # skip[r] counts q[r]'s messages delivered already, and its own
            # column carries none
            msg = cols - (cols > own[rows, None])
            carry = (cols != own[rows, None]) & (msg >= skip[:, None])
            k = (self.counts[q[rows], j] + 1.0 - skip)[:, None] + msg
            return (rows, delta, msg, carry) + _scan_rows(
                profiles, self.avals, q[rows], sender_cols, delta, k, carry, j,
                self.lam, self.mu)

        last = q.shape[0]
        # the receivers that are also senders are scanned first, in chunks
        # that start at about one scan's cost and double, so that a plan that
        # halts early has scanned at most about twice the rows it took
        scans = []
        both = np.flatnonzero(is_sender)
        size = max(1, _SCAN_CELLS // s)
        while both.shape[0]:
            rows, both = both[:size], both[size:]
            scans.append(scan(rows, np.zeros(rows.shape[0], dtype=np.int64),
                              self.deltas(r + rows)))
            hits = np.flatnonzero(scans[-1][5] < s)
            if hits.shape[0]:
                last = int(rows[hits[0]])
                break
            size *= 2
        # an unknown receiver is no sender, so its first message comes from
        # senders[0] and moves it; its row is scanned after that message, as
        # the similarity includes q's own stance on topic j
        rows = np.flatnonzero(~is_sender[:last])
        if rows.shape[0]:
            delta = self.deltas(r + rows)
            first = np.flatnonzero(unknown[rows])
            if first.shape[0]:
                at = self.starts[r + rows[first]]
                ev_node, ev_src, ev_old, ev_new, ev_p = self.events
                ev_node[at] = q[rows[first]]
                ev_src[at] = self.senders[0]
                ev_old[at], ev_new[at], ev_p[at] = _deliver_many(
                    profiles, self.avals, self.counts, ev_node[at],
                    ev_src[at], j, delta[first, 0], self.lam, self.mu,
                    self.tie_eps)
            scans.append(scan(rows, unknown[rows].astype(np.int64), delta))

        finish = []
        for rows, *arrays in scans:
            # rows ascend, and the last chunk may run past ``last``
            keep = np.searchsorted(rows, last, side="right")
            finish += self.hold(r, rows[:keep], *(x[:keep] for x in arrays))
        held = np.ones(min(last + 1, q.shape[0]), dtype=np.bool_)
        # in receiver order, so that the row that halts the plan goes last
        for i, delta, start, scan_from in sorted(finish, key=lambda e: e[0]):
            self.finish(i, delta, start, scan_from)
            held[i - r] = False
        return held


def nadj_pass(in_indptr, in_indices, profiles, avals, counts, receivers, senders,
              j, delta_adj, delta_nonadj, lam, mu, tie_eps,
              ev_node, ev_src, ev_old, ev_new, ev_p):
    """Non-adjacent sweep: every sampled receiver hears every sampled sender.

    Receivers are taken in the order given (ascending, from the engine),
    each hearing the senders in order with self-pairs skipped, so a
    receiver that is also a sender is heard with the stance its own
    messages left. delta is delta_adj when the pair is an edge v -> q (v
    in the in-row of q), delta_nonadj otherwise. The receivers are
    distinct, and so are the senders (the engine samples both without
    replacement). Every sender's stance on topic j is known (the engine
    samples them among the spreaders), so a receiver that is also a sender
    is known too. Returns the event count.

    The receivers are planned a window at a time (see the module
    docstring): at most ``_PLAN_CELLS`` cells, and up to twice as many
    receivers as held to their end just before the window. A window of
    fewer than ``_MIN_PLAN`` receivers goes through the per-receiver loop
    one receiver at a time, as a plan would cost more than it saves; that
    minimum doubles after each plan in which a receiver moved, so a pass
    whose receivers keep moving is rarely planned.
    """
    n_rows = receivers.shape[0]
    s = senders.shape[0]
    if n_rows == 0 or s == 0:
        return 0
    ps = _NadjPass(in_indptr, in_indices, profiles, avals, counts, receivers,
                   senders, j, delta_adj, delta_nonadj, lam, mu, tie_eps,
                   (ev_node, ev_src, ev_old, ev_new, ev_p))
    cap = max(1, _PLAN_CELLS // s)
    streak = n_rows  # the receivers before r that held to their end
    need = _MIN_PLAN
    r = 0
    while r < n_rows:
        end = min(n_rows, r + cap, r + 2 * streak)
        if end - r < need:
            streak = streak + 1 if ps.finish(r, None, 0, 0) else 0
            r += 1
            continue
        held = ps.plan(r, end)
        moved = np.flatnonzero(~held)
        if moved.shape[0]:
            streak = held.shape[0] - 1 - moved[-1]
            need *= 2
        else:
            streak += held.shape[0]
            need = _MIN_PLAN
        r += held.shape[0]
    return int(ps.starts[-1])
