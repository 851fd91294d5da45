"""Hot inner-loop kernels over numpy arrays.

The non-adjacent sweep (:func:`nadj_pass`) is a segment scan: between two
stance changes of a receiver, its messages are computed as whole arrays,
and the persistence recursion runs as a prefix sum (``np.cumsum``). Each
element goes through the same IEEE operations as the per-message
:func:`deliver` (the similarity is summed topic by topic, ``a - y`` is
``a + (-y)``, and ``add.accumulate`` adds strictly left to right), so the
scan and the scalar loop agree bit for bit.

The adjacent sweep (:func:`adjacent_pass`) is array code too. The
adjacency memory only grows during a sweep, so the receivers it reaches
are the first out-edge slot of each receiver not in memory when it
starts, found with ``np.repeat`` over the row lengths and a stable
argsort. A message writes only its receiver's topic j, and each receiver
gets one message, so a message depends on an earlier one only when its
sender was that message's receiver. Messages go out level by level along
these dependencies, a level at a time as whole arrays
(:func:`_deliver_many`), with every input read before any write and the
IEEE operations of :func:`deliver` in its order, so the sweep and the
per-edge loop agree bit for bit.

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
    z = profiles.shape[1]
    acc = 0.0
    for i in range(z):
        d = profiles[u, i] - profiles[v, i]
        acc += d * d
    sq = math.sqrt(z)
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
    t_u = profiles[v, j]
    old = profiles[q, j]
    p = delta * similarity(profiles, v, q) * stance_factor(old, t_u, lam, mu)
    k = counts[q, j] + 1
    counts[q, j] = k
    a = persistence_update(avals[q, j], k, old, t_u, p)
    avals[q, j] = a
    new = transition(old, t_u, p, a, tie_eps)
    profiles[q, j] = new
    return old, new, p


def _deliver_many(profiles, avals, counts, q, v, j, delta, lam, mu, tie_eps):
    """Deliver the messages ``v[i] -> q[i]`` on topic j as whole arrays.

    The receivers are distinct. Every input is gathered before any write, so
    a sender that is also a receiver here is read with its stance from
    before the call. Each element goes through the IEEE operations of
    :func:`deliver` in the same order. Returns (old, new, p).
    """
    z = profiles.shape[1]
    sq = math.sqrt(z)
    t_u = profiles[v, j]
    old = profiles[q, j]
    acc = np.zeros(q.shape[0])
    for i in range(z):
        d = profiles[v, i] - profiles[q, i]
        acc = acc + d * d
    f = np.full(q.shape[0], mu)
    f[np.abs(old - t_u) <= 0.5] = lam
    f[(old == -1.0) | (old == 0.5) | (old == t_u)] = 1.0
    p = (delta * (sq / (sq + np.sqrt(acc)))) * f
    # persistence_update, then transition
    k = counts[q, j] + 1
    same = (t_u == old).astype(np.float64)
    a = avals[q, j] - (np.abs(t_u - old) * p - same * p) / k
    a[a < 0.0] = 0.0
    a[a > 1.0] = 1.0
    eps = np.full(q.shape[0], tie_eps)
    eps[p > a] = 1.0
    eps[p < a] = 0.0
    new = old - eps * 0.5
    oppose = old == 0.0
    new[oppose] = old[oppose] + eps[oppose] * 0.5
    new[t_u == old] = old[t_u == old]
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


def _hold_scan(profiles, avals, counts, q, senders, delta, j, lam, mu,
               ev_node, ev_src, ev_old, ev_new, ev_p, n_ev):
    """Deliver messages from ``senders`` to q for as long as q's stance holds.

    q's stance on topic j is known. With it fixed, the influence p of every
    sender and the persistence step y of every message are whole arrays,
    and a <- a - y is ``np.cumsum`` over ``[a, -y_1, -y_2, ...]``. A step
    that takes a above 1 is clamped to 1 as the scalar step clamps it, and
    the sum restarts from 1. The scan stops before the first message that
    may move q (its sender holds another stance and p >= a) or takes a
    below 0; stopping early is always exact, as :func:`deliver` then takes
    that message. Writes the events and returns (messages delivered, new
    event count).
    """
    z = profiles.shape[1]
    sq = math.sqrt(z)
    old = profiles[q, j]
    t_u = profiles[senders, j]
    acc = np.zeros(senders.shape[0])
    for i in range(z):
        d = profiles[senders, i] - profiles[q, i]
        acc = acc + d * d
    f = np.full(senders.shape[0], 1.0)
    if old != 0.5:
        f[:] = mu
        f[np.abs(old - t_u) <= 0.5] = lam
        f[t_u == old] = 1.0
    p = (delta * (sq / (sq + np.sqrt(acc)))) * f
    same = (t_u == old).astype(np.float64)
    k = counts[q, j] + 1 + np.arange(senders.shape[0])
    y = (np.abs(t_u - old) * p - same * p) / k
    may_move = t_u != old

    total = senders.shape[0]
    a = avals[q, j]
    done = 0
    while done < total:
        steps = np.empty(total - done + 1)
        steps[0] = a
        steps[1:] = -y[done:]
        run = np.cumsum(steps)[1:]
        hits = np.flatnonzero((may_move[done:] & (p[done:] >= run))
                              | (run < 0.0) | (run > 1.0))
        stop = done + hits[0] if hits.shape[0] > 0 else total
        # a above 1 is clamped to 1 and the scan goes on; a stays exactly 1
        # while the steps are <= 0, so the clamped run ends at the first
        # step > 0 (or a message that may move q at a = 1)
        clamped = (stop < total and run[stop - done] > 1.0
                   and not (may_move[stop] and p[stop] >= 1.0))
        end = stop
        if clamped:
            back = np.flatnonzero((y[stop:] > 0.0)
                                  | (may_move[stop:] & (p[stop:] >= 1.0)))
            end = stop + back[0] if back.shape[0] > 0 else total
        if end > done:
            n_end = n_ev + end - done
            ev_node[n_ev:n_end] = q
            ev_src[n_ev:n_end] = senders[done:end]
            ev_old[n_ev:n_end] = old
            ev_new[n_ev:n_end] = old
            ev_p[n_ev:n_end] = p[done:end]
            n_ev = n_end
            a = 1.0 if clamped else run[end - 1 - done]
        done = end
        if not clamped:
            break
    avals[q, j] = a
    counts[q, j] += done
    return done, n_ev


def nadj_pass(in_indptr, in_indices, profiles, avals, counts, receivers, senders,
              j, delta_adj, delta_nonadj, lam, mu, tie_eps,
              ev_node, ev_src, ev_old, ev_new, ev_p):
    """Non-adjacent sweep: every sampled receiver hears every sampled sender.

    Receivers are taken in the order given (ascending, from the engine),
    each hearing the senders in order with self-pairs skipped, so a
    receiver that is also a sender is heard with the stance its own scan
    left. delta is delta_adj when the
    pair is an edge v -> q (v in the in-row of q), delta_nonadj otherwise.

    Segment scan: :func:`_hold_scan` delivers the messages that cannot
    move q's stance as arrays; the message that may move it goes through
    the scalar :func:`deliver`, and the scan restarts after it with q's
    new stance. An unknown receiver moves on any message, so its first
    message always goes through :func:`deliver`. After a hold shorter than
    ``_SHORT_HOLD`` messages, the next ``_SHORT_HOLD`` messages go through
    :func:`deliver` too. Returns the event count.
    """
    n_ev = 0
    for qi in range(receivers.shape[0]):
        q = receivers[qi]
        sv = senders[senders != q]
        delta = np.full(sv.shape[0], delta_nonadj)
        row = in_indices[in_indptr[q]:in_indptr[q + 1]]
        if row.shape[0] > 0:
            pos = np.minimum(np.searchsorted(row, sv), row.shape[0] - 1)
            delta[row[pos] == sv] = delta_adj
        start = 0
        scan_from = 0
        while start < sv.shape[0]:
            if start >= scan_from and profiles[q, j] != -1.0:
                held, n_ev = _hold_scan(profiles, avals, counts, q, sv[start:],
                                        delta[start:], j, lam, mu, ev_node,
                                        ev_src, ev_old, ev_new, ev_p, n_ev)
                start += held
                if held < _SHORT_HOLD:
                    scan_from = start + _SHORT_HOLD
            if start < sv.shape[0]:
                v = sv[start]
                old, new, p = deliver(profiles, avals, counts, q, v, j,
                                      delta[start], lam, mu, tie_eps)
                ev_node[n_ev] = q
                ev_src[n_ev] = v
                ev_old[n_ev] = old
                ev_new[n_ev] = new
                ev_p[n_ev] = p
                n_ev += 1
                start += 1
    return n_ev
