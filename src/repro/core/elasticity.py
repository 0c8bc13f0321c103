"""Query-processing elasticity: admission control and region leasing.

The paper defers "query processing elasticity" to future work (§1).  This
module provides the mechanism: instead of failing when all dynamic regions
are busy, tenants can *wait* for a region lease, and short-lived query
threads can attach/detach without holding a region idle.

:class:`RegionLeaseManager` wraps one node — or a whole
:class:`~repro.core.cluster.FarviewCluster` — with an admission queue:

* :meth:`acquire` — a process that resolves to an open connection as soon
  as a region frees up.  With multiple nodes it *balances*: each lease
  lands on the node with the most free dynamic regions (ties broken
  toward the node that has granted fewest leases, so a freshly added node
  drains the backlog first).
* :meth:`release` — closes the connection and wakes the next waiter;
* :meth:`with_lease` — convenience process: acquire, run a client
  function, release — the borrow pattern compute-side query threads use.

Two admission policies share the queue mechanics:

* ``policy="fifo"`` (default) — strict arrival order, no starvation.
  This is the exact pre-serving-layer behaviour, so existing
  simulations stay pinned.
* ``policy="fair"`` — start-time fair queueing over the ``tenant`` /
  ``weight`` pair passed to :meth:`acquire`: each ticket gets a virtual
  finish tag ``start + 1/weight`` where ``start`` chains per tenant, and
  the earliest finish tag is granted first.  A tenant with weight *w*
  gets *w* grants per one grant of a weight-1 tenant under contention,
  and every tag is finite, so no tenant starves.

Liveness and fairness guarantees (the PR-10 bugfixes):

* a waiter is woken by node *recovery* as well as by releases — a queue
  parked while every node is down drains as soon as one comes back
  (:meth:`FarviewNode.add_recover_listener` hook);
* an ``open_connection`` failure on the picked node immediately retries
  the *other* candidate nodes before parking;
* a woken waiter whose grant attempt fails transiently re-parks at its
  original queue position (FIFO) / with its original finish tag (fair) —
  it never loses its turn to a newcomer.

Placement is greedy load balancing, not partition-aware routing: a lease
is a :class:`~repro.core.api.FarviewClient` — the one client over a
single session, so it talks to exactly one node and its tables are
one-shard handles.  Query threads that need scatter-gather over a
many-shard table construct the same client with
:class:`~repro.core.api.ClusterClient`, which holds one session (one
region) on *every* node for the duration of the connection.

Accounting surfaces for the tests and experiments: ``leases_granted``
(total), ``leases_per_node`` (live leases per node, the balance the tests
assert on), ``live_leases``, ``max_queue_depth`` and ``queued``.  The
invariant ``sum(leases_per_node) == live_leases`` holds at every quiesced
point (the chaos machine asserts it).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Sequence

from ..common.errors import FaultError, QueryError, RegionUnavailableError
from ..sim.engine import Event, Simulator
from .api import FarviewClient
from .node import FarviewNode

POLICIES = ("fifo", "fair")


class _Ticket:
    """One parked acquire: the wake event plus its scheduling identity.

    The event is one-shot, so a requeue mints a fresh one — but ``seq``
    (FIFO position) and ``start``/``finish`` (fair-queueing tags) are
    minted once and survive requeues: a transient grant failure must not
    cost the waiter its turn.
    """

    __slots__ = ("event", "tenant", "weight", "seq", "start", "finish")

    def __init__(self, event: Event, tenant, weight: float, seq: int,
                 start: float, finish: float):
        self.event = event
        self.tenant = tenant
        self.weight = weight
        self.seq = seq
        self.start = start
        self.finish = finish


class RegionLeaseManager:
    """Admission control over the dynamic regions of a node pool.

    ``target`` may be a single :class:`FarviewNode`, a
    :class:`~repro.core.cluster.FarviewCluster`, or any sequence of nodes
    sharing one simulator.  The single-node behaviour (and the ``node``
    attribute) is unchanged from the pre-cluster version.
    """

    def __init__(self, target,
                 buffer_capacity: int = 8 * 1024 * 1024,
                 policy: str = "fifo"):
        if policy not in POLICIES:
            raise QueryError(
                f"unknown admission policy {policy!r}; choose from {POLICIES}")
        self.nodes: list[FarviewNode] = _resolve_nodes(target)
        self.sim: Simulator = self.nodes[0].sim
        self.buffer_capacity = buffer_capacity
        self.policy = policy
        self._waiters: deque[_Ticket] = deque()
        #: Waiters woken by a release but not yet resumed; newcomers must
        #: not barge into this handoff window.
        self._handoffs = 0
        #: Live leases: client -> node index (only clients this manager
        #: granted may be released through it).
        self._live: dict[int, tuple[FarviewClient, int]] = {}
        self.leases_granted = 0
        #: Live (currently held) leases per node — the balance metric.
        self.leases_per_node: list[int] = [0] * len(self.nodes)
        self.max_queue_depth = 0
        self._seq = itertools.count()
        # Fair-queueing state: global virtual time plus each tenant's
        # last finish tag (a tenant's tickets chain, so a heavy tenant
        # cannot monopolize the queue by submitting in bulk).
        self._vtime = 0.0
        self._tenant_finish: dict = {}
        # Liveness: recovery of any pooled node must wake parked waiters
        # that no release would ever wake.  The listener list is empty
        # by default, so unused managers add zero cost to the node.
        for node in self.nodes:
            node.add_recover_listener(self._on_node_recover)

    # -- placement ---------------------------------------------------------
    def _pick_node(self, exclude: set[int] | None = None) -> int | None:
        """Index of the best node with a free region, or None if all busy.

        Most free regions wins; ties go to the node holding the fewest
        live leases, then the lowest index (deterministic placement).
        ``exclude`` skips nodes whose open already failed this attempt.
        """
        best: int | None = None
        for i, node in enumerate(self.nodes):
            if node.failed or node.free_regions <= 0:
                continue
            if exclude is not None and i in exclude:
                continue
            if best is None:
                best = i
                continue
            key = (-node.free_regions, self.leases_per_node[i], i)
            best_key = (-self.nodes[best].free_regions,
                        self.leases_per_node[best], best)
            if key < best_key:
                best = i
        return best

    def _try_grant(self) -> FarviewClient | None:
        """Open a lease on the best node, falling through the candidate
        list when an open fails transiently (retry the *other* nodes
        immediately rather than parking while capacity exists)."""
        tried: set[int] = set()
        while True:
            index = self._pick_node(tried if tried else None)
            if index is None:
                return None
            try:
                client = FarviewClient(self.nodes[index],
                                       self.buffer_capacity)
                client.open_connection()
            except (RegionUnavailableError, FaultError):
                # A region counted free but could not be acquired (e.g.
                # a draining state), or the node died between the pick
                # and the open: strike this node and try the rest of the
                # pool before giving up.
                tried.add(index)
                continue
            self.leases_granted += 1
            self.leases_per_node[index] += 1
            self._live[id(client)] = (client, index)
            return client

    # -- queue mechanics ---------------------------------------------------
    def _make_ticket(self, tenant, weight: float) -> _Ticket:
        start = max(self._vtime, self._tenant_finish.get(tenant, 0.0))
        finish = start + 1.0 / weight
        self._tenant_finish[tenant] = finish
        return _Ticket(self.sim.event(), tenant, weight,
                       next(self._seq), start, finish)

    def _park(self, ticket: _Ticket, *, requeue: bool) -> None:
        """Queue a ticket.  ``requeue`` re-parks a woken waiter whose
        grant failed transiently: it is inserted back in ``seq`` order —
        ahead of every newcomer, and in arrival order relative to other
        re-parked waiters (two waiters woken by the same burst of
        releases may both fail and re-park in the same instant; blind
        append-left would swap them).  Under fair queueing position is
        irrelevant — the finish tag (unchanged across requeues) decides.
        """
        if requeue:
            spot = 0
            while (spot < len(self._waiters)
                   and self._waiters[spot].seq < ticket.seq):
                spot += 1
            self._waiters.insert(spot, ticket)
        else:
            self._waiters.append(ticket)
        self.max_queue_depth = max(self.max_queue_depth, len(self._waiters))

    def _pop_next(self) -> _Ticket:
        """The next waiter to wake under the active policy."""
        if self.policy == "fifo" or len(self._waiters) == 1:
            return self._waiters.popleft()
        best = min(range(len(self._waiters)),
                   key=lambda i: (self._waiters[i].finish,
                                  self._waiters[i].seq))
        ticket = self._waiters[best]
        del self._waiters[best]
        self._vtime = max(self._vtime, ticket.start)
        return ticket

    def _wake_next(self) -> None:
        self._handoffs += 1
        self._pop_next().event.succeed()

    def _on_node_recover(self, _node: FarviewNode) -> None:
        """Liveness hook: a recovered node's free regions can serve parked
        waiters that no release would ever wake (e.g. the whole pool was
        down while they queued, with zero leases outstanding)."""
        if not self._waiters:
            return
        free = sum(node.free_regions for node in self.nodes
                   if not node.failed)
        while self._waiters and self._handoffs < free:
            self._wake_next()

    # -- lease lifecycle ---------------------------------------------------
    def acquire(self, tenant=None, weight: float = 1.0):
        """Process: resolves to a connected :class:`FarviewClient` on the
        least-loaded node with a free region.

        A new arrival never barges past already-queued waiters — it only
        tries the fast path when the queue is empty; a waiter woken by a
        release (or a node recovery) keeps its turn even if its grant
        attempt fails transiently and it has to re-park.

        ``tenant``/``weight`` feed the ``"fair"`` policy (ignored under
        FIFO): grants are ordered by virtual finish tags, so a tenant
        with weight *w* receives *w* grants per weight-1 grant under
        contention.
        """
        if weight <= 0:
            raise QueryError(f"lease weight must be positive: {weight}")
        my_turn = not self._waiters and not self._handoffs
        ticket: _Ticket | None = None
        while True:
            if my_turn:
                client = self._try_grant()
                if client is not None:
                    return client
            if ticket is None:
                ticket = self._make_ticket(tenant, weight)
                self._park(ticket, requeue=False)
            else:
                # Woken, but the grant failed transiently: keep the
                # original scheduling identity (seq + finish tag), mint
                # only a fresh one-shot event, and re-park in seq order —
                # the waiter must not lose its turn to a newcomer.
                ticket.event = self.sim.event()
                self._park(ticket, requeue=True)
            yield ticket.event  # woken by a release or a node recovery
            self._handoffs -= 1
            my_turn = True

    def release(self, client: FarviewClient) -> None:
        """Return the lease; wakes the next waiter under the policy.

        Only clients granted by :meth:`acquire` may be released here —
        a foreign client would corrupt the per-node balance accounting.
        """
        entry = self._live.pop(id(client), None)
        if entry is None:
            raise QueryError("client was not leased from this manager's pool")
        _, index = entry
        try:
            try:
                client.close_connection()
            except FaultError:
                # The node died while leased: the close RPC cannot reach
                # it.  Drop the client-side handle so the books stay
                # exact (sum(leases_per_node) == live_leases) — the
                # node-side state died with the incarnation.
                client.abandon_connection()
        finally:
            self.leases_per_node[index] -= 1
            if self._waiters:
                self._wake_next()

    def with_lease(self, fn, tenant=None, weight: float = 1.0):
        """Process: borrow a client, run ``fn`` (a process function taking
        the client), release — even if ``fn`` raises."""
        client = yield from self.acquire(tenant, weight)
        try:
            result = yield from fn(client)
        finally:
            self.release(client)
        return result

    # -- introspection -----------------------------------------------------
    @property
    def queued(self) -> int:
        return len(self._waiters)

    @property
    def live_leases(self) -> int:
        """Leases currently held — always ``sum(leases_per_node)``."""
        return len(self._live)

    @property
    def free_regions(self) -> int:
        return sum(node.free_regions for node in self.nodes)


def _resolve_nodes(target) -> list[FarviewNode]:
    """Normalize a node / cluster / sequence-of-nodes into a node list."""
    if isinstance(target, FarviewNode):
        return [target]
    nodes = list(getattr(target, "nodes", None)
                 or (target if isinstance(target, Sequence) else ()))
    if not nodes or not all(isinstance(n, FarviewNode) for n in nodes):
        raise QueryError(
            "RegionLeaseManager needs a FarviewNode, a FarviewCluster, or "
            f"a non-empty sequence of nodes; got {target!r}")
    sims = {id(n.sim) for n in nodes}
    if len(sims) != 1:
        raise QueryError("all pooled nodes must share one simulator")
    return nodes
