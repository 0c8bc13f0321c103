"""The tenant serving layer: sessions, front-door coalescing, fair admission.

The paper's evaluation drives six lockstep clients; a production pool
serves *thousands* of compute-side query threads.  This module is the
front door for that regime, built on the repaired admission path of
:class:`~repro.core.elasticity.RegionLeaseManager`:

* :class:`TenantSession` — one tenant's handle over the event loop:
  identity + fair-share weight, plus per-tenant submission/completion
  accounting.  Sessions submit work without touching simulator plumbing
  (:meth:`~TenantSession.submit` / :meth:`~TenantSession.submit_at`).
* :class:`FrontDoor` — admission + execution.  Each executed request
  borrows a lease (``manager.acquire``; under ``policy="fair"`` the
  tenant's weight drives start-time fair queueing), uploads the shape's
  table image into the leased region's protection domain, runs the query,
  and releases.  Protection domains are per connection (§4.4), so a
  shape's bytes are re-uploaded per execution — which is exactly what
  makes coalescing worth it.
* **Coalescing** — identical scans (same :class:`ScanShape`) submitted
  while one is in flight share its execution: followers park on the
  leader's gate event and receive the *same* result object (and sha256),
  so N tenants asking for one hot scan cost one region lease, one
  upload, one scan.  A leader failure propagates the same typed
  exception to every coalesced follower; the gate is removed before it
  triggers, so a late arrival starts a fresh execution rather than
  joining a completed one.
* :func:`~repro.workloads.generator.open_loop_arrivals` (workload layer)
  — seeded Poisson arrival schedules for open-loop load: arrivals keep
  coming at the offered rate whether or not earlier requests finished,
  which is what makes saturation and graceful degradation measurable
  (fig21).

Determinism: same shapes + same arrival schedule + same policy → the
same event sequence, the same grant order, and byte-identical results —
every served result is sha256-identical to a serial replay of its shape
(asserted by ``experiments/fig21_serving.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..common.errors import QueryError
from ..common.records import Schema
from ..sim.engine import Simulator
from .api import FarviewClient, canonical_result_bytes
from .elasticity import RegionLeaseManager
from .query import Query
from .table import FTable


@dataclass(frozen=True, eq=False)
class ScanShape:
    """One coalescable unit of work: a named table image plus a query.

    Two submissions coalesce iff they carry the *same shape object* (or
    one with the same ``name`` — the name is the coalescing key, so it
    must identify the (table bytes, query) pair uniquely).
    """

    name: str
    schema: Schema
    rows: np.ndarray
    query: Query


@dataclass
class ServingRecord:
    """One completed request, as the front door saw it."""

    tenant: object
    shape: str
    submitted_ns: float
    latency_ns: float
    sha256: str
    led: bool  # True: this request executed; False: it coalesced


class TenantSession:
    """One tenant's handle on the front door.

    Carries the tenant's identity and fair-share ``weight`` (forwarded to
    the lease manager's admission policy) and accounts its traffic:
    ``submitted`` / ``completed`` / ``failed`` counters plus per-request
    ``latencies_ns``.  A session with ``submitted > completed + failed``
    still has requests in flight; a drained run with
    ``completed == submitted`` everywhere has zero starved tenants.
    """

    def __init__(self, door: "FrontDoor", tenant, weight: float = 1.0):
        if weight <= 0:
            raise QueryError(f"session weight must be positive: {weight}")
        self.door = door
        self.sim: Simulator = door.sim
        self.tenant = tenant
        self.weight = weight
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.latencies_ns: list[float] = []

    def request_proc(self, shape: ScanShape):
        """Process: one request through the front door; returns the
        :class:`~repro.core.api.QueryResult` (shared when coalesced)."""
        result = yield from self.door.submit_proc(self, shape)
        return result

    def submit(self, shape: ScanShape):
        """Spawn a request now; returns its :class:`Process` handle."""
        return self.sim.process(self.request_proc(shape),
                                name=f"serve.{self.tenant}")

    def submit_at(self, at_ns: float, shape: ScanShape):
        """Spawn a request at absolute sim time ``at_ns`` (open loop:
        the arrival fires regardless of earlier requests' progress)."""
        def fire():
            delay = at_ns - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            result = yield from self.request_proc(shape)
            return result
        return self.sim.process(fire(), name=f"serve.{self.tenant}")


class FrontDoor:
    """Admission, batching and execution for many tenant sessions.

    ``manager`` supplies leases (and the admission policy — construct it
    with ``policy="fair"`` for weighted fair sharing); ``coalesce``
    toggles request batching of identical shapes (default on).
    """

    def __init__(self, manager: RegionLeaseManager, coalesce: bool = True):
        self.manager = manager
        self.sim: Simulator = manager.sim
        self.coalesce = coalesce
        #: shape name -> gate event of the in-flight execution.
        self._inflight: dict[str, object] = {}
        self.sessions: list[TenantSession] = []
        self.requests = 0
        self.coalesced = 0
        self.executions = 0
        self.records: list[ServingRecord] = []

    def session(self, tenant, weight: float = 1.0) -> TenantSession:
        session = TenantSession(self, tenant, weight)
        self.sessions.append(session)
        return session

    # -- request path ------------------------------------------------------
    def submit_proc(self, session: TenantSession, shape: ScanShape):
        """Process: serve one request, coalescing onto an in-flight
        execution of the same shape when possible."""
        submitted_ns = self.sim.now
        session.submitted += 1
        self.requests += 1
        gate = self._inflight.get(shape.name) if self.coalesce else None
        try:
            if gate is not None:
                self.coalesced += 1
                led = False
                result, sha = yield gate
            else:
                led = True
                result, sha = yield from self._lead_proc(session, shape)
        except BaseException:
            session.failed += 1
            raise
        latency = self.sim.now - submitted_ns
        session.completed += 1
        session.latencies_ns.append(latency)
        self.records.append(ServingRecord(
            tenant=session.tenant, shape=shape.name,
            submitted_ns=submitted_ns, latency_ns=latency,
            sha256=sha, led=led))
        return result

    def _lead_proc(self, session: TenantSession, shape: ScanShape):
        """Process: execute a shape as the coalescing leader.  The gate is
        removed *before* it triggers — followers that arrive after
        completion must start a fresh execution, never read a stale one."""
        gate = self.sim.event() if self.coalesce else None
        if gate is not None:
            self._inflight[shape.name] = gate
        try:
            result, sha = yield from self._execute_proc(session, shape)
        except BaseException as exc:
            if gate is not None:
                self._inflight.pop(shape.name, None)
                gate.fail(exc)  # propagate to every coalesced follower
            raise
        if gate is not None:
            self._inflight.pop(shape.name, None)
            gate.succeed((result, sha))
        return result, sha

    def _execute_proc(self, session: TenantSession, shape: ScanShape):
        """Process: borrow a lease, install the shape's table in the
        leased protection domain, run the query, release."""
        self.executions += 1

        def body(client: FarviewClient):
            table = FTable(shape.name, shape.schema, len(shape.rows))
            client.alloc_table_mem(table)
            yield from client.table_write_proc(table, shape.rows)
            result = yield from client.far_view_proc(table, shape.query)
            return result

        result = yield from self.manager.with_lease(
            body, tenant=session.tenant, weight=session.weight)
        sha = hashlib.sha256(canonical_result_bytes(result)).hexdigest()
        return result, sha

    # -- introspection -----------------------------------------------------
    def latencies_ns(self) -> list[float]:
        return [record.latency_ns for record in self.records]
