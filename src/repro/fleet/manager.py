"""Stateful fleet front for the service: current fleet + persistent memo.

The HTTP layer mounts one :class:`FleetManager`.  It holds the current
:class:`~repro.fleet.state.FleetState` behind a lock, runs allocations
through a **persistent** :class:`~repro.fleet.allocator.FleetSolveMemo`,
and counts everything the ``/stats`` and ``/metrics`` surfaces report.

The memo is what makes tenant arrival/departure incremental: re-carving
after an arrival recomputes every share, but any ``(tenant, share)`` pair
that did not change is answered from the memo instead of re-solved -- only
the tenants whose shares actually moved pay solver time.  Departures (and
re-arrivals under a reused id) forget just that tenant's entries, so the
memo never serves a stale application.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from .allocator import (
    FLEET_MODES,
    FleetOutcome,
    FleetSettings,
    FleetSolveMemo,
    allocate_fleet,
)
from .state import FleetState, Tenant


class Conflict(RuntimeError):
    """A well-formed request that conflicts with the current fleet state
    (HTTP 409), e.g. a tenant operation before any fleet was allocated."""


class FleetManager:
    """Current fleet + persistent solve memo + counters, all thread-safe."""

    def __init__(
        self,
        fleet: FleetState | None = None,
        settings: FleetSettings | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._fleet = fleet
        self._settings = settings or FleetSettings()
        self._memo = FleetSolveMemo()
        self._allocations_by_mode = {mode: 0 for mode in FLEET_MODES}
        self._arrivals = 0
        self._departures = 0
        self._last_outcome: FleetOutcome | None = None

    # ------------------------------------------------------------------ #
    # Fleet state
    # ------------------------------------------------------------------ #
    @property
    def fleet(self) -> FleetState | None:
        with self._lock:
            return self._fleet

    def set_fleet(self, fleet: FleetState) -> None:
        """Replace the whole fleet (memo reset: any tenant may have changed)."""
        with self._lock:
            self._fleet = fleet
            self._memo = FleetSolveMemo()
            self._last_outcome = None

    def add_tenant(self, tenant: Tenant) -> FleetState:
        """Tenant arrival; returns the new fleet snapshot."""
        with self._lock:
            if self._fleet is None:
                raise Conflict("no fleet configured; POST /fleet/allocate first")
            # A reused id must not be served from the departed tenant's memo.
            self._memo.forget_tenant(tenant.id)
            self._fleet = self._fleet.with_tenant(tenant)
            self._arrivals += 1
            return self._fleet

    def remove_tenant(self, tenant_id: str) -> FleetState:
        """Tenant departure; returns the new fleet snapshot."""
        with self._lock:
            if self._fleet is None:
                raise Conflict("no fleet configured; POST /fleet/allocate first")
            self._fleet = self._fleet.without_tenant(tenant_id)
            self._memo.forget_tenant(tenant_id)
            self._departures += 1
            return self._fleet

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _install_locked(self, fleet: FleetState) -> None:
        """Make ``fleet`` current, keeping as much of the memo as is safe.

        Same pool + same tenant objects (the arrival/departure fast path)
        keeps everything; a changed pool invalidates every share, a changed
        tenant only that tenant's entries.
        """
        if fleet == self._fleet:
            return
        if self._fleet is None or fleet.classes != self._fleet.classes:
            self._memo = FleetSolveMemo()
        else:
            known = {tenant.id: tenant for tenant in self._fleet.tenants}
            for tenant in fleet.tenants:
                if known.get(tenant.id) is not tenant:
                    self._memo.forget_tenant(tenant.id)
        self._fleet = fleet

    def allocate(
        self, fleet: FleetState | None = None, mode: str = "heuristic"
    ) -> FleetOutcome:
        """Allocate ``fleet`` (or the current one), updating state + counters.

        Passing a fleet installs it as the current state first (see
        :meth:`_install_locked` for what survives of the memo).
        """
        with self._lock:
            if fleet is not None:
                self._install_locked(fleet)
            if self._fleet is None:
                raise Conflict("no fleet to allocate")
            snapshot = self._fleet
            memo = self._memo
        outcome = allocate_fleet(snapshot, mode=mode, settings=self._settings, memo=memo)
        with self._lock:
            self._allocations_by_mode[mode] += 1
            self._last_outcome = outcome
        return outcome

    def adopt(self, fleet: FleetState, outcome: FleetOutcome, mode: str) -> None:
        """Install a fleet whose allocation was answered from the cache.

        Counters move exactly as for a computed allocation -- the service's
        cache hit is still one served fleet allocation -- but no solver runs.
        """
        with self._lock:
            self._install_locked(fleet)
            self._allocations_by_mode[mode] += 1
            self._last_outcome = outcome

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        with self._lock:
            fleet = self._fleet
            last = self._last_outcome
            objective = None
            if last is not None and math.isfinite(last.objective):
                objective = last.objective
            return {
                "tenants": len(fleet.tenants) if fleet is not None else 0,
                "devices": fleet.total_devices if fleet is not None else 0,
                "allocations": sum(self._allocations_by_mode.values()),
                "heuristic_allocations": self._allocations_by_mode["heuristic"],
                "exact_allocations": self._allocations_by_mode["exact"],
                "arrivals": self._arrivals,
                "departures": self._departures,
                "tenant_solves": self._memo.solves,
                "memo_hits": self._memo.hits,
                "last_mode": last.mode if last is not None else None,
                "last_objective": objective,
            }
