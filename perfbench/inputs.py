"""Seeded inputs of every workload: the same seed gives the same traffic.

The program under test only ever sees the generated requests; the seed
stays on the benchmark's side.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro import ExactSettings
from repro.reporting.experiments import case_study
from repro.service import SolveRequest
from repro.workloads.tenants import synthetic_fleet, synthetic_tenant

APPS = ("alex-16", "alex-32", "vgg-16")
#: Resource limits are drawn from this range (percent).  Below 50% alex-32
#: has no feasible allocation, so every outcome can be checked as a success.
LIMIT_RANGE = (50.0, 95.0)
#: The runtime table's exact settings.
EXACT_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)
#: One cold batch: two problems of each (app, method).  vgg-16 with
#: ``minlp`` is left out: at a few limits it takes seconds instead of
#: milliseconds, and one such instance would set the length of a whole run.
COLD_COMBOS = (
    ("alex-16", "gp+a"), ("alex-32", "gp+a"), ("vgg-16", "gp+a"),
    ("alex-16", "minlp"), ("alex-32", "minlp"),
    ("alex-16", "minlp+g"), ("alex-32", "minlp+g"), ("vgg-16", "minlp+g"),
)
FLEET_POOL = (3, 3)
FLEET_TENANTS = 4
_TENANT_WEIGHTS = (2.0, 1.0, 0.5)


@dataclass(frozen=True)
class Size:
    """How much traffic one op carries, and how many servers a run sets up
    (``setup_s`` is the median of their set-up times)."""

    warm_unique: int = 64
    warm_batch: int = 1000
    cold_per_combo: int = 2
    setups: int = 5


FULL = Size()
#: For the benchmark's own smoke tests.
TINY = Size(warm_unique=6, warm_batch=40, cold_per_combo=1, setups=1)


def request(app: str, limit: float, method: str = "gp+a") -> SolveRequest:
    """A freshly built request (new problem object, nothing memoized)."""
    return SolveRequest(
        problem=case_study(app, limit),
        method=method,
        exact_settings=None if method == "gp+a" else EXACT_SETTINGS,
    )


class WarmTraffic:
    """``unique`` distinct gp+a problems; every batch draws ``batch`` of them."""

    def __init__(self, seed: int, size: Size):
        self.rng = random.Random(seed)
        low, high = (int(bound * 10) for bound in LIMIT_RANGE)
        limits = [value / 10.0 for value in self.rng.sample(range(low, high + 1), size.warm_unique)]
        self.specs = [(APPS[index % len(APPS)], limit) for index, limit in enumerate(limits)]
        self.batch_size = size.warm_batch

    def unique_requests(self) -> list[SolveRequest]:
        return [request(app, limit) for app, limit in self.specs]

    def batch(self) -> tuple[list[SolveRequest], list[int]]:
        """Fresh requests for one batch, and which unique problem each is.

        Every unique problem appears ``batch // unique`` times and a seeded
        choice of them once more, in seeded order.
        """
        unique = len(self.specs)
        picks = list(range(unique)) * (self.batch_size // unique)
        picks += self.rng.sample(range(unique), self.batch_size % unique)
        self.rng.shuffle(picks)
        problems = [request(app, limit) for app, limit in self.specs]
        requests = [
            SolveRequest(problem=problems[pick].problem, method=problems[pick].method)
            for pick in picks
        ]
        return requests, picks


class ColdTraffic:
    """Batches of problems never sent before in the run, plus fleet events."""

    def __init__(self, seed: int, size: Size):
        self.rng = random.Random(seed)
        self.per_combo = size.cold_per_combo
        self.seen: set[tuple[str, str, float]] = set()
        self.fleet_seed = seed
        self.tenants: deque[str] = deque()
        self.next_tenant = FLEET_TENANTS
        self.arrive_next = True

    def batch(self) -> list[SolveRequest]:
        requests = []
        for app, method in COLD_COMBOS:
            for _ in range(self.per_combo):
                while True:
                    limit = round(self.rng.uniform(*LIMIT_RANGE), 3)
                    if (app, method, limit) not in self.seen:
                        break
                self.seen.add((app, method, limit))
                requests.append(request(app, limit, method))
        return requests

    def initial_fleet(self):
        fleet = synthetic_fleet(
            num_tenants=FLEET_TENANTS, class_counts=FLEET_POOL, seed=self.fleet_seed
        )
        self.tenants = deque(fleet.tenant_ids)
        return fleet

    def fleet_event(self):
        """The next event: ``("arrival", tenant)`` or ``("departure", id)``,
        with the tenant ids the fleet must list afterwards."""
        if self.arrive_next:
            index = self.next_tenant
            self.next_tenant += 1
            tenant = synthetic_tenant(
                tenant_id=f"tenant-{index}",
                weight=_TENANT_WEIGHTS[index % len(_TENANT_WEIGHTS)],
                seed=self.fleet_seed * 1000 + index,
            )
            self.tenants.append(tenant.id)
            event = ("arrival", tenant)
        else:
            event = ("departure", self.tenants.popleft())
        self.arrive_next = not self.arrive_next
        return event, list(self.tenants)
