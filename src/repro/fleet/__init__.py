"""Multi-tenant fleet allocation on a shared pool of device classes.

``state`` holds the declarative model (tenants, the pool, arrival and
departure as value operations), ``allocator`` the two allocation modes
(the partition-then-allocate heuristic and the heuristic-seeded exact
partition search), and ``manager`` the stateful front the service mounts
(current fleet behind a lock, persistent solve memo, counters).
"""

from .allocator import (
    FLEET_MODES,
    FleetOutcome,
    FleetSettings,
    FleetSolveMemo,
    TenantAllocation,
    allocate_exact,
    allocate_fleet,
    allocate_heuristic,
    carve_shares,
    demand_weight,
)
from .manager import Conflict, FleetManager
from .state import (
    ClassShare,
    FleetState,
    Tenant,
    fleet_from_dict,
    fleet_to_dict,
    tenant_from_dict,
    tenant_to_dict,
)

__all__ = [
    "FLEET_MODES",
    "ClassShare",
    "Conflict",
    "FleetManager",
    "FleetOutcome",
    "FleetSettings",
    "FleetSolveMemo",
    "FleetState",
    "Tenant",
    "TenantAllocation",
    "allocate_exact",
    "allocate_fleet",
    "allocate_heuristic",
    "carve_shares",
    "demand_weight",
    "fleet_from_dict",
    "fleet_to_dict",
    "tenant_from_dict",
    "tenant_to_dict",
]
