"""Efficiency and environmental indicators for a matching solution.

Eight indicators per solution: occupancy rate (passenger-km over vehicle-km),
carpooling rate, average delay (minutes) and detour (meters) over pooled
trips, detour ratio, fare discount ratio, and factor-based emissions and fuel
totals.  Emission/fuel factors are plain per-vehicle-km configuration values,
not an emission-model reimplementation.
"""

import json

from dataclasses import dataclass, fields

from .baselines import MatchingSolution

METRIC_NAMES = (
    "occupancy_rate",
    "carpooling_rate",
    "avg_delay_min",
    "avg_detour_m",
    "detour_ratio",
    "discount_ratio",
    "emissions_g",
    "fuel_l",
)


@dataclass(frozen=True)
class CostFactors:
    emission_g_per_km: float = 192.0
    fuel_l_per_km: float = 0.08
    fare_per_km: float = 2.5

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class TripOutcome:
    """Per-trip ledger entry: what the rider experienced vs. their solo trip."""

    trip_id: int
    shared: bool
    solo_distance: float
    solo_time: float
    actual_in_vehicle_distance: float
    actual_door_to_door_time: float
    fare_solo: float
    fare_paid: float


@dataclass(frozen=True)
class MetricsReport:
    occupancy_rate: float
    carpooling_rate: float
    avg_delay_min: float
    avg_detour_m: float
    detour_ratio: float
    discount_ratio: float
    emissions_g: float
    fuel_l: float

    def as_dict(self):
        return {name: getattr(self, name) for name in METRIC_NAMES}


def vehicle_km(solution: MatchingSolution) -> float:
    """Total vehicle route distance in meters (singletons ride their solo route)."""
    return sum(solution.routes[g].total_distance for g in solution.groups)


def build_outcomes(solution: MatchingSolution, trips, factors: CostFactors = CostFactors()):
    """Derive per-trip outcomes from the solution's routed groups.

    Pooled fares split the vehicle route cost in proportion to each rider's
    solo distance; solo trips pay their solo fare.
    """
    outcomes = []
    for group in solution.groups:
        route = solution.routes[group]
        shared = len(group) > 1
        group_solo = sum(trips[tid].solo_route.distance for tid in group)
        for tid in sorted(group):
            trip = trips[tid]
            solo_d = trip.solo_route.distance
            solo_t = trip.solo_route.time
            fare_solo = factors.fare_per_km * solo_d / 1000.0
            if shared:
                in_vehicle = solo_d + route.per_rider_detour[tid]
                door_to_door = solo_t + route.per_rider_delay[tid]
                fare_paid = factors.fare_per_km * (route.total_distance / 1000.0) * (solo_d / group_solo)
            else:
                in_vehicle = solo_d
                door_to_door = solo_t
                fare_paid = fare_solo
            outcomes.append(
                TripOutcome(
                    trip_id=tid,
                    shared=shared,
                    solo_distance=solo_d,
                    solo_time=solo_t,
                    actual_in_vehicle_distance=in_vehicle,
                    actual_door_to_door_time=door_to_door,
                    fare_solo=fare_solo,
                    fare_paid=fare_paid,
                )
            )
    return outcomes


def compute_report(solution: MatchingSolution, outcomes, factors: CostFactors = CostFactors()) -> MetricsReport:
    """Aggregate the eight indicators; per-trip delay/detour floor at zero so
    riders who happen to gain cannot offset others' losses."""
    trip_ids = {tid for g in solution.groups for tid in g}
    by_id = {o.trip_id: o for o in outcomes}
    missing = sorted(trip_ids - set(by_id))
    if missing:
        raise ValueError(f"outcomes missing for trips {missing}")

    ordered = [by_id[tid] for tid in sorted(trip_ids)]
    vehicle_m = vehicle_km(solution)
    passenger_m = sum(o.actual_in_vehicle_distance for o in ordered)
    shared = [o for o in ordered if o.shared]

    delays = [max(0.0, o.actual_door_to_door_time - o.solo_time) for o in shared]
    detours = [max(0.0, o.actual_in_vehicle_distance - o.solo_distance) for o in shared]
    shared_solo_m = sum(o.solo_distance for o in shared)

    return MetricsReport(
        occupancy_rate=passenger_m / vehicle_m if vehicle_m > 0.0 else 0.0,
        carpooling_rate=len(shared) / len(ordered) if ordered else 0.0,
        avg_delay_min=(sum(delays) / len(delays) / 60.0) if delays else 0.0,
        avg_detour_m=(sum(detours) / len(detours)) if detours else 0.0,
        detour_ratio=(sum(detours) / shared_solo_m) if shared_solo_m > 0.0 else 0.0,
        discount_ratio=(sum(1.0 - o.fare_paid / o.fare_solo for o in shared) / len(shared)) if shared else 0.0,
        emissions_g=vehicle_m / 1000.0 * factors.emission_g_per_km,
        fuel_l=vehicle_m / 1000.0 * factors.fuel_l_per_km,
    )


def write_report_csv(report: MetricsReport, path):
    """Flat `metric,value` records in fixed field order."""
    with open(path, "w") as fh:
        for name in METRIC_NAMES:
            fh.write(f"{name},{getattr(report, name):.9g}\n")


def write_report_json(report: MetricsReport, path):
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
