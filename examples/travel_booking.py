#!/usr/bin/env python3
"""Travel-reservation workflow under failures (Section 6.2's first app).

Runs the ten-SSF travel workflow with aggressive crash injection and
shows that reservations are exactly-once: rooms taken == reservations
made, even though roughly a quarter of all execution attempts die
mid-flight.  Then uses the protocol advisor to confirm that this
read-intensive workload belongs on Halfmoon-read, and compares measured
request latency across protocols.

Run:  python examples/travel_booking.py
"""

import numpy as np

from repro import BernoulliCrashes, LocalRuntime, SystemConfig
from repro.analysis import ProtocolAdvisor, WorkloadProfile
from repro.simulation.metrics import LatencyRecorder
from repro.workloads import TravelReservationWorkload
from repro.workloads.travel import availability_key

REQUESTS = 40
CRASH_RATE = 0.25


def run(protocol: str, crash_rate: float = CRASH_RATE):
    runtime = LocalRuntime(SystemConfig(seed=2024), protocol=protocol)
    runtime.crash_policy = BernoulliCrashes(
        crash_rate, runtime.backend.rng.stream("crashes"), horizon=30
    )
    workload = TravelReservationWorkload(
        num_hotels=12, num_users=20, num_regions=3, reserve_fraction=0.8
    )
    workload.register(runtime)
    workload.populate(runtime)

    rng = np.random.default_rng(7)
    latency = LatencyRecorder(protocol)
    reserved = 0
    for _ in range(REQUESTS):
        request = workload.next_request(rng)
        result = runtime.invoke(request.func_name, request.input)
        latency.record(result.latency_ms)
        reserved += result.output["status"] == "reserved"

    probe = runtime.open_session().init()
    rooms_taken = sum(
        50 - probe.read(availability_key(i)) for i in range(12)
    )
    probe.finish()
    return {
        "latency": latency,
        "reserved": reserved,
        "rooms_taken": rooms_taken,
        "crashes": runtime.crash_policy.crashes_fired,
        "log_appends": runtime.backend.log.append_count,
    }


def main() -> None:
    print(f"Travel reservation: {REQUESTS} requests, "
          f"{CRASH_RATE:.0%} of attempts crash mid-flight\n")
    results = {}
    for protocol in ("boki", "halfmoon-read", "halfmoon-write"):
        outcome = run(protocol)
        results[protocol] = outcome
        print(f"{protocol:15s} median={outcome['latency'].median():6.1f}ms "
              f"p99={outcome['latency'].p99():6.1f}ms "
              f"crashes={outcome['crashes']:2d} "
              f"reservations={outcome['reserved']} "
              f"rooms_taken={outcome['rooms_taken']} "
              f"log_appends={outcome['log_appends']}")
        assert outcome["reserved"] == outcome["rooms_taken"], (
            "exactly-once violated!"
        )

    print("\nExactly-once held for every protocol "
          "(reservations == rooms taken).")

    # Ask the advisor which protocol fits this workload.
    workload = TravelReservationWorkload()
    reads, writes = workload.read_write_profile()
    print(f"\nworkload read ratio: {workload.read_ratio():.2f} "
          f"(advisor boundary: 2/3)")
    recommendation = ProtocolAdvisor().recommend(
        WorkloadProfile(
            p_read=min(1.0, reads / (reads + writes)),
            p_write=min(1.0, writes / (reads + writes)),
            arrival_rate_per_s=300.0,
        )
    )
    print(f"advisor: {recommendation.explain()}")

    best = min(
        ("halfmoon-read", "halfmoon-write"),
        key=lambda p: results[p]["latency"].median(),
    )
    print(f"measured best protocol: {best}")
    assert best == recommendation.protocol == "halfmoon-read"
    gain = 1 - (results[best]["latency"].median()
                / results["boki"]["latency"].median())
    print(f"median latency vs Boki: {gain:.0%} lower")


if __name__ == "__main__":
    main()
