"""Benchmark workloads: synthetic microbenchmarks and the three
application workloads of Section 6.2.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Request", "Workload", "ZipfSampler"),
    ".generator": ("Phase", "PhasedSchedule", "PoissonArrivals"),
    ".movie": ("MovieReviewWorkload",),
    ".retwis": ("RetwisWorkload",),
    ".skew": ("DiurnalCurve", "SkewedWorkload", "skew_touch_ssf"),
    ".synthetic": (
        "MixedRatioWorkload", "ReadWriteMicrobench", "mixed_ssf",
        "rw_microbench_ssf",
    ),
    ".travel": ("TravelReservationWorkload",),
})

__all__ = [
    "DiurnalCurve",
    "MixedRatioWorkload",
    "MovieReviewWorkload",
    "Phase",
    "PhasedSchedule",
    "PoissonArrivals",
    "ReadWriteMicrobench",
    "Request",
    "RetwisWorkload",
    "SkewedWorkload",
    "TravelReservationWorkload",
    "Workload",
    "ZipfSampler",
    "mixed_ssf",
    "rw_microbench_ssf",
    "skew_touch_ssf",
]
