"""Shared pieces of the workloads: the outcome record and its summaries."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def envelope() -> dict:
    """What the figures depend on besides the code."""
    from repro.estimator.backend import have_numpy
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": "numpy" if have_numpy() else "pure-python",
            "platform": sys.platform}


class Outcome:
    """What one workload run hands to the report.

    ``attempted``/``failed`` count operations (a pipeline cell, or one
    served operation such as a token chain); ``problems`` names the
    checks that failed; ``metrics`` maps a metric name to its value and
    ``samples`` to the sample count behind it, where it is a percentile
    or a mean.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.spans = None            #: SpanRecorder of a traced run

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def put(self, name: str, value: float, samples: int | None = None):
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = samples
