"""Sample statistics, name rules, failure accounting and the host probe."""

from __future__ import annotations

import math
import re
import statistics
import time
from typing import Optional, Sequence

#: Names of metrics and workloads: a letter or digit, then up to 63 more of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples to report the requested percentile."""


def validate_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or workload name, else raise."""
    if not isinstance(name, str) or not NAME_PATTERN.fullmatch(name):
        raise ValueError(f"invalid name {name!r}: use 1-64 of [A-Za-z0-9_.-], "
                         "starting with a letter or digit")
    return name


def min_samples(quantile: float) -> int:
    """Fewest samples for which ``quantile`` has MIN_BEYOND samples beyond it."""
    count = MIN_BEYOND
    while samples_beyond(count, quantile) < MIN_BEYOND:
        count += 1
    return count


def _rank(count: int, quantile: float) -> int:
    """Zero-based nearest-rank index of ``quantile`` among ``count`` samples."""
    # round() first so that e.g. 0.99 * 1000 is rank 990, not 990.0000000001
    return max(0, math.ceil(round(quantile * count, 9)) - 1)


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` sorted samples lie above the quantile's rank."""
    return count - 1 - _rank(count, quantile)


def percentile(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile, refusing one with fewer than MIN_BEYOND
    samples beyond it."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    count = len(samples)
    if samples_beyond(count, quantile) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{quantile * 100:g} needs {min_samples(quantile)} samples "
            f"({MIN_BEYOND} beyond it), got {count}")
    return sorted(samples)[_rank(count, quantile)]


def op_failed(code: Optional[int] = None,
              error: Optional[BaseException] = None,
              timed_out: bool = False) -> bool:
    """Whether one op's reply makes it a failed op.

    An op fails when it raised, timed out or got an HTTP 429 (refused) or
    5xx reply.  An op whose output fails a check also counts as failed; the
    benchmark records that when it runs the check.
    """
    if error is not None or timed_out:
        return True
    return code is not None and (code == 429 or code >= 500)


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed ops over attempted ops."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


#: Nominal rate (million iterations/s) of the reference loop.  Timings are
#: reported in *reference seconds*: host seconds scaled as if the host ran
#: the loop at this rate (see host_scale).
REFERENCE_MOPS = 10.0
#: Iterations of one reference sample, a few milliseconds of work.
SAMPLE_ITERATIONS = 50_000
#: Nominal time of one served reference round trip (see
#: harness.ServedReference), the counterpart of REFERENCE_MOPS for served ops.
SERVED_NOMINAL_S = 0.0025


def reference_loop(iterations: int) -> int:
    """A fixed pure-Python loop, the benchmark's measure of host speed."""
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return total


def reference_sample(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Rate (million iterations/s) of one run of the reference loop.

    It depends only on the host and the interpreter, so a shared-host
    slowdown shows up here as well as in the program's metrics.
    """
    start = time.perf_counter()
    reference_loop(iterations)
    return iterations / (time.perf_counter() - start) / 1e6


def host_reference_rate(iterations: int = 400_000, repeats: int = 5) -> float:
    """Median rate (million iterations/s) of ``repeats`` reference samples."""
    return statistics.median(reference_sample(iterations)
                             for _ in range(repeats))


def host_scale(rates: Sequence[float]) -> float:
    """Factor from host seconds to reference seconds, given reference rates
    sampled beside the timed work: their median over REFERENCE_MOPS.

    A host running slow runs the loop slow too, so the scaled time of a
    fixed piece of work stays put while the host speed drifts.
    """
    if not rates:
        raise ValueError("no reference samples")
    return statistics.median(rates) / REFERENCE_MOPS


def served_scale(round_trips: Sequence[float]) -> float:
    """Factor from host seconds to reference seconds for served ops, given
    served reference round trips (seconds) timed beside them."""
    if not round_trips:
        raise ValueError("no served reference samples")
    return SERVED_NOMINAL_S / statistics.median(round_trips)
