"""Order statistics used by the benchmark, all on exact per-operation samples."""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives
    them (the 'exclusive' method); a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iqr_share(values):
    """Distance between the quartiles as a share of the median (0 when the
    median is 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)


def tail_percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile (0 < q < 1) of exact samples, defined only when
    at least `min_beyond` samples lie beyond it. Returns (value, q_used):
    with too few samples for q, q_used drops to the highest quantile that
    still has `min_beyond` samples beyond it. Raises ValueError when no
    quantile has (fewer than min_beyond + 1 samples). Infinite samples (failed
    or shed requests) sort last, so they count as over any limit."""
    n = len(values)
    if n < min_beyond + 1:
        raise ValueError(
            "%d samples: need at least %d for a tail percentile"
            % (n, min_beyond + 1))
    q_used = min(q, (n - min_beyond) / n)
    rank = max(1, math.ceil(q_used * n))  # 1-based nearest rank
    ordered = sorted(values)
    return ordered[rank - 1], q_used


def beyond(values, threshold):
    """How many samples are strictly greater than threshold."""
    return sum(1 for v in values if v > threshold)
