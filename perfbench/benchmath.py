"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, at the reference host speed; run-to-run
spread is the distance between the first and third quartile as a share of
the median.
"""
import math
import statistics

MIN_BEYOND = 10

# The reference host speed: the one at which the reference kernel
# (src/reference.cpp) takes this long per thread. About its time on an
# unloaded core of the 2.1 GHz Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.100


def reference_factor(before_s, after_s, reference_s=REFERENCE_S):
    """Factor taking a time measured between two runs of the reference
    kernel, which took before_s and after_s, to the reference speed."""
    if before_s <= 0 or after_s <= 0:
        raise ValueError(f"reference kernel times {before_s}, {after_s}")
    return reference_s / ((before_s + after_s) / 2)


def percentile(values, q):
    """Linearly interpolated q-quantile (0 <= q <= 1) of `values`."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples of n that rank strictly above the q-quantile."""
    return n - math.ceil(q * n - 1e-9)


def tail_quantile(n, q, min_beyond=MIN_BEYOND):
    """The quantile to report in place of q for n samples: q itself when at
    least `min_beyond` samples lie beyond it, otherwise the highest quantile
    that has them, and never less than the median."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(q, (n - min_beyond) / n))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf
