"""Summary statistics shared by the workloads.

Percentiles use the nearest-rank definition: the q-th percentile of n
sorted samples is the sample at 1-based rank ceil(q * n).  A percentile, or
the mean of the samples above one, is only reported when at least
MIN_BEYOND samples lie strictly above its rank, so a tail figure never rests
on a handful of points.
"""

import math

MIN_BEYOND = 10


def percentile_rank(n, q):
    """1-based nearest rank of the q-quantile (0 < q < 1) among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    # round() first: 0.9 * 100 is 90.00000000000001 in binary floating point
    return max(1, math.ceil(round(q * n, 9)))


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - percentile_rank(n, q)


def percentile(values, q, beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of values, or ValueError if too few samples."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < beyond:
        raise ValueError(
            f"{n} samples leave fewer than {beyond} beyond the {q:g} quantile"
        )
    return sorted(values)[percentile_rank(n, q) - 1]


def fast_half_mean(values):
    """Mean of the faster half: the samples up to the nearest-rank median.

    The typical op, like the median, without its flip between two levels
    when the samples come from a machine that runs at two speeds; it stays
    clear of the slow cluster that starts above the median in some
    workloads, where a mean of the middle half would take in its edge.
    """
    n = len(values)
    if n < 2:
        raise ValueError(f"{n} samples have no faster half")
    half = sorted(values)[:percentile_rank(n, 0.5)]
    return sum(half) / len(half)


def tail_mean(values, q, beyond=MIN_BEYOND):
    """Mean of the samples above the nearest-rank q-quantile.

    Unlike a single percentile, it moves in proportion to how many ops were
    slowed, so a machine that switches between a fast and a slow speed does
    not flip it between two levels.  ValueError if fewer than `beyond`
    samples lie above the quantile.
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < beyond:
        raise ValueError(
            f"{n} samples leave fewer than {beyond} beyond the {q:g} quantile"
        )
    top = sorted(values)[percentile_rank(n, q):]
    return sum(top) / len(top)


def count_failures(outcomes):
    """(attempted, failed) for a list of per-operation outcomes.

    An outcome is failed when it is None or False, or when it is a string
    (the reason the operation failed); True means the operation succeeded.
    """
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o is not True)
    return attempted, failed


def self_times(spans):
    """Self time of every span: its duration minus its direct children's.

    spans is an iterable of (span_id, parent_id, duration); a parent of None
    marks a root.  Children run nested inside their parent on one thread,
    so their durations never overlap one another.
    Returns {span_id: self duration}.
    """
    spans = list(spans)
    own = {sid: duration for sid, _parent, duration in spans}
    for _sid, parent, duration in spans:
        if parent is not None and parent in own:
            own[parent] -= duration
    return own
