"""Order statistics for benchmark samples.

A tail percentile is only reported when at least ``MIN_TAIL`` samples lie
beyond it (p90 needs 100 samples), so a single slow sample cannot set it.

Step times are compared per step position: a measured phase repeats the
same round of steps, so position i of every round does the same work. On a
shared 2-vCPU host, co-tenant load slowed whole stretches of a run by up to
1.8x, switching on and off within seconds. The fastest samples of each
position are the ones that load did not reach, so on workloads with enough
rounds the typical step time and the throughput are taken from them.
"""

from __future__ import annotations

MIN_TAIL = 10


def min_samples_for(q: int) -> int:
    """Smallest sample count with at least MIN_TAIL samples beyond percentile q."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    return -(-MIN_TAIL * 100 // (100 - q))


def percentile(samples: list[float], q: int) -> float:
    """Linearly interpolated q-th percentile, refused when the tail is too thin."""
    n = len(samples)
    if n < min_samples_for(q):
        raise ValueError(f"p{q} needs at least {min_samples_for(q)} samples, got {n}")
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)



def rounds_for(period: int, min_total: int) -> int:
    """Whole rounds of ``period`` steps needed for ``min_total`` kept samples."""
    if period < 1:
        raise ValueError("a round needs at least one step")
    return -(-min_total // period)


def fastest_by_position(samples: list[float], period: int, min_total: int) -> list[list[float]]:
    """The fastest samples of each step position, as few per position as give min_total.

    ``samples`` holds rounds of ``period`` steps back to back, in order; a
    trailing partial round is allowed. Position i collects samples i,
    i + period, i + 2 * period, ... Returns one ascending list per position.
    """
    keep = rounds_for(period, min_total)
    kept = []
    for pos in range(period):
        column = sorted(samples[pos::period])
        if len(column) < keep:
            raise ValueError(f"step position {pos} has {len(column)} samples, "
                             f"{keep} needed")
        kept.append(column[:keep])
    return kept
