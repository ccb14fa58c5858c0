"""Order statistics for the benchmark's reports.

Quartiles are ``statistics.quantiles(values, n=4)`` (the default exclusive
method), so a reader recomputes every printed figure from the raw values in
a result record with the standard library.
"""

from __future__ import annotations

import statistics


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of per-call measurements."""
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = mid = q3 = values[0]
    else:
        q1, mid, q3 = statistics.quantiles(values, n=4)  # mid is the median
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values)}

