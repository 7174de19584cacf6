"""Pure accounting helpers: medians, spreads, failures, span self time.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` run without ``src/`` on the path.
"""

import statistics


def summarize(values):
    """Median and sample count of a list of numbers.

    Returns ``{"median": float, "n": int}``; an empty list has no
    median and raises ``ValueError`` (a metric with no samples must
    never be printed as a number).
    """
    values = [float(value) for value in values]
    if not values:
        raise ValueError("no samples")
    return {"median": statistics.median(values), "n": len(values)}


class FailureLedger:
    """Counts operations attempted and failed, with one reason each.

    An operation is failed at most once, whatever number of causes it
    has (an exception and a later check mismatch on the same program
    count once).  ``count`` lets one id stand for a group of operations
    that failed together, such as every row of a study that raised.
    Failures that belong to no operation — a dead fleet worker, engine
    provenance that differs between rounds — are added with
    :meth:`fail_extra` and count against the same total.
    """

    def __init__(self):
        self.attempted = 0
        self._failed_ops = {}
        self._extra = []

    def attempt(self, count=1):
        self.attempted += int(count)

    def fail(self, op_id, reason, count=1):
        self._failed_ops.setdefault(op_id, (reason, int(count)))

    def fail_extra(self, reason):
        self._extra.append(reason)

    @property
    def failed(self):
        total = sum(count for _reason, count in self._failed_ops.values())
        return min(self.attempted, total + len(self._extra))

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def reasons(self):
        reasons = [f"{op}: {why}"
                   for op, (why, _count) in self._failed_ops.items()]
        return reasons + list(self._extra)


def _covered(intervals, low, high):
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(start, low), min(end, high))
                     for start, end in intervals)
    total = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        start = max(start, cursor)
        total += end - start
        cursor = end
    return total


def self_times(spans):
    """``{span id: self time}`` for spans with parent links.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  ``spans`` is an iterable of dicts with
    ``id``, ``parent`` (``None`` at the root), ``start`` and ``end``.
    """
    spans = list(spans)
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], ()),
                       span["start"], span["end"])
            for span in spans}


def layer_self_seconds(spans, key="layer"):
    """Total self time per ``span[key]`` (a layer or an entry point)."""
    spans = list(spans)
    own = self_times(spans)
    totals = {}
    for span in spans:
        totals[span[key]] = totals.get(span[key], 0.0) + own[span["id"]]
    return totals


def ratio(numerator, denominator):
    """``numerator / denominator``, 0.0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0
