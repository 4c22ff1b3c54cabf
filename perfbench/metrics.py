"""The benchmark's arithmetic: percentiles, span self time, operation tallies.

Everything here works on plain numbers and tuples, so it can be tested on
synthetic inputs without timing anything.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * pct / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, cap: float = TAIL_LADDER[0]) -> float | None:
    """Highest ladder percentile, at most ``cap``, that has at least ten of
    ``n`` samples beyond it; None when even the median has fewer."""
    for pct in TAIL_LADDER:
        if pct <= cap and round(n * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND:
            return pct
    return None


def tail(values, cap: float = TAIL_LADDER[0]) -> tuple[str, float]:
    """(label, value) of the tail percentile of ``values``.

    With too few samples for any percentile to have ten beyond it, the
    median is reported and the label says so.
    """
    pct = tail_percentile(len(values), cap)
    if pct is None:
        return "p50 (fewer than 20 samples)", median(values)
    return f"p{pct:g}", percentile(values, pct)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives
    them (exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    nodes: int = 0      # autodiff nodes created while the span was open
    items: float = 0.0  # a size the wrapper measured (examples, bytes, ...)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    st = self_times(spans)
    for s in spans:
        out[layer_of(s.name)] = out.get(layer_of(s.name), 0.0) + st[s.id]
    return out


def unaccounted(spans, lo: float, hi: float) -> float:
    """Part of the window [lo, hi] that no span covers."""
    return (hi - lo) - covered([(s.start, s.end) for s in spans], lo, hi)


def within(spans, outer: str, inner: str) -> int:
    """Number of ``inner`` spans nested in some ``outer`` span."""
    ids = {s.id: s for s in spans}
    n = 0
    for s in spans:
        if s.name != inner:
            continue
        p = s.parent
        while p is not None and ids[p].name != outer:
            p = ids[p].parent
        n += p is not None
    return n


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Counts operations and failures. An operation fails if it raises,
    yields a non-finite loss, or fails an output check."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name: str, fn: Callable, *args, **kwargs) -> tuple[bool, object]:
        """Call ``fn`` as one operation; return (succeeded, result). A raise
        is recorded with its traceback instead of ending the run."""
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failing operation is a result, not a crash
            self.record(name, False, traceback.format_exc(limit=4).strip())
            return False, None
        self.record(name, True)
        return True, out

    def check(self, name: str, find_problems: Callable[[], list[str]]) -> bool:
        """One output check: ``find_problems`` lists what is wrong, if
        anything. A check that raises has failed."""
        ok, problems = self.run(name, find_problems)
        if ok and problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems[:3]))
        return ok and not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
