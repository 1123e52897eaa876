"""Pure helpers shared by the benchmark runner and its worker.

Nothing here imports handoff_lab, so the helpers can be tested on their own:
summary statistics, the span tracer and self-time subtraction, the output
digest, and the correctness gates that decide whether an operation counts
as failed.
"""

import bisect
import csv
import hashlib
import io
import itertools
import json
import math
import threading
import time
import xml.etree.ElementTree as ET
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


class Tail(NamedTuple):
    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Tail]:
    """Highest nearest-rank percentile with at least `beyond` samples above it.

    Of n sorted samples, the candidate is the one at rank n - beyond, whose
    percentile is 100 * rank / n.  Ties with the samples above it would leave
    fewer than `beyond` strictly larger ones, so the rank steps down until
    enough remain.  None when there are not more than `beyond` samples.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - beyond
    while rank >= 1:
        value = xs[rank - 1]
        above = n - bisect.bisect_right(xs, value)
        if above >= beyond:
            return Tail(value, 100.0 * rank / n, n, above)
        rank -= 1
    return None


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


class Span(NamedTuple):
    run_id: str
    span_id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int


class Tracer:
    """Records spans in memory around calls the benchmark makes.

    Each thread keeps its own stack of open spans, so a span's parent is the
    innermost span open in the same thread.  Spans are written out only when
    the run ends.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, with every call recorded as a span called name."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def span(self, name: str) -> "_Open":
        """Context manager recording one span around a block."""
        return _Open(self, name)

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


class _Open:
    """A span between __enter__ and __exit__; its parent is the innermost open one."""

    def __init__(self, tracer: Tracer, name: str):
        self._tracer, self._name = tracer, name

    def __enter__(self):
        self._stack = self._tracer._stack()
        self._parent = self._stack[-1] if self._stack else None
        self._id = next(self._tracer._ids)
        self._stack.append(self._id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self._stack.pop()
        t = self._tracer
        t.spans.append(Span(t.run_id, self._id, self._parent, self._name, self._start, end))
        return False


def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover.

    Children may overlap one another (spans recorded in worker threads), so
    the covered part is the union of their intervals clipped to the parent.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for start, end in sorted(children[s.span_id]):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out[s.span_id] = s.end_ns - s.start_ns - covered
    return out


def totals_by_name(spans: Iterable[Span]) -> Dict[str, Tuple[int, int]]:
    """Span name -> (call count, total duration in ns)."""
    out: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for s in spans:
        acc = out[s.name]
        acc[0] += 1
        acc[1] += s.end_ns - s.start_ns
    return {name: (c, t) for name, (c, t) in out.items()}


def fastest_totals(passes: Iterable[Iterable[Span]]) -> Dict[str, Tuple[int, int]]:
    """Span name -> (call count, total ns) from the pass where that name took least time."""
    best: Dict[str, Tuple[int, int]] = {}
    for spans in passes:
        for name, (count, total) in totals_by_name(spans).items():
            if name not in best or total < best[name][1]:
                best[name] = (count, total)
    return best


# ----------------------------------------------------------------------
# determinism digest
# ----------------------------------------------------------------------


def digest(obj) -> str:
    """sha256 of a canonical JSON form; floats keep every digit via repr."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Failure(NamedTuple):
    """Stands in for the output of an operation that raised."""

    error: str


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------

# Sampling gates allow Z standard errors (taken at the closed-form value)
# plus SLACK/n for probabilities near 0 or 1, where the normal
# approximation is poor.  At z = 7 a correct program trips one about once
# in 1e11 checks.
Z = 7.0
SLACK = 5.0
# The KS gate: P(sqrt(n) * D > 3) is about 2 * exp(-18), or 3e-8.
KS_C = 3.0


def estimate_agrees(p_hat: float, p: float, n: int) -> bool:
    """A sampled probability lies within the sampling bound of its closed form."""
    return abs(p_hat - p) <= Z * math.sqrt(p * (1.0 - p) / n) + SLACK / n


def ks_ok(ks: float, n: int) -> bool:
    return 0.0 <= ks < KS_C / math.sqrt(n)


def round_trips(value: float, target: float, tol: float = 1e-9) -> bool:
    return abs(value - target) <= tol


def fine_average(fn: Callable[[float], float], lo: float, hi: float, points: int = 2000) -> float:
    """Midpoint-rule mean of fn over [lo, hi]."""
    h = (hi - lo) / points
    return sum(fn(lo + (k + 0.5) * h) for k in range(points)) / points


def averages_agree(value: float, reference: float, tol: float = 1e-4) -> bool:
    """The speed average matches a fine numerical average.

    The integrand has a square-root onset, so a 2000-point midpoint rule is
    good to a few 1e-6; the tolerance leaves a margin of 30.
    """
    return abs(value - reference) <= tol


def fmt9(value) -> str:
    """A cell as the CLI writes it: strings as-is, numbers at 9 significant digits."""
    return value if isinstance(value, str) else f"{float(value):.9g}"


def csv_matches(text: str, columns: Sequence[str], rows: Sequence[Sequence]) -> bool:
    """CSV (after '#' provenance lines) has these columns and these rows at 9 digits."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\n".join(body))))
    if not parsed or parsed[0] != list(columns):
        return False
    expected = [[fmt9(cell) for cell in row] for row in rows]
    return parsed[1:] == expected


def svg_parses(text: str) -> bool:
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return False
    return root.tag.endswith("svg")
