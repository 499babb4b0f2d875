"""Small measurement helpers: percentiles, spreads, process memory."""

from __future__ import annotations

import math
import statistics
import sys
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-quantile (nearest rank) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: a p95 of forty samples is two outliers, not a percentile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be inside (0, 1), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(ordered)} samples leave {max(len(ordered) - rank, 0)}"
        )
    return ordered[rank - 1]


def percentile_or_max(samples, q: float, what: str) -> float:
    """:func:`percentile`, or the maximum (with a warning) when refused.

    The result line must carry every metric, so a run too short to support
    a percentile reports the most pessimistic value it has and says so.
    """
    try:
        return percentile(samples, q)
    except ValueError as exc:
        print(f"# warning: {what}: {exc}; reporting the maximum", file=sys.stderr)
        return max(samples) if samples else 0.0


def unit_metrics(units) -> dict:
    """Throughput and median read latency of a run made of *units*.

    A unit is one chunk of a fixed operation list or one time window, as
    ``(seconds, operations completed, read latencies)``.  Each unit yields
    its own throughput and median; the run reports the median over units.
    A burst of interference that hits a few units then moves neither, where
    it would drag a pooled mean along.
    """
    return {
        "ops_per_s": statistics.median(ops / seconds for seconds, ops, _ in units),
        "read_p50_ms": ms(
            statistics.median(statistics.median(reads) for _, _, reads in units)
        ),
    }


def unit_rates(units) -> str:
    """Every unit's throughput, for the run's sample note: how steady the
    host was while the run lasted."""
    return "/".join(f"{ops / seconds:.0f}" for seconds, ops, _ in units)


def run_units(call, chunks, seconds=None, units=None, before_unit=None):
    """One chunk of operations per unit, cycling through ``chunks``, until
    ``seconds`` have gone by or ``units`` are done; returns ``(units run,
    failed operations)``.

    A chunk is ``(operations, expected answer counts)``.  ``call(op)``
    returns the operation's answer count; a count other than the expected
    one, or any exception, is a failed operation.  The run stops at the
    unit boundary nearest the requested duration.  ``before_unit()`` runs
    ahead of every unit, outside its timing.
    """
    done = []
    failed = 0
    started = time.perf_counter()
    while True:
        ops, expected = chunks[len(done) % len(chunks)]
        if before_unit is not None:
            before_unit()
        latencies = []
        unit_started = time.perf_counter()
        for op, want in zip(ops, expected):
            op_started = time.perf_counter()
            try:
                got = call(op)
            except Exception:  # noqa: BLE001 - any failure is a failed op
                got = -1
            latencies.append(time.perf_counter() - op_started)
            failed += got != want
        now = time.perf_counter()
        done.append((now - unit_started, len(ops), latencies))
        if units is not None and len(done) >= units:
            break
        if seconds is not None and now - started + done[-1][0] / 2 >= seconds:
            break
    return done, failed


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract is judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of the given live processes."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def ms(seconds: float) -> float:
    return seconds * 1000.0


def us(seconds: float) -> float:
    return seconds * 1_000_000.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
