"""Statistics helpers of the PiSCES benchmark (tested in test_perfbench.py)."""
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    Raises ValueError unless at least MIN_BEYOND samples lie above the
    chosen rank, so a p90 needs 100 samples and a p50 needs 20.
    """
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples keeps {n - rank} beyond it, "
            f"fewer than {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def chunk_spans(done, chunk):
    """(start, end) of each whole chunk of `chunk` consecutive ops.

    `done` holds each op's completion clock, from the start of the loop, in
    op order; a chunk ends when its last op completes. A partial last chunk
    is dropped.
    """
    ends = [done[k - 1] for k in range(chunk, len(done) + 1, chunk)]
    return list(zip([0] + ends, ends))


def chunk_medians(done_ns, done_cpu_ns, chunk):
    """Median wall and cpu ns of a run's chunks, the first dropped as warm-up.

    A slow phase of a shared machine that covers less than half of the
    chunks moves neither median.
    """
    spans = chunk_spans(done_ns, chunk)[1:]
    if len(spans) < 3:
        raise ValueError(f"{len(spans)} chunks after warm-up; need at least 3")
    cpu = chunk_spans(done_cpu_ns, chunk)[1:]
    return (statistics.median(b - a for a, b in spans),
            statistics.median(b - a for a, b in cpu))


def relative_iqr(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
