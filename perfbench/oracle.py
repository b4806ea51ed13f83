"""Per-operation oracles, run outside the timed interval.

Each check returns ``""`` when the output is right and a short reason
when it is not, so the benchmark loop can count the operation as failed and go
on with the run.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def _bits(a: np.ndarray) -> np.ndarray:
    """Float arrays as their raw bits, so NaN compares equal to NaN and
    -0.0 differs from 0.0; other dtypes unchanged."""
    if a.dtype.kind == "f":
        return a.view(np.dtype(f"u{a.dtype.itemsize}"))
    return a


def check_sort(inputs: Sequence[np.ndarray], outputs: Sequence[Any]) -> str:
    """The concatenated output equals ``np.sort`` of the concatenated input
    (NaN last, bitwise for floats), and every rank keeps its input size."""
    if len(outputs) != len(inputs):
        return f"{len(outputs)} output partitions for {len(inputs)} ranks"
    for rank, (inp, out) in enumerate(zip(inputs, outputs)):
        if not isinstance(out, np.ndarray) or out.dtype != inp.dtype:
            return f"rank {rank}: output is not a {inp.dtype} array"
        if out.size != inp.size:
            return f"rank {rank}: {out.size} keys out, {inp.size} in (eps = 0)"
    expected = np.concatenate(inputs)
    expected.sort()
    start = 0
    for rank, out in enumerate(outputs):
        want = expected[start:start + out.size]
        if not np.array_equal(_bits(out), _bits(want)):
            return f"rank {rank}: keys differ from np.sort of the input"
        start += out.size
    return ""


def check_same_run(observed: Sequence[np.ndarray], observed_vs: float,
                   plain: Sequence[np.ndarray], plain_vs: float) -> str:
    """An observed run must be bit-identical to the plain run of its input:
    every output partition and the virtual makespan."""
    if observed_vs != plain_vs:
        return f"observers moved the virtual makespan: {observed_vs!r} != {plain_vs!r}"
    for rank, (a, b) in enumerate(zip(observed, plain)):
        if a.dtype != b.dtype or not np.array_equal(_bits(a), _bits(b)):
            return f"rank {rank}: observed output differs from the plain run"
    return ""


def check_jobs(values: Sequence[Any], expected: Sequence[Any]) -> list[str]:
    """Service answers against the host-side oracle answers, job by job."""
    return [
        "" if got == want else f"answer {got!r} != oracle {want!r}"
        for got, want in zip(values, expected)
    ]


def check_epoch_sizes(sizes: Sequence[Sequence[int]], per_rank_in: Sequence[int]) -> str:
    """One sort epoch keeps every rank's size: per rank, the output keys of
    the epoch's jobs add up to that rank's packed input (eps = 0)."""
    out = [sum(col) for col in zip(*sizes)]
    if list(out) != list(per_rank_in):
        return f"epoch output sizes {out} != input sizes {list(per_rank_in)}"
    return ""
