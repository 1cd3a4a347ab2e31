"""Small statistics and process helpers shared by the workloads."""

from __future__ import annotations

import ctypes
import math
from typing import Dict, List


def beyond(count: int, q: float) -> int:
    """Samples lying beyond the ``q``-th percentile of ``count`` samples."""
    return int(count - math.ceil(count * q / 100.0))


def min_samples(q: float, min_beyond: int = 10) -> int:
    """Samples needed for ``min_beyond`` of them to lie beyond the
    ``q``-th percentile."""
    return int(math.ceil(min_beyond / (1.0 - q / 100.0)))


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def trim_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc only).

    Without it, memory a finished search freed stays resident, and the
    next search's peak depends on which searches ran before it.
    """
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if malloc_trim is not None:
        malloc_trim(0)


def reset_peak_rss(pid="self") -> None:
    """Restart a process's peak-memory mark from its current resident set."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def merge(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of numeric dicts."""
    out: Dict[str, float] = {}
    for entry in dicts:
        for key, value in entry.items():
            out[key] = out.get(key, 0.0) + value
    return out
