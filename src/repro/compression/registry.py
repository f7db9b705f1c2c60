"""Algorithm registry mapping names to compressors and Table 1 timings.

The DISCO evaluation (§4.1) plugs "the same compression algorithm with
identical compression rate, speed and overhead" into CC, CNC and DISCO; the
registry is where that pairing of *algorithm implementation* and *latency
model* lives.  Latencies follow the paper:

- ``delta``: 1-cycle compression / 3-cycle decompression (Table 2, "DISCO"
  row, citing BDI [5]);
- ``fpc``: 5-cycle decompression (Table 1) and a matching 5-cycle
  compression pipeline;
- ``sc2``: 6-cycle compression, 8-cycle decompression (Table 1 lists 8/14
  for the two SC² variants; the faster variant is evaluated);
- others per Table 1 where given, with conventional published values
  filling the cells Table 1 leaves blank.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.compression.base import (
    CachedCompressor,
    CompressionAlgorithm,
    CompressionTiming,
)
from repro.compression.bdi import BDICompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.delta import DeltaCompressor
from repro.compression.fpc import FPCCompressor, SFPCCompressor
from repro.compression.fvc import FVCCompressor
from repro.compression.sc2 import SC2Compressor
from repro.compression.zerocontent import ZeroContentCompressor

_FACTORIES: Dict[str, Callable[[int], CompressionAlgorithm]] = {
    "delta": DeltaCompressor,
    "bdi": BDICompressor,
    "fpc": FPCCompressor,
    "sfpc": SFPCCompressor,
    "cpack": CPackCompressor,
    "sc2": SC2Compressor,
    "fvc": FVCCompressor,
    "zero": ZeroContentCompressor,
}

#: (compression cycles, decompression cycles, hardware overhead fraction).
_TIMINGS: Dict[str, CompressionTiming] = {
    "delta": CompressionTiming(1, 3, 0.023),
    "bdi": CompressionTiming(1, 3, 0.023),
    "fpc": CompressionTiming(5, 5, 0.08),
    "sfpc": CompressionTiming(4, 4, 0.08),
    "cpack": CompressionTiming(8, 8, 0.067),
    "sc2": CompressionTiming(6, 8, 0.027),
    "fvc": CompressionTiming(2, 2, 0.02),
    "zero": CompressionTiming(1, 1, 0.01),
}


def available_algorithms() -> List[str]:
    """Names accepted by :func:`get_algorithm`, in stable order."""
    return sorted(_FACTORIES)


def get_algorithm(
    name: str,
    line_size: int = 64,
    cached: bool = True,
    cache_capacity: int = 16384,
) -> CompressionAlgorithm:
    """Instantiate a compression algorithm by registry name.

    ``cached=True`` wraps the algorithm in a :class:`CachedCompressor`
    for simulation: identical sizes, much faster, and each line's result
    is a shared size record with no payload.  Round trips
    (``decompress(compress(line))``) need ``cached=False``.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown compression algorithm {name!r}; "
            f"choose from {available_algorithms()}"
        )
    algorithm = factory(line_size)
    if cached:
        # Stateless algorithms share one process-wide encoding memo (the
        # registry always builds them with default parameters, so the
        # key fully determines the encoding).  Trainable ones (sc2, fvc)
        # keep a private cache: training changes their encodings.
        shared_key = (
            None if hasattr(algorithm, "train") else (name, line_size)
        )
        return CachedCompressor(
            algorithm, capacity=cache_capacity, shared_key=shared_key
        )
    return algorithm


def get_timing(name: str) -> CompressionTiming:
    """Latency/overhead parameters (paper Table 1) for an algorithm."""
    timing = _TIMINGS.get(name)
    if timing is None:
        raise KeyError(f"no timing model for algorithm {name!r}")
    return timing
