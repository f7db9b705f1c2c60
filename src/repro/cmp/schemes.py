"""The five evaluated system schemes (paper §4.1).

===========  ===============================================================
``baseline``  no compression anywhere (the Fig. 7 energy normalization)
``ideal``     cache compression with zero de/compression overhead (the
              Fig. 5/6/8 latency normalization: "the same system with cache
              compression but without the de/compression overhead")
``cc``        within-cache compression: a (de)compressor in every LLC bank;
              reads pay decompression before the response leaves the bank;
              NoC traffic is uncompressed
``cnc``       cache + NoC compression as in [9]: CC plus a (de)compressor in
              every NI — compress at injection, decompress at ejection
              (the two-level overhead the paper observes in Fig. 5/6)
``disco``     in-network compression: DISCO routers overlap engine latency
              with queueing; banks send/store lines in compressed form with
              no bank-side latency; only the non-overlapped residue is paid
              at ejection
===========  ===============================================================

All compressing schemes share the same algorithm instance, hence identical
compressed sizes and identical LLC capacity benefit — the paper's fairness
condition ("the same compression algorithm with identical compression rate,
speed and overhead is employed in CC, CNC and DISCO").
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Optional

from repro.compression.base import CompressionAlgorithm
from repro.compression.registry import get_algorithm, get_timing
from repro.core.config import DiscoConfig

SCHEME_NAMES = ("baseline", "ideal", "cc", "cnc", "disco")


@dataclass(frozen=True)
class SchemePolicy:
    """Where compression happens and what latency each step charges."""

    name: str
    algorithm_name: str
    store_compressed: bool
    bank_read_decompress_cycles: int
    ni_compression: bool
    #: DISCO routers (de)compress in flight, so banks send and write back
    #: lines in their compressed form.
    use_disco_routers: bool
    compression_cycles: int
    decompression_cycles: int
    disco: Optional[DiscoConfig] = None

    def make_algorithm(self, line_size: int = 64) -> CompressionAlgorithm:
        return get_algorithm(self.algorithm_name, line_size=line_size)


def make_scheme(
    name: str,
    algorithm: str = "delta",
    disco: Optional[DiscoConfig] = None,
) -> SchemePolicy:
    """Build one of the five evaluated schemes for a given algorithm."""
    timing = get_timing(algorithm)
    comp = timing.compression_cycles
    decomp = timing.decompression_cycles
    if name == "baseline":
        return SchemePolicy(
            name=name,
            algorithm_name=algorithm,
            store_compressed=False,
            bank_read_decompress_cycles=0,
            ni_compression=False,
            use_disco_routers=False,
            compression_cycles=comp,
            decompression_cycles=decomp,
        )
    if name == "ideal":
        return SchemePolicy(
            name=name,
            algorithm_name=algorithm,
            store_compressed=True,
            bank_read_decompress_cycles=0,
            ni_compression=False,
            use_disco_routers=False,
            compression_cycles=comp,
            decompression_cycles=decomp,
        )
    if name == "cc":
        return SchemePolicy(
            name=name,
            algorithm_name=algorithm,
            store_compressed=True,
            bank_read_decompress_cycles=decomp,
            ni_compression=False,
            use_disco_routers=False,
            compression_cycles=comp,
            decompression_cycles=decomp,
        )
    if name == "cnc":
        return SchemePolicy(
            name=name,
            algorithm_name=algorithm,
            store_compressed=True,
            bank_read_decompress_cycles=decomp,
            ni_compression=True,
            use_disco_routers=False,
            compression_cycles=comp,
            decompression_cycles=decomp,
        )
    if name == "disco":
        disco_config = disco or DiscoConfig(algorithm=algorithm)
        if disco_config.algorithm != algorithm:
            disco_config = _dc_replace(disco_config, algorithm=algorithm)
        return SchemePolicy(
            name=name,
            algorithm_name=algorithm,
            store_compressed=True,
            bank_read_decompress_cycles=0,
            ni_compression=False,
            use_disco_routers=True,
            compression_cycles=comp,
            decompression_cycles=decomp,
            disco=disco_config,
        )
    raise KeyError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
