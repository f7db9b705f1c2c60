"""Cache-line compression algorithms used by DISCO and its comparators.

Every algorithm in this package operates on real cache-line payloads
(``bytes`` objects, typically 64 bytes) and reports *exact* compressed sizes
in bits, including all metadata (prefixes, base-select bits, headers).  All
algorithms are lossless: ``decompress(compress(line)) == line`` always holds
and is enforced by the test suite.  The memoizing wrapper the simulator uses
(:class:`CachedCompressor`) keeps only each line's size, so round trips go
through the plain algorithms.

The algorithms:

========================  =====================================================
:class:`DeltaCompressor`   The paper's in-router delta compressor (Fig. 4).
:class:`BDICompressor`     Base-Delta-Immediate (Pekhimenko et al., PACT'12).
:class:`FPCCompressor`     Frequent Pattern Compression (Alameldeen, ISCA'04).
:class:`SFPCCompressor`    Simplified FPC (Table 1 of the paper).
:class:`CPackCompressor`   C-Pack (Chen et al., TVLSI'10).
:class:`SC2Compressor`     Statistical Huffman compression (SC², ISCA'14).
:class:`FVCCompressor`     Frequent-value compression (Jin/Zhou NoC work).
:class:`ZeroContentCompressor`  Zero-bit elimination (Das et al., HPCA'08).
========================  =====================================================

Use :func:`repro.compression.registry.get_algorithm` to obtain an algorithm
together with its Table 1 timing model.
"""

from repro.compression.base import (
    CompressedLine,
    CompressionAlgorithm,
    CompressionTiming,
    CachedCompressor,
)
from repro.compression.delta import DeltaCompressor, SeparateDeltaSession
from repro.compression.bdi import BDICompressor
from repro.compression.fpc import FPCCompressor, SFPCCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.sc2 import SC2Compressor
from repro.compression.fvc import FVCCompressor
from repro.compression.zerocontent import ZeroContentCompressor
from repro.compression.registry import (
    available_algorithms,
    get_algorithm,
    get_timing,
)

__all__ = [
    "CompressedLine",
    "CompressionAlgorithm",
    "CompressionTiming",
    "CachedCompressor",
    "DeltaCompressor",
    "SeparateDeltaSession",
    "BDICompressor",
    "FPCCompressor",
    "SFPCCompressor",
    "CPackCompressor",
    "SC2Compressor",
    "FVCCompressor",
    "ZeroContentCompressor",
    "available_algorithms",
    "get_algorithm",
    "get_timing",
]
