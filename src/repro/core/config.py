"""DISCO configuration: confidence coefficients, thresholds, engine setup.

The paper trains γ (Eq. 1), α and β (Eq. 2) plus the two thresholds CCth
and CDth offline on workload traces and then fixes them ("these two
parameters are assumed deterministic in NoC for simplicity").  The defaults
here were tuned the same way on the synthetic PARSEC-like traces;
``repro.experiments.ablation`` switches them off to show what they buy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.compression.registry import get_timing


@dataclass(frozen=True)
class DiscoConfig:
    """Parameters of the DISCO arbitrator and compressor engine.

    Attributes
    ----------
    algorithm:
        Registry name of the compression algorithm plugged into the engine
        (DISCO is algorithm-agnostic, §3.2).
    compression_cycles / decompression_cycles:
        Engine busy time; ``None`` takes the algorithm's Table 1 timing.
    cc_threshold / gamma:
        Eq. (1): compress packet *i* when
        ``credit_in[RC(i)] + gamma * credit_out[VA(i)] > cc_threshold``.
    cd_threshold / alpha / beta:
        Eq. (2): decompress when ``credit_in[RC(i)] + alpha *
        credit_out[VA(i)] - beta * RC_Hop(i) > cd_threshold``.
    separate_compression:
        §3.3-A: allow compressing a partially-arrived wormhole packet with
        persistent base registers (delta engines only); whole-packet
        compression otherwise.
    non_blocking:
        §3.2 step-3: keep a schedulable shadow packet in the VC and abort
        the engine if the switch grants it mid-(de)compression.
    compress_at_fill:
        Compress blocks that arrive uncompressed at an LLC bank / must be
        decompressed for the memory controller using the local engine
        off the critical path (fills and writebacks are not in the
        requesting core's access path; energy is still charged).
    """

    algorithm: str = "delta"
    compression_cycles: Optional[int] = None
    decompression_cycles: Optional[int] = None
    cc_threshold: float = 2.0
    gamma: float = 0.5
    cd_threshold: float = 1.0
    alpha: float = 0.5
    beta: float = 1.0
    separate_compression: bool = True
    non_blocking: bool = True
    compress_at_fill: bool = True

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def resolved_compression_cycles(self) -> int:
        if self.compression_cycles is not None:
            return self.compression_cycles
        return get_timing(self.algorithm).compression_cycles

    def resolved_decompression_cycles(self) -> int:
        if self.decompression_cycles is not None:
            return self.decompression_cycles
        return get_timing(self.algorithm).decompression_cycles
