"""Common interfaces for cache-line compression algorithms.

The DISCO paper (§3.2) stresses that DISCO "does not depend on a specific
compression method or algorithm"; the router plugs in any engine that maps a
cache line to a smaller encoding.  This module defines that plug-in contract.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Tuple


@dataclass(frozen=True)
class CompressionTiming:
    """Latency/overhead parameters of a compression scheme (paper Table 1).

    Attributes
    ----------
    compression_cycles:
        Cycles a compressor engine is busy encoding one cache line.
    decompression_cycles:
        Cycles to decode one compressed line.
    hardware_overhead:
        Fractional area overhead relative to the structure the compressor is
        attached to, as reported in Table 1 (used by the area model).
    """

    compression_cycles: int
    decompression_cycles: int
    hardware_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.compression_cycles < 0 or self.decompression_cycles < 0:
            raise ValueError("compression timings must be non-negative")


@dataclass(frozen=True)
class CompressedLine:
    """The result of compressing one cache line.

    ``size_bits`` is the exact encoded size including every metadata bit
    (prefixes, headers, base-select bits).  ``payload`` is an opaque,
    algorithm-specific representation sufficient to reconstruct the line;
    the original line is deliberately *not* stored so that round-trip tests
    prove the encoding is really lossless.
    """

    algorithm: str
    original_size_bits: int
    size_bits: int
    payload: Any
    compressible: bool

    @property
    def size_bytes(self) -> int:
        """Encoded size rounded up to whole bytes (segment granularity)."""
        return (self.size_bits + 7) // 8

    @property
    def ratio(self) -> float:
        """Compression ratio ``original / compressed`` (>1 is good)."""
        return self.original_size_bits / self.size_bits

    def flit_count(self, flit_bytes: int) -> int:
        """Number of payload flits needed to carry this encoding."""
        if flit_bytes <= 0:
            raise ValueError("flit_bytes must be positive")
        return max(1, (self.size_bytes + flit_bytes - 1) // flit_bytes)


class CompressionAlgorithm(ABC):
    """Abstract lossless cache-line compressor.

    Subclasses implement :meth:`_encode` / :meth:`_decode`; the public
    :meth:`compress` wraps them with the incompressible-line fallback: if the
    encoding would be at least as large as the raw line, the line is stored
    raw with a one-bit "uncompressed" tag, which is what the hardware
    schemes in the paper do as well.
    """

    #: Registry name of the algorithm; subclasses must override.
    name: str = "abstract"

    def __init__(self, line_size: int = 64):
        if line_size <= 0 or line_size % 4:
            raise ValueError("line_size must be a positive multiple of 4")
        self.line_size = line_size

    # -- subclass contract -------------------------------------------------
    @abstractmethod
    def _encode(self, line: bytes) -> Tuple[int, Any]:
        """Return ``(size_bits, payload)`` for a compressed encoding."""

    @abstractmethod
    def _decode(self, payload: Any) -> bytes:
        """Reconstruct the original line from ``payload``."""

    # -- public API --------------------------------------------------------
    def compress(self, line: bytes) -> CompressedLine:
        """Compress one cache line, falling back to raw storage if needed."""
        if len(line) != self.line_size:
            raise ValueError(
                f"{self.name}: expected {self.line_size}-byte line, "
                f"got {len(line)} bytes"
            )
        raw_bits = 8 * len(line)
        size_bits, payload = self._encode(line)
        # Every encoding carries a 1-bit compressed/uncompressed tag.
        if size_bits + 1 >= raw_bits:
            return CompressedLine(
                algorithm=self.name,
                original_size_bits=raw_bits,
                size_bits=raw_bits + 1,
                payload=line,
                compressible=False,
            )
        return CompressedLine(
            algorithm=self.name,
            original_size_bits=raw_bits,
            size_bits=size_bits + 1,
            payload=payload,
            compressible=True,
        )

    def decompress(self, compressed: CompressedLine) -> bytes:
        """Reconstruct the original cache line."""
        if compressed.algorithm != self.name:
            raise ValueError(
                f"cannot decompress {compressed.algorithm!r} data "
                f"with {self.name!r}"
            )
        if not compressed.compressible:
            return bytes(compressed.payload)
        return self._decode(compressed.payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r} line={self.line_size}>"


#: Process-wide encoding memos shared by :class:`CachedCompressor`
#: instances constructed with the same ``shared_key``.  Only stateless
#: (non-trainable) algorithms may share: their encodings are pure
#: functions of the line bytes, so a memo entry computed by one
#: simulation is byte-identical for every other.
_SHARED_CACHES: dict = {}


def _memo_for(shared_key) -> "OrderedDict[bytes, CompressedLine]":
    """The process-wide memo for ``shared_key``, or a private one."""
    if shared_key is None:
        return OrderedDict()
    cache = _SHARED_CACHES.get(shared_key)
    if cache is None:
        cache = _SHARED_CACHES[shared_key] = OrderedDict()
    return cache


class CachedCompressor(CompressionAlgorithm):
    """Memoizing wrapper around another algorithm.

    Workload traces revisit the same line values constantly; caching the
    (deterministic) encoding keeps cycle-level simulation fast without
    changing any result.  The cache is LRU-bounded.

    ``shared_key`` opts into a process-wide memo shared across wrapper
    instances (e.g. every run of the same algorithm in an experiment
    sweep).  Callers must only pass it for stateless algorithms whose
    encoding is fully determined by the key.
    """

    def __init__(
        self,
        inner: CompressionAlgorithm,
        capacity: int = 16384,
        shared_key: tuple = None,
    ):
        super().__init__(inner.line_size)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.inner = inner
        self.name = inner.name
        self.capacity = capacity
        self.shared_key = shared_key
        self._cache = _memo_for(shared_key)
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        # A shared memo belongs to the process, not to this wrapper: pickle
        # its key, never its entries (up to ``capacity`` encoded lines).
        state = self.__dict__.copy()
        del state["_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Re-attach the process's shared memo for the key; a private memo
        # (a trained algorithm's) restarts empty, which changes only speed.
        self.__dict__.update(state)
        self._cache = _memo_for(self.shared_key)

    def _encode(self, line: bytes) -> Tuple[int, Any]:  # pragma: no cover
        raise NotImplementedError("CachedCompressor delegates compress()")

    def _decode(self, payload: Any) -> bytes:  # pragma: no cover
        raise NotImplementedError("CachedCompressor delegates decompress()")

    def compress(self, line: bytes) -> CompressedLine:
        line = bytes(line)
        cached = self._cache.get(line)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(line)
            return cached
        self.misses += 1
        result = self.inner.compress(line)
        self._cache[line] = result
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return result

    def decompress(self, compressed: CompressedLine) -> bytes:
        return self.inner.decompress(compressed)

    def train(self, lines) -> Any:
        """Delegate training (SC2/FVC) and invalidate stale cached encodings."""
        train = getattr(self.inner, "train", None)
        if train is None:
            raise AttributeError(f"{self.name} is not a trainable algorithm")
        result = train(lines)
        self._cache.clear()
        return result


#: ``struct`` code of each field width it can unpack (unsigned; the
#: lower-case code is the signed one).
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _unpacker(
    width: int, count: int, signed: bool
) -> Callable[[bytes], Tuple[int, ...]]:
    code = _STRUCT_CODES[width]
    return struct.Struct(f"<{count}{code.lower() if signed else code}").unpack


def chunks(line: bytes, width: int, signed: bool = False) -> Tuple[int, ...]:
    """Split a line into little-endian ``width``-byte integers (unsigned,
    or two's complement with ``signed``); a short tail is its own chunk.
    The one unpacker behind every compressor's chunk, word and symbol
    views: a compiled ``struct`` unpack for 1-, 2-, 4- and 8-byte fields."""
    count, tail = divmod(len(line), width)
    if tail or width not in _STRUCT_CODES:
        return tuple(
            int.from_bytes(line[i : i + width], "little", signed=signed)
            for i in range(0, len(line), width)
        )
    return _unpacker(width, count, signed)(line)


def from_chunks(values: Iterable[int], width: int) -> bytes:
    """Inverse of :func:`chunks`."""
    return b"".join(v.to_bytes(width, "little") for v in values)


def words32(line: bytes) -> Tuple[int, ...]:
    """Split a line into little-endian unsigned 32-bit words."""
    return chunks(line, 4)


def from_words32(words: Iterable[int]) -> bytes:
    """Inverse of :func:`words32`."""
    return from_chunks(words, 4)


def signed_fits(value: int, nbytes: int) -> bool:
    """True if ``value`` fits in an ``nbytes`` two's-complement field."""
    bound = 1 << (8 * nbytes - 1)
    return -bound <= value < bound


def sign_extend(value: int, nbytes: int, width: int) -> int:
    """Sign-extend an ``nbytes`` field to an unsigned ``width``-byte value."""
    bound = 1 << (8 * nbytes - 1)
    mask = (1 << (8 * width)) - 1
    if value >= bound:
        value -= 1 << (8 * nbytes)
    return value & mask


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-byte value as two's complement."""
    bound = 1 << (8 * width - 1)
    return value - (1 << (8 * width)) if value >= bound else value
