"""The DISCO delta compressor (paper §3.2 step-3, Fig. 4).

The engine views a cache line as a sequence of *flit-sized chunks* (8 bytes
by default, matching the 64-bit flits of the evaluated NoC).  Two bases are
maintained: the **first chunk** of the packet and the **zero flit**.  Every
chunk is compared against both bases and encoded as the smaller difference;
a compressed packet is then ``base + per-chunk (select bit, delta)`` plus a
small header identifying the geometry, exactly the ``1BF + 7ΔF`` form the
paper uses for 64-byte data packets.

Several compressor units with different geometries (base width × delta
width) run in parallel and a selection stage keeps the smallest encoding
(Fig. 4a, "compressor selection logic").  Degenerate lines (all-zero,
repeated chunk) get dedicated tiny encodings.

A unit's encoded size is fixed by its geometry alone — header, one base,
and a select bit plus a delta per remaining chunk — so the smallest
encoding is the first *fitting* unit in ascending size order.  The
software encoder tries the units in that order and stops at the first
whose deltas all fit, instead of encoding every unit and comparing.  Ties
go to the special encodings, then to the order of ``units``, exactly as
the selection logic's strict "smaller wins" scan keeps them.

:class:`SeparateDeltaSession` implements the paper's *separate compression*
for wormhole flow control (§3.3-A): flits of a packet that arrive in
different cycles are compressed incrementally against persistent base
registers, and the partial encodings concatenate without zero bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compression.base import (
    CompressionAlgorithm,
    CompressedLine,
    chunks,
    from_chunks,
    signed_fits,
    to_signed,
)

#: Header bits identifying the geometry / special encoding (4 bits covers
#: the unit table plus the zero/repeat special cases).
_HEADER_BITS = 4

#: (base_width_bytes, delta_width_bytes) geometries tried in parallel.
_DEFAULT_UNITS: Tuple[Tuple[int, int], ...] = (
    (8, 1),
    (8, 2),
    (8, 4),
    (4, 1),
    (4, 2),
)


@dataclass(frozen=True)
class _DeltaPayload:
    """Decoded form of a whole-line delta encoding."""

    base_width: int
    delta_width: int
    base: int
    entries: Tuple[Tuple[int, int], ...]  # (base_select, signed delta)


class DeltaCompressor(CompressionAlgorithm):
    """Whole-line delta compression with dual bases (first chunk + zero)."""

    name = "delta"

    def __init__(
        self,
        line_size: int = 64,
        units: Sequence[Tuple[int, int]] = _DEFAULT_UNITS,
    ):
        super().__init__(line_size)
        for base_w, delta_w in units:
            if line_size % base_w:
                raise ValueError(
                    f"line_size {line_size} not divisible by base width {base_w}"
                )
            if delta_w >= base_w:
                raise ValueError("delta width must be narrower than base width")
        self.units = tuple(units)
        #: ``(size_bits, base_w, delta_w)`` per unit, ascending by size; the
        #: sort is stable, so equal sizes keep ``units`` order.
        self._by_size = sorted(
            (
                (
                    _HEADER_BITS
                    + 8 * base_w
                    + (line_size // base_w - 1) * (1 + 8 * delta_w),
                    base_w,
                    delta_w,
                )
                for base_w, delta_w in self.units
            ),
            key=lambda unit: unit[0],
        )
        self._zero_line = bytes(line_size)

    # -- encoding ----------------------------------------------------------
    def _encode(self, line: bytes) -> Tuple[int, Any]:
        special = self._encode_special(line)
        views: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        for size_bits, base_w, delta_w in self._by_size:
            if special is not None and size_bits >= special[0]:
                break  # no unit left can be strictly smaller
            view = views.get(base_w)
            if view is None:
                view = views[base_w] = (
                    chunks(line, base_w),
                    chunks(line, base_w, signed=True),
                )
            payload = self._encode_unit(view[0], view[1], base_w, delta_w)
            if payload is not None:
                return size_bits, payload
        if special is not None:
            return special
        # No unit applies: report raw size so compress() stores raw.
        return 8 * len(line), line

    def _encode_special(self, line: bytes) -> Optional[Tuple[int, Any]]:
        """All-zero and repeated-chunk lines collapse to a header (+value)."""
        if line == self._zero_line:
            return _HEADER_BITS, ("zero",)
        first = line[:8]
        if line == first * (len(line) // 8):
            return _HEADER_BITS + 64, ("repeat", int.from_bytes(first, "little"))
        return None

    @staticmethod
    def _encode_unit(
        values: Sequence[int], signed: Sequence[int], base_w: int, delta_w: int
    ) -> Optional[_DeltaPayload]:
        """One unit's encoding of a line split into ``base_w``-byte chunks
        (``values``; ``signed`` is each chunk's delta from the zero base),
        or None if some chunk's delta fits neither base.  A chunk takes
        the first-chunk base unless only the zero base fits it or the zero
        base's delta is smaller."""
        base = values[0]
        bound = 1 << (8 * delta_w - 1)
        entries: List[Tuple[int, int]] = []
        for i in range(1, len(values)):
            d_base = values[i] - base
            d_zero = signed[i]
            if -bound <= d_base < bound and (
                not -bound <= d_zero < bound or abs(d_base) <= abs(d_zero)
            ):
                entries.append((0, d_base))
            elif -bound <= d_zero < bound:
                entries.append((1, d_zero))
            else:
                return None
        return _DeltaPayload(base_w, delta_w, base, tuple(entries))

    # -- decoding ----------------------------------------------------------
    def _decode(self, payload: Any) -> bytes:
        if isinstance(payload, tuple):
            if payload[0] == "zero":
                return b"\x00" * self.line_size
            if payload[0] == "repeat":
                return payload[1].to_bytes(8, "little") * (self.line_size // 8)
            raise ValueError(f"unknown special delta payload {payload[0]!r}")
        assert isinstance(payload, _DeltaPayload)
        mask = (1 << (8 * payload.base_width)) - 1
        values = [payload.base]
        for select, delta in payload.entries:
            reference = 0 if select else payload.base
            values.append((reference + delta) & mask)
        return from_chunks(values, payload.base_width)


class SeparateDeltaSession:
    """Incremental (per-flit) delta compression for wormhole routing.

    A packet separated across routers is compressed chunk-by-chunk as its
    flits arrive (§3.3-A).  The geometry is fixed up-front (the streaming
    engine cannot retroactively change delta width), so every chunk carries
    a 2-bit tag selecting ``delta vs. first-chunk base``, ``delta vs. zero``
    or ``raw escape``; the first chunk establishes the base register, which
    persists in the engine between partial feeds.

    The paper notes separate compression "sacrifices the compression rate";
    that shows up here as the extra tag/escape bits relative to
    :class:`DeltaCompressor` on the same line.
    """

    TAG_BITS = 2
    TAG_BASE = 0
    TAG_ZERO = 1
    TAG_RAW = 2

    def __init__(self, chunk_width: int = 8, delta_width: int = 1):
        if delta_width >= chunk_width:
            raise ValueError("delta width must be narrower than chunk width")
        self.chunk_width = chunk_width
        self.delta_width = delta_width
        self.base: Optional[int] = None
        self.entries: List[Tuple[int, int]] = []
        self.size_bits = 0
        self.fed_bytes = 0

    def feed(self, data: bytes) -> int:
        """Compress the next ``data`` bytes; returns bits added.

        ``data`` must be a whole number of chunks (flits are chunk-sized).
        """
        if len(data) % self.chunk_width:
            raise ValueError("partial feed must be whole chunks")
        added = 0
        for value in chunks(data, self.chunk_width):
            added += self._feed_chunk(value)
        self.fed_bytes += len(data)
        self.size_bits += added
        return added

    def _feed_chunk(self, value: int) -> int:
        if self.base is None:
            self.base = value
            self.entries.append((self.TAG_RAW, value))
            return self.TAG_BITS + 8 * self.chunk_width
        d_base = value - self.base
        d_zero = to_signed(value, self.chunk_width)
        if signed_fits(d_base, self.delta_width) and (
            not signed_fits(d_zero, self.delta_width)
            or abs(d_base) <= abs(d_zero)
        ):
            self.entries.append((self.TAG_BASE, d_base))
            return self.TAG_BITS + 8 * self.delta_width
        if signed_fits(d_zero, self.delta_width):
            self.entries.append((self.TAG_ZERO, d_zero))
            return self.TAG_BITS + 8 * self.delta_width
        self.entries.append((self.TAG_RAW, value))
        return self.TAG_BITS + 8 * self.chunk_width

    def result(self) -> CompressedLine:
        """Finalize and return the encoding of everything fed so far."""
        raw_bits = 8 * self.fed_bytes
        compressible = self.size_bits + 1 < raw_bits
        return CompressedLine(
            algorithm="delta-separate",
            original_size_bits=raw_bits,
            size_bits=(self.size_bits + 1) if compressible else raw_bits + 1,
            payload=tuple(self.entries) if compressible else self._raw(),
            compressible=compressible,
        )

    def _raw(self) -> bytes:
        return self.reconstruct()

    def reconstruct(self) -> bytes:
        """Decode everything fed so far (used for round-trip checks)."""
        mask = (1 << (8 * self.chunk_width)) - 1
        values = []
        for tag, field in self.entries:
            if tag == self.TAG_RAW:
                values.append(field & mask)
            elif tag == self.TAG_BASE:
                assert self.base is not None
                values.append((self.base + field) & mask)
            else:
                values.append(field & mask)
        return from_chunks(values, self.chunk_width)
