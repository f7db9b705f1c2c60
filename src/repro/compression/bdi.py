"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012, ref [5]).

BDI represents a cache line as one *base* value plus an array of narrow
deltas, with a second implicit base of zero ("immediate") selected per chunk
by a bitmask.  Six geometries (base width x delta width) are attempted in
parallel and the smallest valid encoding wins; all-zero and repeated-value
lines have two more, dedicated encodings.  This is the algorithm family the
DISCO paper's own delta engine is derived from, and the source of the
Table 1 "BDI" row (1-cycle compression, 1-5 cycle decompression, ratio
~1.57).

A geometry's size is fixed by its shape — header, one select bit per
chunk, the base and one delta per chunk — so the encoder tries the
geometries in ascending size and stops at the first that fits, which is
the one the parallel selection picks: equal sizes keep the table's order,
and a special encoding wins whenever it is strictly smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.compression.base import (
    CompressionAlgorithm,
    chunks,
    from_chunks,
    signed_fits,
    to_signed,
)

#: 4-bit encoding selector, as in the PACT'12 paper.
_HEADER_BITS = 4

#: (base_width, delta_width) geometries, PACT'12 Table 2.
_GEOMETRIES: Tuple[Tuple[int, int], ...] = (
    (8, 1),
    (8, 2),
    (8, 4),
    (4, 1),
    (4, 2),
    (2, 1),
)


def _geometry_bits(line_size: int, base_w: int, delta_w: int) -> int:
    """Encoded size of a ``line_size``-byte line under one geometry."""
    n = line_size // base_w
    return (
        _HEADER_BITS
        + n  # base-select bitmask
        + 8 * base_w
        + 8 * delta_w * n
    )


@dataclass(frozen=True)
class _BDIPayload:
    base_width: int
    delta_width: int
    base: int
    mask: Tuple[int, ...]  # per chunk: 1 -> delta vs base, 0 -> vs zero
    deltas: Tuple[int, ...]


class BDICompressor(CompressionAlgorithm):
    """Full Base-Delta-Immediate with dual (arbitrary + zero) bases."""

    name = "bdi"

    def __init__(self, line_size: int = 64):
        super().__init__(line_size)
        #: ``(size_bits, base_w, delta_w)`` per geometry that divides the
        #: line, ascending by size; the sort is stable, so equal sizes
        #: keep ``_GEOMETRIES`` order.
        self._by_size = sorted(
            (
                (_geometry_bits(line_size, base_w, delta_w), base_w, delta_w)
                for base_w, delta_w in _GEOMETRIES
                if line_size % base_w == 0
            ),
            key=lambda geometry: geometry[0],
        )

    def _encode(self, line: bytes) -> Tuple[int, Any]:
        special = self._encode_special(line)
        for size_bits, base_w, delta_w in self._by_size:
            if special is not None and size_bits >= special[0]:
                break  # no geometry left can be strictly smaller
            payload = self._encode_geometry(line, base_w, delta_w)
            if payload is not None:
                return size_bits, payload
        if special is not None:
            return special
        return 8 * len(line), line

    def _encode_special(self, line: bytes) -> Optional[Tuple[int, Any]]:
        if line == b"\x00" * len(line):
            return _HEADER_BITS, ("zero",)
        first = line[:8]
        if line == first * (len(line) // 8):
            return _HEADER_BITS + 64, ("repeat", int.from_bytes(first, "little"))
        return None

    @staticmethod
    def _encode_geometry(
        line: bytes, base_w: int, delta_w: int
    ) -> Optional[_BDIPayload]:
        """One geometry's encoding of ``line``, or None if some chunk fits
        neither the base nor the zero base."""
        values = chunks(line, base_w)
        # Base = first chunk that is not narrow enough to ride the zero base.
        base: Optional[int] = None
        for value in values:
            if not signed_fits(to_signed(value, base_w), delta_w):
                base = value
                break
        if base is None:
            base = 0
        mask: List[int] = []
        deltas: List[int] = []
        for value in values:
            d_zero = to_signed(value, base_w)
            d_base = value - base
            if signed_fits(d_zero, delta_w):
                mask.append(0)
                deltas.append(d_zero)
            elif signed_fits(d_base, delta_w):
                mask.append(1)
                deltas.append(d_base)
            else:
                return None
        return _BDIPayload(base_w, delta_w, base, tuple(mask), tuple(deltas))

    def _decode(self, payload: Any) -> bytes:
        if isinstance(payload, tuple):
            if payload[0] == "zero":
                return b"\x00" * self.line_size
            if payload[0] == "repeat":
                return payload[1].to_bytes(8, "little") * (self.line_size // 8)
            raise ValueError(f"unknown special BDI payload {payload[0]!r}")
        assert isinstance(payload, _BDIPayload)
        full = (1 << (8 * payload.base_width)) - 1
        values = []
        for select, delta in zip(payload.mask, payload.deltas):
            reference = payload.base if select else 0
            values.append((reference + delta) & full)
        return from_chunks(values, payload.base_width)
