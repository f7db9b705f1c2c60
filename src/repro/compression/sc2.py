"""SC² — statistical (Huffman) cache compression (Arelakis & Stenström,
ISCA 2014, ref [3]).

SC² samples the value stream, builds a canonical Huffman code over frequent
32-bit words, and encodes lines as bit-streams; rare words are escape-coded.
It achieves the highest ratio of the schemes in the paper's Table 1 (~2.4x)
at the price of the longest latencies (6-cycle compression, 8/14-cycle
decompression) — which is exactly why the paper reports DISCO helps SC² the
most (Fig. 6): the long latency is what DISCO hides.

The implementation here is a genuine bit-level canonical Huffman coder:
``compress`` produces a packed integer bit-stream and ``decompress`` parses
it back with the code table, so round-trip tests exercise a real decoder.
A built-in default codebook (zeros, small integers, common float prefixes)
makes the compressor usable before :meth:`SC2Compressor.train` is called;
training on workload lines replaces it, mirroring SC²'s offline sampling
phase.

Symbols are 16-bit half-words rather than full words: SC² uses
variable-sized value symbols precisely because sub-word fragments (zero
halves, shared float exponents, pointer upper halves) repeat far more often
than whole words, and that is what buys its 2.4x average ratio.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.compression.base import CompressionAlgorithm, chunks, from_chunks

#: Escape marker kept distinct from any half-word value.
_ESCAPE = -1

#: Symbol width in bytes (16-bit half-words; see module docstring).
_SYM_BYTES = 2
_SYM_BITS = 8 * _SYM_BYTES


def _symbols(line: bytes):
    """Split a line into little-endian unsigned 16-bit half-words."""
    return chunks(line, _SYM_BYTES)


def _from_symbols(symbols) -> bytes:
    return from_chunks(symbols, _SYM_BYTES)


#: Cap on distinct codebook symbols (the hardware uses a bounded table).
_DEFAULT_CODEBOOK_SIZE = 1024

#: Decoder sanity cap on code length.
_MAX_CODE_LEN = 48


def _default_frequencies() -> Dict[int, int]:
    """A plausible prior over cache-line half-words, used before training.

    Zero dominates real workloads by a wide margin; small integers,
    all-ones and byte-repeat patterns follow.  The exact counts only shape
    code lengths, not correctness.
    """
    freqs: Dict[int, int] = {0: 1 << 20, 0xFFFF: 1 << 12, 1: 1 << 14}
    for value in range(2, 256):
        freqs[value] = (1 << 13) // value
    for value in (0x0101, 0x3F80, 0x4000, 0xBF80):
        freqs[value] = 1 << 8
    return freqs


def _huffman_code_lengths(freqs: Dict[int, int]) -> Dict[int, int]:
    """Code length per symbol via the standard heap construction.

    The escape symbol is always present so unseen words stay encodable.
    """
    heap: List[Tuple[int, int, Any]] = []
    counter = itertools.count()
    for symbol, freq in freqs.items():
        heap.append((freq, next(counter), (symbol,)))
    heap.append((1, next(counter), (_ESCAPE,)))
    heapq.heapify(heap)
    depths: Dict[int, int] = {symbol: 0 for symbol in freqs}
    depths[_ESCAPE] = 0
    if len(heap) == 1:
        only = heap[0][2][0]
        return {only: 1}
    while len(heap) > 1:
        f1, _, s1 = heapq.heappop(heap)
        f2, _, s2 = heapq.heappop(heap)
        merged = s1 + s2
        for symbol in merged:
            depths[symbol] += 1
        heapq.heappush(heap, (f1 + f2, next(counter), merged))
    return depths


def _canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical codes ``symbol -> (code, length)``."""
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol, length in ordered:
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


class _BitWriter:
    """Accumulates bits MSB-first into one big integer."""

    def __init__(self) -> None:
        self.value = 0
        self.bits = 0

    def write(self, code: int, length: int) -> None:
        self.value = (self.value << length) | code
        self.bits += length


class _BitReader:
    """Reads bits MSB-first from a packed integer."""

    def __init__(self, value: int, bits: int) -> None:
        self.value = value
        self.bits = bits
        self.pos = 0

    def read(self, length: int) -> int:
        if self.pos + length > self.bits:
            raise ValueError("SC2 bit-stream underrun")
        shift = self.bits - self.pos - length
        self.pos += length
        return (self.value >> shift) & ((1 << length) - 1)


class SC2Compressor(CompressionAlgorithm):
    """Canonical-Huffman word compressor with an escape symbol."""

    name = "sc2"

    def __init__(
        self,
        line_size: int = 64,
        codebook_size: int = _DEFAULT_CODEBOOK_SIZE,
    ):
        super().__init__(line_size)
        if codebook_size < 2:
            raise ValueError("codebook_size must be at least 2")
        self.codebook_size = codebook_size
        self._generation = 0
        self._install(_default_frequencies())

    # -- training ----------------------------------------------------------
    def train(self, lines: Iterable[bytes]) -> int:
        """Rebuild the codebook from sample lines; returns symbol count.

        Mirrors SC²'s sampling phase: word frequencies are gathered from the
        provided lines and the ``codebook_size`` most frequent words get
        Huffman codes.  Lines compressed with an older codebook can no
        longer be decompressed by this instance (the generation is checked),
        just as reconfiguring the hardware table would require recompression.
        """
        counts: Counter = Counter()
        for line in lines:
            counts.update(_symbols(bytes(line)))
        if not counts:
            raise ValueError("cannot train SC2 on an empty sample")
        top = dict(counts.most_common(self.codebook_size))
        self._install(top)
        return len(top)

    def _install(self, freqs: Dict[int, int]) -> None:
        lengths = _huffman_code_lengths(freqs)
        self._codes = _canonical_codes(lengths)
        self._decode_table = {
            (code, length): symbol
            for symbol, (code, length) in self._codes.items()
        }
        self._generation += 1

    # -- encoding ----------------------------------------------------------
    def _encode(self, line: bytes) -> Tuple[int, Any]:
        writer = _BitWriter()
        escape_code, escape_len = self._codes[_ESCAPE]
        for symbol in _symbols(line):
            entry = self._codes.get(symbol)
            if entry is None:
                writer.write(escape_code, escape_len)
                writer.write(symbol, _SYM_BITS)
            else:
                writer.write(entry[0], entry[1])
        return writer.bits, (self._generation, writer.value, writer.bits)

    def _decode(self, payload: Any) -> bytes:
        generation, value, bits = payload
        if generation != self._generation:
            raise ValueError(
                "SC2 codebook generation mismatch: data was compressed "
                "with a different training state"
            )
        reader = _BitReader(value, bits)
        symbols: List[int] = []
        n_symbols = self.line_size // _SYM_BYTES
        while len(symbols) < n_symbols:
            code, length = 0, 0
            symbol: Optional[int] = None
            while symbol is None:
                code = (code << 1) | reader.read(1)
                length += 1
                if length > _MAX_CODE_LEN:
                    raise ValueError("SC2 code length overflow")
                symbol = self._decode_table.get((code, length))
            if symbol == _ESCAPE:
                symbols.append(reader.read(_SYM_BITS))
            else:
                symbols.append(symbol)
        return _from_symbols(symbols)
