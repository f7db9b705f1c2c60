"""Golden encodings: every registered compressor, pinned bit for bit.

For a fixed corpus (every PARSEC profile, every value pattern, and zero,
repeated-chunk and random lines) each algorithm's ``(size_bits,
repr(payload))`` sequence is hashed.  Encoder optimisations must leave
every digest unchanged: a different but equally small encoding moves
packet sizes, LLC segments and every simulation digest downstream.

If a change *intentionally* alters an encoding, re-capture the digests and
say so in the change description.
"""

import hashlib
import random

import pytest

from repro.compression.registry import available_algorithms, get_algorithm
from repro.workloads import PARSEC_BENCHMARKS, PATTERN_GENERATORS, generate_line
from repro.workloads.corpus import sample_corpus

#: algorithm -> sha256 over the corpus encodings (trainable algorithms
#: are also pinned after training on the corpus, as ``name+trained``).
GOLDEN_ENCODINGS = {
    "bdi": "f8e95dd0e932ede606108ca37ea26311ec8792ecbf9d52147b43d96ebc4a0fe9",
    "cpack": "ee335c666c55a8b713fe08ed47dd7fc8bdb08b3645af8c826e3a9884fd8ec3f7",
    "delta": "e19ee6f0972cc02419e6973dc01892eeb41e97ea1293d0149a5e99424adb7c80",
    "fpc": "c6bb14c480c1e68b8b24a611e8a9b31c8ccfd2be5e6fae31c3533baecfecae97",
    "fvc": "2c8c28a56cf50d371d1020b9e74d5213ce017e1a37932526ec486f3f19f03bc0",
    "fvc+trained": "4fd9c56a28d45e35e3b46a88b0834498c86434c132de3e92ddf64b99facbb295",
    "sc2": "7dc6389f5192abd85aaa584051171059d0fd2d022f2144c5ed64b6f74fcc8d32",
    "sc2+trained": "908c8bf7188fdfb1060660d979045c8dfc9750ae69ac2fcb31d198544fd374d0",
    "sfpc": "cd74651cc95a4f33baeae3ae221cfa6d4d06e1931007242d2a2963eee0a2885a",
    "zero": "3b41e331edeef8dd5c9cf67f839f098a32c66014e74b1f848ca67ba83b9bf0a1",
}


def golden_corpus():
    """A deterministic corpus of 64-byte lines covering every value family."""
    corpus = sample_corpus(
        [PARSEC_BENCHMARKS[name] for name in sorted(PARSEC_BENCHMARKS)],
        lines_per_profile=24,
        seed=5,
    )
    for name in sorted(PATTERN_GENERATORS):
        for i in range(12):
            corpus.append(generate_line(name, random.Random(1_000 + i), 64))
    rng = random.Random(20)
    corpus.append(b"\x00" * 64)
    corpus.append(b"\xff" * 64)
    for _ in range(8):
        corpus.append(rng.randbytes(8) * 8)  # repeated chunk
        corpus.append(rng.randbytes(64))  # random
    return corpus


def encoding_digest(algorithm, corpus) -> str:
    digest = hashlib.sha256()
    for line in corpus:
        compressed = algorithm.compress(line)
        digest.update(repr((compressed.size_bits, compressed.payload)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_registered_algorithm_is_pinned():
    trainable = {
        name
        for name in available_algorithms()
        if hasattr(get_algorithm(name, cached=False), "train")
    }
    assert set(GOLDEN_ENCODINGS) == set(available_algorithms()) | {
        f"{name}+trained" for name in trainable
    }


@pytest.mark.parametrize("key", sorted(GOLDEN_ENCODINGS))
def test_encodings_are_golden(key):
    name, _, trained = key.partition("+")
    corpus = golden_corpus()
    algorithm = get_algorithm(name, cached=False)
    if trained:
        algorithm.train(corpus)
    assert encoding_digest(algorithm, corpus) == GOLDEN_ENCODINGS[key], (
        f"{key} encodes the golden corpus differently"
    )


def test_corpus_covers_every_family():
    corpus = golden_corpus()
    assert len(corpus) == 24 * len(PARSEC_BENCHMARKS) + 12 * len(
        PATTERN_GENERATORS
    ) + 18
    assert all(len(line) == 64 for line in corpus)
    # The special encodings and the raw fallback are all exercised.
    delta = get_algorithm("delta", cached=False)
    kinds = set()
    for line in corpus:
        compressed = delta.compress(line)
        payload = compressed.payload
        if not compressed.compressible:
            kinds.add("raw")
        elif isinstance(payload, tuple):
            kinds.add(payload[0])
        else:
            kinds.add((payload.base_width, payload.delta_width))
    assert {"raw", "zero", "repeat"} <= kinds
    assert len(kinds) >= 6
