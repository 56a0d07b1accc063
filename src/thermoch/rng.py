"""Seeded random fields from a fully documented 64-bit generator.

Random initial data must be reproducible bit-for-bit from the config file
alone, including by reimplementations in other languages, so the generator
is pinned here rather than delegated to a library whose stream is an
implementation detail.

Algorithm (all arithmetic modulo 2^64):

  state seeding — splitmix64 over the seed:
      z = (seed += 0x9E3779B97F4A7C15)
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
      z = (z ^ (z >> 27)) * 0x94D049BB133111EB
      word = z ^ (z >> 31)
  four such words initialize the xoshiro256** state s[0..3].

  next() — xoshiro256**:
      out = rotl64(s[1] * 5, 7) * 9
      t = s[1] << 17
      s[2] ^= s[0];  s[3] ^= s[1];  s[1] ^= s[2];  s[0] ^= s[3]
      s[2] ^= t;     s[3] = rotl64(s[3], 45)

  doubles — the top 53 bits: (out >> 11) * 2^-53, uniform on [0, 1).

Fields are filled in C order (row-major over the grid), one double per
lattice point, in a single stream from the seed.

The stream is computed in lanes: the update is a linear map T over GF(2),
so m = ceil(sqrt(count)) steps of the 256 unit states give the columns of T^m,
and lane i starts at T^(i m) S, the XOR of the columns that the bits of lane
i - 1's start select.  The lanes step m times together in numpy uint64, which
wraps modulo 2^64 as the algorithm does; lane i yields outputs i m .. i m + m - 1.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64_words(seed: int, count: int) -> list[int]:
    state = seed & _MASK
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        words.append(z ^ (z >> 31))
    return words


def _step(s: np.ndarray) -> None:
    """Advance every lane (column) of the (4, lanes) uint64 state in place."""
    t = s[1] << np.uint64(17)
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = (s[3] << np.uint64(45)) | (s[3] >> np.uint64(19))


class Xoshiro256StarStar:
    """The documented generator; one instance is one stream."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._s = np.array(_splitmix64_words(seed, 4), dtype=np.uint64)

    def _u64s(self, count: int) -> np.ndarray:
        """The next count outputs; the stream continues after them."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        m = math.isqrt(count - 1) + 1
        k = -(-count // m)
        jump = np.kron(np.eye(4, dtype=np.uint64), np.uint64(1) << np.arange(64, dtype=np.uint64))
        for _ in range(m):
            _step(jump)
        lanes = np.empty((4, k), dtype=np.uint64)
        lanes[:, 0] = self._s
        for i in range(1, k):
            bits = np.unpackbits(lanes[:, i - 1].astype("<u8").view(np.uint8), bitorder="little")
            lanes[:, i] = np.bitwise_xor.reduce(jump[:, bits.astype(bool)], axis=1)
        record = np.empty((m, k), dtype=np.uint64)
        for j in range(m):
            record[j] = lanes[1]
            _step(lanes)
            if j + 1 == count - (k - 1) * m:  # the last lane has drawn output count - 1
                self._s = lanes[:, -1].copy()
        record *= np.uint64(5)
        out = ((record << np.uint64(7)) | (record >> np.uint64(57))) * np.uint64(9)
        return out.T.reshape(-1)[:count]

    def doubles(self, count: int) -> np.ndarray:
        return (self._u64s(count) >> np.uint64(11)) * 2.0**-53

    def uniform_symmetric(self, amplitude: float, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform values on [-amplitude, amplitude), C-order fill."""
        if any(n < 0 for n in shape):
            raise ValueError(f"shape must have non-negative sizes, got {shape}")
        flat = self.doubles(math.prod(shape))
        return (amplitude * (2.0 * flat - 1.0)).reshape(shape)
