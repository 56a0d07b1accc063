"""The documented xoshiro256** algorithm one output at a time, on Python ints.

thermoch.rng draws the stream in numpy lanes after a jump-ahead; the tests
require it to equal this direct transcription of the algorithm in
thermoch.rng's docstring, bit for bit.
"""

from thermoch.rng import _splitmix64_words

MASK = (1 << 64) - 1


def rotl64(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK


class ScalarXoshiro256StarStar:
    """One stream; the state is seeded by thermoch's splitmix64 or given."""

    def __init__(self, seed: int | None = None, state: list[int] | None = None):
        self.s = list(state) if state is not None else _splitmix64_words(seed, 4)

    def next_u64(self) -> int:
        s = self.s
        out = (rotl64((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl64(s[3], 45)
        return out

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def doubles(self, count: int) -> list[float]:
        return [self.next_double() for _ in range(count)]
