"""Counter-mode splitmix64 stream: known-answer vectors and range contracts."""

import random

import pytest

from monochrome.prng import mix64, stream_below, stream_value

# Reference outputs of the standard splitmix64 generator seeded with 0
# (state advances by the golden-gamma increment before each mix).
SPLITMIX_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_known_answer_vectors_seed_zero():
    for k, expected in enumerate(SPLITMIX_SEED0):
        assert stream_value(0, k) == expected


def test_stream_is_pure_function_of_seed_and_counter():
    assert stream_value(123, 45) == stream_value(123, 45)
    assert stream_value(123, 45) != stream_value(123, 46)
    assert stream_value(123, 45) != stream_value(124, 45)


def test_counter_access_is_random_access():
    # Jumping straight to counter k equals walking there.
    walked = [stream_value(9, k) for k in range(10)]
    assert stream_value(9, 7) == walked[7]
    assert stream_value(9, 0) == walked[0]


def test_outputs_fill_64_bits():
    rng = random.Random(1)
    seen_high_bit = False
    for _ in range(200):
        v = stream_value(rng.getrandbits(64), rng.randrange(1 << 20))
        assert 0 <= v < 1 << 64
        seen_high_bit = seen_high_bit or v >> 63
    assert seen_high_bit


def test_mix64_range_and_determinism():
    rng = random.Random(2)
    for _ in range(200):
        z = rng.getrandbits(64)
        v = mix64(z)
        assert 0 <= v < 1 << 64
        assert mix64(z) == v


def test_stream_below_is_value_mod_n():
    rng = random.Random(3)
    for _ in range(500):
        seed = rng.getrandbits(64)
        k = rng.randrange(1 << 16)
        n = rng.randint(1, 1000)
        assert stream_below(seed, k, n) == stream_value(seed, k) % n


def test_stream_below_range():
    for k in range(100):
        assert 0 <= stream_below(42, k, 7) < 7
    with pytest.raises(ValueError, match="^bound must be positive$"):
        stream_below(1, 0, 0)
