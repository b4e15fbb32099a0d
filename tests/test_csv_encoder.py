"""Float CSV bodies: the vectorized encoder against Python's ``%.17g``.

The oracle is the row template ``write_matrix_csv`` used before the encoder:
one ``"%.17g,...,%.17g\\r\\n" % tuple(row)`` per row, which is byte for byte
what the csv module writes for ``fmt``.  Inputs are derandomized (fixed
seeds), so a failure names a value that fails again.
"""

import io
import time

import numpy as np
import pytest

import rkhskit._floatcsv as floatcsv
from rkhskit.serialize import write_matrix_csv


def template_body(matrix) -> str:
    line = ",".join(["%.17g"] * matrix.shape[1]) + "\r\n"
    return "".join(line % tuple(row) for row in matrix.tolist())


def encoded_body(matrix) -> str:
    buf = io.StringIO()
    write_matrix_csv(buf, list(range(matrix.shape[1])), matrix)
    return buf.getvalue().split("\r\n", 1)[1]


def assert_same_bytes(matrix):
    got, want = encoded_body(matrix), template_body(matrix)
    if got != want:
        flat = np.asarray(matrix, dtype=np.float64).ravel()
        cells = got.replace("\r\n", ",").split(",")
        bad = next(i for i, x in enumerate(flat.tolist()) if cells[i] != "%.17g" % x)
        pytest.fail(f"cell {bad}: {flat[bad]!r} encoded as {cells[bad]!r}, want {'%.17g' % flat[bad]!r}")


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


def test_random_bit_patterns_over_every_exponent():
    # every biased exponent 0..2047 (subnormals, nan payloads, +-inf and +-0
    # included), random mantissas and signs
    rng = np.random.default_rng(1)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 40)
    mantissa = rng.integers(0, 1 << 52, size=exponent.size, dtype=np.uint64)
    mantissa[::40] = 0  # the powers of two, zeros and infinities
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    assert_same_bytes(bits.view(np.float64).reshape(-1, 64))


def test_random_bits_in_the_fixed_range():
    rng = np.random.default_rng(2)
    bits = rng.integers(1006 << 52, 1075 << 52, size=200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    assert_same_bytes(bits.view(np.float64).reshape(-1, 8))


def test_log_uniform_both_signs():
    rng = np.random.default_rng(3)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e18), size=100_000))
    assert_same_bytes((x * rng.choice([-1.0, 1.0], size=x.size)).reshape(-1, 5))


def test_neighbours_of_powers_of_ten():
    values = []
    for k in range(-8, 19):
        p = float(f"1e{k}")
        values += [_nudged(p, d) for d in (-2, -1, 0, 1, 2)]
    values = np.array(values)
    assert_same_bytes(np.concatenate([values, -values]).reshape(-1, 1))


def test_exact_ties_and_values_just_below_a_power_of_ten():
    # the exact decimal ties round half to even; 9.9999999999999995e-5 is
    # just below 1e-4 and keeps its 17 nines
    cases = {
        9.9999999999999995e-5: "9.9999999999999991e-05",
        1000000000000000.25: "1000000000000000.2",
        1000000000000000.75: "1000000000000000.8",
        0.5: "0.5",
        1.0: "1",
        100.0: "100",
        1e14: "100000000000000",
    }
    values = np.array(list(cases))
    assert encoded_body(values.reshape(-1, 1)).split("\r\n")[:-1] == list(cases.values())
    below = [float(f"9.99999999999999{d}e{k}") for d in range(10) for k in (-4, -3, 0, 7, 14)]
    assert_same_bytes(np.array([_nudged(x, u) for x in below for u in (-1, 0, 1)]).reshape(-1, 3))


def test_decimals_with_trailing_zeros():
    rng = np.random.default_rng(4)
    ints = rng.integers(-(10**6), 10**6, size=(5000, 4)).astype(np.float64)
    for scale in (1.0, 10.0, 1e4, 1e-3, 1e8):
        assert_same_bytes(ints / scale)
        assert_same_bytes(ints * scale)


def test_float32_transposed_and_strided_input():
    rng = np.random.default_rng(5)
    assert_same_bytes(rng.standard_normal((300, 7)).astype(np.float32))
    wide = rng.standard_normal((40, 70))
    assert_same_bytes(wide.T)
    assert_same_bytes(wide[::3, ::2])
    assert_same_bytes(np.asfortranarray(wide))


@pytest.mark.parametrize(
    "shape",
    [(0, 4), (0, 0), (1, 1), (6, 1), (3, 0), (2731, 3), (4097, 1), (2, 5000)],
    ids=str,
)
def test_shapes_and_block_boundaries(shape):
    # 4096-cell blocks of whole rows: 2731 x 3 and 4097 x 1 straddle a block
    # boundary, and a 5000-cell row is a block of its own
    rng = np.random.default_rng(6)
    assert_same_bytes(rng.standard_normal(shape))


FALLBACK_VALUES = [np.nan, np.inf, -np.inf, 1e-300, 1e300, 0.0, -0.0, 5e-324]


def test_fallback_cells_mixed_with_fast_cells():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((500, 9))
    pick = rng.random(m.shape) < 0.3
    m[pick] = rng.choice(FALLBACK_VALUES, size=pick.sum())
    assert_same_bytes(m)


def test_all_fallback_matrix_skips_the_exact_path(monkeypatch):
    def no_exact_arithmetic(*args):
        raise AssertionError("an all-fallback block entered the exact path")

    monkeypatch.setattr(floatcsv, "_mulhilo", no_exact_arithmetic)
    rng = np.random.default_rng(8)
    assert_same_bytes(rng.choice([np.nan, np.inf, 1e-300, 1e300], size=(300, 64)))


def test_all_fallback_matrix_is_not_slower_than_the_template():
    rng = np.random.default_rng(9)
    m = rng.choice([np.nan, np.inf, 1e-300, 1e300], size=(400, 64))
    encoder, template = [], []
    for _ in range(5):
        start = time.perf_counter()
        encoded_body(m)
        encoder.append(time.perf_counter() - start)
        start = time.perf_counter()
        template_body(m)
        template.append(time.perf_counter() - start)
    # both run Python's %.17g once per cell, so the ratio is about 1 (0.8 to
    # 1.04 over five repeats on 2 cores); the 1.5 allows for timer noise
    assert min(encoder) <= 1.5 * min(template)
