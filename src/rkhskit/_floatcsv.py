"""Float CSV bodies: every cell is ``"%.17g" % x``, computed for whole blocks.

For 1e-4 <= |x| < 1e15, "%.17g" is fixed notation with the 17 digits of
N = round-half-even(|x| 10^s), s = 16 - E, where E is the decimal exponent.
With |x| = m 2^q (m < 2^53), |x| 10^s = m 5^s / 2^t for a shift t = -(s + q)
in [1, 48], and m 5^s < 2^100 is one 128-bit product, so a block of cells
gets its digits from uint64 arithmetic: the fixed-precision case of Adams,
"Ryu revisited: printf floating point conversion" (OOPSLA 2019).  Every
uint64 expression has np.uint64 operands only, so NumPy 1.x promotion gives
the same words as NEP 50.

Each cell is laid out in five little-endian words (40 bytes)::

    byte 0       '-' for a negative cell
    bytes 1-5    "0.000": "0." and -E-1 zeros when E < 0
    bytes 6-37   d0 . d1 . d2 ... d14 . d15 d16: a '.' slot after d0..d14
    bytes 38-39  "," or "\\r\\n" at the end of a matrix row

A mask chosen by E and by the number of digits left after stripping trailing
zeros turns the bytes a cell does not print into NUL, and the block's text is
its bytes with every NUL deleted.  A cell outside the fixed range (zeros,
subnormals, nan, inf, |x| < 1e-4 or >= 1e15), or whose estimated E proves
wrong, is laid out as the placeholder "%.17g" instead, and Python formats
those cells with one % per block.

``serialize`` imports this module on the first float CSV write, so commands
that write none neither compile it nor build its tables.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

_BLOCK_CELLS = 4096
_E_MIN, _E_MAX = -4, 14
_U64 = np.uint64
_LOW, _HIGH = _U64(10**16), _U64(10**17)
_HALF = _U64(1 << 63)
_MANTISSA, _HIDDEN = _U64((1 << 52) - 1), _U64(1 << 52)
_LO32 = _U64(0xFFFFFFFF)


def write_float_rows(fp: TextIO, matrix: np.ndarray) -> None:
    """Write the rows of a 2-D float matrix as ``"%.17g"`` cells joined by
    "," with each row ended by "\\r\\n", in blocks of whole rows."""
    rows, cols = matrix.shape
    if cols == 0:
        fp.write("\r\n" * rows)  # what the csv writer writes for an empty row
        return
    step = max(1, _BLOCK_CELLS // cols)
    words = np.empty((min(step, rows), cols, 5), dtype="<u8")
    for start in range(0, rows, step):
        block = np.ascontiguousarray(matrix[start : start + step], dtype=np.float64)
        fp.write(_encode_rows(block, words[: len(block)]))


def _exponent_tables():
    """Tables over the binades b (biased exponents) whose
    E0 = floor(log10 2^(b - 1023)) is in [E_MIN - 1, E_MAX], by binade
    number i = b - first, and one more number for every other binade.

    Returns the first such b, the thresholds 10^(E0 + 1) by i, and by index
    2 i + c, where c = (|x| >= 10^(E0 + 1)) makes E = E0 + c: the power 5^s
    (0 where E is not in the fixed range, which fails every such cell), the
    shift t and E."""

    def e0(b):
        return ((b - 1023) * 78913) >> 18  # exact for |b - 1023| <= 1650

    scan = range(1023 + 4 * (_E_MIN - 2), 1023 + 4 * (_E_MAX + 2))  # a decade is < 4 binades
    near = [b for b in scan if _E_MIN - 1 <= e0(b) <= _E_MAX]
    threshold, pow5, shift, exp10 = [], [], [], []
    for b in near:
        threshold.append(float(f"1e{e0(b) + 1}"))
        for e in (e0(b), e0(b) + 1):
            fixed = _E_MIN <= e <= _E_MAX
            pow5.append(5 ** (16 - e) if fixed else 0)
            shift.append(1059 - b + e if fixed else 1)  # t = 1075 - b - s
            exp10.append(e if fixed else 0)
    threshold.append(np.inf)
    pow5 += [0, 0]
    shift += [1, 1]
    exp10 += [0, 0]
    return (
        near[0],
        np.array(threshold),
        np.array(pow5, dtype=np.uint64),
        np.array(shift, dtype=np.uint64),
        np.array(exp10, dtype=np.int64),
    )


def _digit_tables():
    """Per 4-digit group g = 100 a + b: its digits each followed by a '.'
    slot; the same for the last group but d13 . d14 . d15 d16, leaving bytes
    38-39 to the separator; and the number of trailing zeros of g (4 for 0)."""
    a = np.arange(100, dtype=np.uint64)
    tens, ones = a // _U64(10) + _U64(ord("0")), a % _U64(10) + _U64(ord("0"))
    dotted = tens | _U64(ord(".") << 8) | ones << _U64(16) | _U64(ord(".") << 24)
    words = (dotted[:, None] | dotted << _U64(32)).ravel()
    last = (dotted[:, None] | (tens | ones << _U64(8)) << _U64(32)).ravel()
    pair_zeros = (a % _U64(10) == 0).astype(np.uint8) + (a == 0)
    zeros = np.where(a == 0, 2 + pair_zeros[:, None], pair_zeros).ravel()
    return words, last, zeros


def _layout_masks():
    """0xFF/0x00 byte masks as rows of five words: by code
    (E - E_MIN) * 17 + digits - 1, then one row for the placeholder."""
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    digits = np.arange(1, 18)[None, :, None]
    j = np.arange(40)
    keep = (j == 0) | (j >= 38) | (((j == 1) | (j == 2) | (j >= e + 7) & (j <= 5)) & (e < 0))
    for k, pos in enumerate([6] + [8 + 2 * i for i in range(15)] + [37]):  # d0 .. d16
        keep = keep | (j == pos) & (k < digits)
        if k <= _E_MAX:
            keep = keep | (j == pos + 1) & (e == k) & (digits > k + 1)
    placeholder = (j < 5) | (j >= 38)
    masks = np.concatenate([keep.reshape(-1, 40), placeholder[None]])
    return (masks.astype(np.uint8) * np.uint8(0xFF)).view(np.uint64)


_FIRST_BINADE, _THRESHOLD, _POW5, _SHIFT, _EXP10 = _exponent_tables()
_FIRST_BINADE, _OTHER_BINADE = _U64(_FIRST_BINADE), _U64(len(_THRESHOLD) - 1)
_GROUP_WORDS, _LAST_WORDS, _GROUP_ZEROS = _digit_tables()
_MASKS = _layout_masks()
_PLACEHOLDER = len(_MASKS) - 1
_PREFIX = _U64(int.from_bytes(b"\0" b"0.000" b"\0" b".", "little"))  # sign and d0 slots empty
_PERCENT = _U64(int.from_bytes(b"%.17g\0\0\0", "little"))
_MINUS = _U64(ord("-"))
_ZERO = _U64(ord("0"))
_COMMA = _U64(ord(",") << 48)
_CRLF = _U64(int.from_bytes(b"\r\n", "little") << 48)


def _encode_rows(block: np.ndarray, words: np.ndarray) -> str:
    """Text of the cells of a C-contiguous float64 block; ``words`` is
    scratch space of shape ``block.shape + (5,)`` and dtype ``<u8``."""
    x = block.reshape(-1)
    fixed = _fixed_digits(x)
    if fixed is None:  # no cell in the fixed range: every cell is a placeholder
        rows, cols = block.shape
        return (("%.17g," * (cols - 1) + "%.17g\r\n") * rows) % tuple(x.tolist())
    n, exp10, fast = fixed
    code = _lay_out(words, x.view(np.uint64), n, exp10)
    slow = np.flatnonzero(~fast)
    cells = words.reshape(-1, 5)
    cells[slow, 0] = _PERCENT
    code[slow] = _PLACEHOLDER
    cells &= _MASKS.take(code, axis=0)
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(x[slow].tolist()) if len(slow) else text


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x of uint64 arrays of
    one shape, via 32-bit halves."""
    m_lo, m_hi = m & _LO32, m >> _U64(32)
    x_lo, x_hi = x & _LO32, x >> _U64(32)
    cross = x_hi * m_lo
    mid = ((x_lo * m_lo) >> _U64(32)) + (cross & _LO32) + x_lo * m_hi
    hi = x_hi * m_hi + (cross >> _U64(32)) + (mid >> _U64(32))
    return hi, x * m


def _fixed_digits(x: np.ndarray):
    """Per cell of x, its 17 digits N as an integer, its E, and whether both
    are right; None when no cell of x is in the fixed range."""
    bits = x.view(np.uint64)
    # binades below the first wrap around to large numbers
    binade = np.minimum(((bits >> _U64(52)) & _U64(0x7FF)) - _FIRST_BINADE, _OTHER_BINADE)
    index = binade + binade + (np.abs(x) >= _THRESHOLD.take(binade))
    pow5 = _POW5.take(index)
    if not pow5.any():
        return None
    shift = _SHIFT.take(index)
    hi, lo = _mulhilo((bits & _MANTISSA) | _HIDDEN, pow5)
    # floor(m 5^s / 2^t), and the bits shifted out of it at the top of rem
    floor = (hi << (_U64(64) - shift)) | (lo >> shift)
    rem = lo << (_U64(64) - shift)
    n = floor + ((rem > _HALF) | (rem == _HALF) & (floor & _U64(1)).astype(bool))
    # E was right iff 10^16 <= floor < 10^17.  Rounding cannot carry n to
    # 10^17 here: the largest double below 10^(E+1), E in [-4, 14], is more
    # than 5e-18 of it away in relative terms; a carry would fall back anyway.
    return n, _EXP10.take(index), (floor >= _LOW) & (n < _HIGH)


def _lay_out(words: np.ndarray, bits: np.ndarray, n: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """Write each cell's five words, and return its mask code."""
    d0 = n // _LOW
    rest = n - d0 * _LOW
    high = rest // _U64(10**8)
    low = rest - high * _U64(10**8)
    g1, g3 = high // _U64(10**4), low // _U64(10**4)
    g2, g4 = high - g1 * _U64(10**4), low - g3 * _U64(10**4)
    cells = words.reshape(-1, 5)
    cells[:, 0] = _PREFIX | ((d0 | _ZERO) << _U64(48)) | (bits >> _U64(63)) * _MINUS
    cells[:, 1] = _GROUP_WORDS.take(g1)
    cells[:, 2] = _GROUP_WORDS.take(g2)
    cells[:, 3] = _GROUP_WORDS.take(g3)
    cells[:, 4] = _LAST_WORDS.take(g4)
    words[:, :-1, 4] |= _COMMA
    words[:, -1, 4] |= _CRLF
    z1, z2, z3, z4 = (_GROUP_ZEROS.take(g) for g in (g1, g2, g3, g4))
    zeros = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    digits = np.maximum(exp10 + 1, 17 - zeros.astype(np.int64))
    return (exp10 - _E_MIN) * 17 + digits - 1
