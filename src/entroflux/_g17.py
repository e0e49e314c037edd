"""The exact bytes of `'%.17g' % x` for every value of a float64 array, vectorized.

For finite nonzero x, with e = floor(log10|x|), the 17 significant digits are
D = round(s), s = |x| * 10**(16 - e), which lies in [10**16, 10**17); a D of
10**17 carries to 10**16 and e + 1.  s is taken in long double, with 10**k
correctly rounded, so it carries two roundings of at most 2**-64 each: less
than 0.011 in units of its last digit.  Where frac(s) is at least 0.0125 from
a half, D is the rounding of the exact value too.  The values left over
(near-ties, nan and inf, about 1 to 3% of them) take `%`, in one batch.

Each value's text is laid out in a slot of WIDTH bytes, six 64-bit words,

    -0.000d0.  d1.d2.d3.d4.  ...  d13.d14.d15.d16.  e+XXX___
    word 0     word 1             word 4            word 5

each word looked up in a table of its digits.  The bytes of the slot that are
not in the text depend only on the value's sign, its count of significant
digits and its notation (`%g`: fixed for -4 <= e < 17, else d.ddde+XX with at
least two exponent digits; no trailing zeros); one table gives them as 0xFF,
a byte no UTF-8 text holds, so a row of slots less its 0xFF bytes is the text.

The tables are built on first use, not at import.  The kernel is then checked
on a fixed set of hard values against `%`; if any differs (a long double
without a 64-bit significand, or x87 precision control set to 53 bits),
every value takes `%` for the rest of the process.
"""
from __future__ import annotations

import functools
import math

import numpy as np

WIDTH = 48  # bytes of a slot
WORDS = WIDTH // 8
PASS_VALUES = 2048  # values formatted at a time: a bound on the kernel's temporaries
_E_MIN, _E_MAX = -324, 308  # the decimal exponents of float64
_FIXED = 21  # notation classes 0..20 are fixed with e = -4..16; 21 and 22 are
# scientific with two and three exponent digits
_TIE = 0.0125  # frac(s) nearer a half than this: s may round unlike the exact value


def _words(text) -> np.ndarray:
    """The rows of a (.., 8) array of bytes as 64-bit words."""
    return np.ascontiguousarray(text, dtype=np.uint8).view(np.uint64)[..., 0]


def _drop_table() -> np.ndarray:
    """drop[neg, nd - 1, cls]: 0xFF in each slot byte not in the text of a sign,
    a count nd of significant digits and a notation class, else 0."""
    neg, nd, cls, p = np.ix_(range(2), range(1, 18), range(23), range(WIDTH))
    e, fixed = cls - 4, cls < _FIXED
    i = (p - 6) // 2  # the digit at p, or the digit a '.' at p follows
    digit = (p >= 6) & (p < 40) & (p % 2 == 0) & (i < np.where(fixed, np.maximum(nd, e + 1), nd))
    # the '.' after digit e (fixed, e >= 0) or after digit 0 (scientific)
    point = np.where(fixed, e, 0)
    dot = (p >= 7) & (p < 40) & (p % 2 == 1) & (i == point) & (nd > point + 1)
    zeros = fixed & (e < 0) & (p >= 1) & (p < 2 - e)  # "0." and the zeros after it
    exponent = ~fixed & (p >= 40) & (p < 45) & ((p < 42) | (p > 42) | (cls > _FIXED))
    keep = ((p == 0) & (neg == 1)) | digit | dot | zeros | exponent
    return _words(np.where(keep, np.uint8(0), np.uint8(0xFF)).reshape(-1, WORDS, 8))


def _text_words(fmt: str, values) -> np.ndarray:
    """The 8-byte text fmt % v of each of values as a 64-bit word."""
    return np.frombuffer((fmt * len(values) % tuple(values)).encode(), np.uint64)


def _build_tables(real=np.longdouble) -> tuple:
    """10**k for 16 - _E_MAX <= k <= 16 - _E_MIN, correctly rounded in real, the
    type s is taken in; the slot's words, the trailing zeros of four digits and
    the notation class of each decimal exponent; the drop table."""
    pow10 = np.array([f"1e{k}" for k in range(16 - _E_MAX, 17 - _E_MIN)]).astype(real)
    # with the integer operations of the kernel, and no array larger than n
    n = np.arange(10000)
    dotted = np.full((10000, 8), ord("."), np.uint8)
    tz4 = np.zeros_like(n)
    trailing = np.ones(10000, bool)  # the digits after this one are all zeros
    for j, scale in enumerate((1, 10, 100, 1000)):
        digit = n // scale - n // (10 * scale) * 10
        dotted[:, 6 - 2 * j] = digit + ord("0")
        trailing &= digit == 0
        tz4 += trailing
    exponents = range(_E_MIN, _E_MAX + 1)
    classes = [e + 4 if -4 <= e < 17 else _FIXED + (abs(e) >= 100) for e in exponents]
    return (pow10, _text_words("-0.000%d.", range(10)), _words(dotted), tz4,
            _text_words("e%+04d\0\0\0", exponents), np.array(classes), _drop_table())


def text_slots(texts: list, width: int) -> np.ndarray:
    """texts (bytes, none longer than width) as a (len(texts), width) uint8
    array, each text from the start of its row and 0xFF after it."""
    rows = np.array(texts, dtype=f"S{width}")[:, None].view(np.uint8)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    rows[np.arange(rows.shape[1]) >= lengths[:, None]] = 0xFF
    return rows


def _percent(x: np.ndarray, words: np.ndarray) -> None:
    """The `%.17g` text of each value of x, by one `%`, into its slot."""
    if not x.size:
        return
    texts = ("%.17g," * x.size % tuple(x.ravel().tolist())).encode()[:-1].split(b",")
    words.view(np.uint8)[...] = text_slots(texts, WIDTH).reshape(words.shape[:-1] + (WIDTH,))


def _digits(x: np.ndarray, pow10: np.ndarray) -> tuple:
    """The 17 significant digits D of each value of x (0 for a zero) as an
    integer, its decimal exponent e, and whether the value is left to `%`."""
    a = np.abs(x)
    zero = a == 0
    ok = (a > 0) & (a < np.inf)
    a[~ok] = 1.0  # for zeros, nan and inf, whose digits are set or left to `%`
    e = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(pow10.dtype)
    s = a * pow10[_E_MAX - e]
    off = (s >= 1e17).astype(np.intp) - (s < 1e16)
    if off.any():  # log10 was one off, next to a power of ten
        e += off
        s = np.multiply(a, pow10[_E_MAX - e], out=s)
    del a, off
    d = s.astype(np.int64)
    frac = (s - d).astype(np.float64)
    del s
    d += frac >= 0.5
    left = (np.abs(frac - 0.5) < _TIE) | ~(ok | zero)
    carry = d == 10**17
    d -= carry * (10**17 - 10**16)
    e += carry
    d[zero] = 0
    return d, e, left


def _kernel(x: np.ndarray, words: np.ndarray, tables: tuple) -> None:
    """`format_into` with the tables."""
    pow10, lead_words, dotted, tz4, exp_words, classes, drop_table = tables
    d, e, left = _digits(x, pow10)
    np.take(exp_words, e - _E_MIN, out=words[..., 5])
    row = classes[e - _E_MIN] + np.signbit(x) * (17 * 23)
    # the lead digit, then four groups of four: words 0 to 4
    lead = d // 10**16
    np.take(lead_words, lead, out=words[..., 0])
    d -= lead * 10**16
    high = d // 10**8
    d -= high * 10**8
    groups = []
    for part in (high, d):  # eight digits each
        top = part // 10**4
        groups += [top, part - top * 10**4]
    # trailing zeros of the 16 digits after the lead, hence the significant digits
    tz = tz4[groups[0]] + 12
    for j, g in enumerate(groups):
        np.take(dotted, g, out=words[..., 1 + j])
        if j:
            tz = np.where(g != 0, tz4[g] + (12 - 4 * j), tz)
    row += (16 - tz) * 23
    for j in range(WORDS):
        words[..., j] |= drop_table[row, j]
    if left.any():
        at = np.nonzero(left)
        sub_words = words[at]
        _percent(x[at], sub_words)
        words[at] = sub_words


def _hard_values() -> np.ndarray:
    """Values whose digits a kernel with too little precision gets wrong, values
    that carry, ties, and one of each notation class."""
    powers = np.array([f"1e{k}" for k in range(-323, 309, 7)], dtype=float)
    return np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [0.1, 1 / 3, 2 / 3, 0.3, 0.30000000000000004, 123456789.12345678,
         100000000000.015625, 9.9999999999999999e16, 1e16, 1e17, 1e-5, 1e-4,
         9.99999999999999e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -0.0, 0.0, np.nan, np.inf, -np.inf, -2.5e300, -4.35, -1e-200],
    ])


@functools.cache
def _tables():
    """The kernel's tables, or None if the kernel fails its check on this host."""
    tables = _build_tables()
    x = _hard_values()
    slots = np.empty((2, x.size, WORDS), np.uint64)
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            _kernel(x, slots[0], tables)
    except IndexError:  # digits or exponents out of range: s is far off
        return None
    _percent(x, slots[1])
    slots.view(np.uint8)[..., -1] = ord("\n")  # each text on a line of its own
    kernel, percent = (s.tobytes().translate(None, b"\xff") for s in slots)
    return tables if kernel == percent else None


def format_into(x: np.ndarray, words: np.ndarray) -> None:
    """Write the `'%.17g' % v` text of each value v of float64 x into words
    (uint64, x.shape + (WORDS,)), a slot of WIDTH bytes per value: its text,
    with every other byte of the slot 0xFF, a byte no UTF-8 text holds.  The
    rows of x are formatted PASS_VALUES values (at least one row) at a time."""
    tables = _tables()
    step = max(1, PASS_VALUES // math.prod(x.shape[1:]))  # rows of x per pass
    for a in range(0, len(x), step):
        if tables is None:
            _percent(x[a : a + step], words[a : a + step])
        else:
            _kernel(x[a : a + step], words[a : a + step], tables)
