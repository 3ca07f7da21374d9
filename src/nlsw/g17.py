"""Exact vectorised '%.17g' and '%d': numbers formatted a whole array at a
time, byte for byte what Python's % operator writes for each of them.

cells(values) gives each value a cell of CELL bytes and a pattern id; the
row KEEP[pid] of the keep table picks, in order, the cell's bytes that make
up the value's text, so chars[KEEP[pids]] over an array of cells is the
concatenation of their texts (rows).  The bytes at END and END + 1 belong
to no pattern: a writer puts a field's separator there.  A float cell holds
every character any of its layouts may need, in the order they appear:

    byte  1      '-'
    2-6          '0' '.' '0' '0' '0'  (0.000ddd; '0', 'inf' or 'nan' at 2-4)
    7            d0, the leading digit
    8-23         d1..d16, the digits before a fixed-form point
    24           '.'
    28-43        d1..d16 again, the digits after the point
    44-48        'e', the exponent's sign and three exponent digits

'%.17g' rounds the value to 17 significant digits d0..d16, D = d0d1..d16,
with the decimal exponent E: the fixed form when -4 <= E < 17 and the
exponent form otherwise, with trailing zeros and a bare point dropped, and
at least two exponent digits.  The digits are found as Grisu does (Loitsch,
PLDI 2010), without formatting a value on its own:

1. Scale exactly: D = round(|v| * 10**(16 - E)), with 10**p from a table of
   double-double mantissas, (hi + lo) * 2**k, built in integer arithmetic;
   |v| * 2**k is exact for every finite v, a subnormal scaled up by that
   power of two like any other, and its product with hi is exact as a
   Dekker two-product.
2. Correct the exponent: E starts as floor(log10|v|), and a product
   outside [10**16, 10**17) moves it by one; a rounding up to 10**17
   carries into E.
3. Make the digits: 4-digit groups from a lookup table of uint32 words,
   with the trailing zeros counted in the same groups.
4. Lay out the cell: words from tables, the pattern from (sign, E, number
   of digits), and the constants 0, -0, inf, -inf and nan; a NaN with its
   sign bit set is written nan, as Python writes it.
5. Fall back rarely: the computed fraction of the scaled value is within
   about 1e-14 of the true one (lo's rounding and the sum of the product's
   error terms), so a value whose fraction lies within _TIE = 1e-9 of a
   half, an exact or a near tie of the rounding, takes its digits from
   '%.16e' % v alone (_alone), which rounds the same 17 significant digits.

An integer array (int64 range) is written as '%d' writes it, in cells of
its own layout: '-' at byte 1 and up to 20 digits ending at byte 43.
"""

from __future__ import annotations

import functools

import numpy as np

CELL = 52               # bytes of a cell
WORDS = CELL // 4       # its uint32 words
END = 49                # the separator's bytes: END and END + 1

_DIGITS = 17
_TIE = 1e-9             # distance from a half that takes the fallback
_P16, _P17 = 10 ** 16, 10 ** 17
_E_MIN, _E_MAX = -325, 309      # exponents E that a correction can reach
_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitter

# Pattern ids.  A float's body: fixed form (E + 4) * 17 + nd - 1 for
# -4 <= E <= 16 and nd significant digits, exponent form from _EXP2 (two
# exponent digits) or _EXP3 (three), then 0, inf and nan; a sign adds
# _BODIES.  Integers from _INTS: 20 * negative + digits - 1.  EMPTY keeps
# no byte.
_EXP2 = 21 * _DIGITS
_EXP3 = _EXP2 + _DIGITS
_ZERO, _INF, _NAN = _EXP3 + _DIGITS, _EXP3 + _DIGITS + 1, _EXP3 + _DIGITS + 2
_BODIES = _NAN + 1
_INTS = 2 * _BODIES
EMPTY = _INTS + 40


def _word(text: bytes) -> int:
    """The little-endian uint32 of 4 bytes of text."""
    return int.from_bytes(text, "little")


# A float cell's constant words: 0 and 1 with d0 = 0 at byte 7 (which are
# also the cell of a zero), 6 the point at byte 24; and words 0 and 1 of
# inf and of nan.
_W0, _W1 = _word(b"\0-0."), _word(b"0000")
_W6 = _word(b".\0\0\0")
_INF_NAN_WORDS = np.array([[_word(b"\0-in"), _word(b"f000")],
                           [_word(b"\0-na"), _word(b"n000")]], np.uint32)


@functools.cache
def _tables() -> dict:
    """The lookup tables, built once, on the first call."""
    his, los, ks = [], [], []
    for p in range(16 - _E_MAX, 16 - _E_MIN + 1):
        hi, lo, k = _power(p)
        his.append(hi)
        los.append(lo)
        ks.append(k)
    hi = np.array(his)
    split = hi * _SPLIT
    hi_h = split - (split - hi)

    # The 4-digit groups 0000..9999 as 4 bytes, and their trailing zeros.
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    zeros, run = 0, True
    for place in range(4):
        chars[..., place] = digit.reshape((10,) + (1,) * (3 - place))
        run = run & (np.arange(10) == 0).reshape((10,) + (1,) * place)
        zeros = zeros + run
    chars = chars.reshape(-1, 4)

    # The exponent's 8 bytes: 'e', its sign, three digits and the separator's
    # two, and the body of each exponent's pattern.
    exponent = np.arange(_E_MIN, _E_MAX + 1)
    exp_chars = np.zeros((len(exponent), 8), np.uint8)
    exp_chars[:, 0] = ord("e")
    exp_chars[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    magnitude = np.abs(exponent)
    exp_chars[:, 2:5] = chars[magnitude, 1:]
    fixed = (exponent >= -4) & (exponent < 17)
    body = np.where(fixed, (exponent + 4) * _DIGITS,
                    np.where(magnitude >= 100, _EXP3, _EXP2))

    tables = {"hi": hi, "hi_h": hi_h, "hi_l": hi - hi_h, "lo": np.array(los),
              "k": np.array(ks, np.int32), "quad": chars.view(np.uint32).ravel(),
              "lead": _W1 + (np.arange(10, dtype=np.uint32) << 24),
              "zeros": zeros.ravel().astype(np.int8),
              "digits": (_DIGITS - 1 - zeros.ravel()).astype(np.int8),
              "exp": exp_chars.view(np.uint32), "body": body,
              "keep": _keep_table(),
              "powers": np.array([10 ** k for k in range(1, 20)], np.uint64)}
    for table in tables.values():       # shared by every call
        table.flags.writeable = False
    return tables


def _power(p: int) -> tuple[float, float, int]:
    """(hi, lo, k): 10**p = (hi + lo) * 2**k exactly but for lo's rounding,
    hi in [1, 2] with 53 bits and lo the rest rounded to nearest, from
    integer arithmetic: 10**p = 5**p * 2**p, and 1 / 5**q in 53 bits."""
    if p >= 0:
        n = 5 ** p
        s = max(0, n.bit_length() - 53)          # n = q * 2**s + r
        q = (n + (1 << s >> 1)) >> s
        k = p + n.bit_length() - 1
        return q / 2 ** (k - p - s), (n - (q << s)) / (1 << (k - p)), k
    d = 5 ** -p
    bits = d.bit_length()                        # 2**(bits-1) < d < 2**bits
    q = ((1 << (bits + 53)) + d) // (2 * d)      # round(2**(bits + 52) / d)
    return q / 2 ** 52, ((1 << (bits + 52)) - q * d) / (d << 52), p - bits


def _keep_table() -> np.ndarray:
    """KEEP: the bytes of a cell that each pattern id writes, in order."""
    pos = np.arange(CELL)
    first = np.where((pos >= 7) & (pos <= 23), pos - 7, -1)      # d0..d16
    second = np.where((pos >= 28) & (pos <= 43), pos - 27, -1)   # d1..d16
    nd = np.arange(1, _DIGITS + 1)[:, None]
    E = np.arange(-4, 17)[:, None, None]
    fraction = (second >= 0) & (second <= nd - 1)
    whole = (first >= 0) & (first <= np.maximum(E, 0))
    point = (pos == 24) & (nd - 1 > E)
    fixed = whole | ((second > E) & fraction) | point
    small = ((pos == 2) | (pos == 3) | ((pos >= 4) & (pos < 3 - E))
             | ((first >= 0) & (first <= nd - 1)))
    fixed = np.where(E >= 0, fixed, small)

    exponent = (pos == 7) | fraction | ((pos == 24) & (nd > 1))
    exponent = exponent | (pos == 44) | (pos == 45) | (pos == 47) | (pos == 48)
    three = exponent | (pos == 46)

    bodies = np.zeros((_BODIES, CELL), bool)
    bodies[:_EXP2] = fixed.reshape(-1, CELL)
    bodies[_EXP2:_EXP3] = exponent
    bodies[_EXP3:_ZERO] = three
    bodies[_ZERO, 2] = True
    bodies[[_INF, _NAN], 2:5] = True
    signed = bodies.copy()
    signed[:_NAN, 1] = True

    digits = np.arange(1, 21)[:, None]
    ints = (pos >= 44 - digits) & (pos < 44)
    return np.concatenate([bodies, signed, ints, ints | (pos == 1),
                           np.zeros((1, CELL), bool)])


def cells(values) -> tuple[np.ndarray, np.ndarray]:
    """(words, pids): the cells of an array of numbers, uint32 words of
    shape values.shape + (WORDS,), and their pattern ids.  An integer array
    is formatted as '%d' formats each entry, any other as '%.17g' formats
    it as a float."""
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.integer):
        words, pids = _int_cells(np.asarray(values, np.int64).ravel())
    else:
        words, pids = _float_cells(np.asarray(values, np.float64).ravel())
    return words.reshape(values.shape + (WORDS,)), pids.reshape(values.shape)


def rows(words: np.ndarray, pids: np.ndarray) -> np.ndarray:
    """The bytes, as a uint8 array, of CSV rows of cells: words and pids of
    shape (rows, fields, WORDS) and (rows, fields), each field followed by
    ',' and the last one of a row by CRLF.  Writes the separators into
    words."""
    chars = words.view(np.uint8)
    chars[:, :, END] = ord(",")
    chars[:, -1, END:END + 2] = (ord("\r"), ord("\n"))
    keep = np.take(_tables()["keep"], pids, axis=0)
    keep[:, :, END] = True
    keep[:, -1, END + 1] = True
    return chars[keep]


def _scaled(t: dict, a: np.ndarray, E: np.ndarray):
    """(N, frac): a * 10**(16 - E) = N + frac, N an integer and frac in
    [0, 1), within about 1e-14, for positive finite a and E = floor(log10 a)
    give or take one, so that the product is below 2**57."""
    i = _E_MAX - E                              # the row of 10**(16 - E)
    b = np.ldexp(a, t["k"].take(i))            # an integer below 2**57
    hi = t["hi"].take(i)
    p = b * hi
    split = b * _SPLIT
    b_h = split - (split - b)
    b_l = b - b_h
    hi_h, hi_l = t["hi_h"].take(i), t["hi_l"].take(i)
    e = b_h * hi_h - p
    e += b_h * hi_l
    e += b_l * hi_h
    e += b_l * hi_l
    e += b * t["lo"].take(i)
    whole = np.floor(e)
    e -= whole
    return p.astype(np.int64) + whole.astype(np.int64), e


def _float_cells(v: np.ndarray):
    """The cells of a float64 array: its zeros, infinities and NaNs from
    constants, the rest through _finite_cells."""
    t = _tables()
    a = np.abs(v)
    words = np.empty((len(v), WORDS), np.uint32)
    pids = _BODIES * np.signbit(v)
    finite = (a < np.inf) & (a > 0)
    if finite.all():
        pids += _finite_cells(t, a, words)
        return words, pids
    words[:, 0] = _W0
    words[:, 1] = _W1
    pids += _ZERO
    odd = np.flatnonzero(~finite & (a != 0))        # inf and nan
    if len(odd):
        nan = a[odd] != np.inf
        words[odd, 0], words[odd, 1] = _INF_NAN_WORDS[nan.astype(np.intp)].T
        pids[odd] = np.where(nan, _NAN, pids[odd] + 1)
    finite = np.flatnonzero(finite)
    if len(finite):
        part = np.empty((len(finite), WORDS), np.uint32)
        pids[finite] += _finite_cells(t, a[finite], part) - _ZERO
        words[finite] = part
    return words, pids


def _finite_cells(t: dict, a: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fill words with the cells of positive finite a, and return their
    pattern ids without the sign."""
    E = np.floor(np.log10(a)).astype(np.int64)
    N, frac = _scaled(t, a, E)
    wrong = np.flatnonzero((N - _P16).view(np.uint64) >= _P17 - _P16)
    if len(wrong):
        E[wrong] += np.where(N[wrong] < _P16, -1, 1)
        N[wrong], frac[wrong] = _scaled(t, a[wrong], E[wrong])
    D = N + (frac > 0.5)
    for i in np.flatnonzero(np.abs(frac - 0.5) < _TIE):
        D[i], E[i] = _alone(a.item(i))
    carry = np.flatnonzero(D == _P17)
    D[carry] = _P16
    E[carry] += 1

    d0 = D // _P16
    rest = D - d0 * _P16
    high = rest // 10 ** 8
    low = (rest - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    groups = [high // 10 ** 4, None, low // 10 ** 4, None]
    groups[1] = high - groups[0] * 10 ** 4
    groups[3] = low - groups[2] * 10 ** 4

    words[:, 0] = _W0
    words[:, 1] = t["lead"].take(d0)
    for column, group in enumerate(groups, 2):
        words[:, column] = words[:, column + 5] = t["quad"].take(group)
    words[:, 6] = _W6
    at = E - _E_MIN
    words[:, 11:13] = t["exp"].take(at, axis=0)

    digits = t["digits"].take(groups[3])
    rare = np.flatnonzero(groups[3] == 0)
    if len(rare):
        zeros = t["zeros"]
        g0, g1, g2 = (group[rare] for group in groups[:3])
        digits[rare] -= zeros[g2] + (g2 == 0) * (zeros[g1] + (g1 == 0) * zeros[g0])
    return t["body"].take(at) + digits


def _alone(a: float) -> tuple[int, int]:
    """(D, E) of one value, from '%.16e', for a tie that the product cannot
    round."""
    mantissa, _, exponent = ("%.16e" % a).partition("e")
    return int(mantissa.replace(".", "")), int(exponent)


def _int_cells(v: np.ndarray):
    """The cells of an int64 array and their pattern ids."""
    t = _tables()
    m = np.abs(v).view(np.uint64)           # |int64 min| is 2**63
    top = m // np.uint64(_P16)
    rest = (m - top * np.uint64(_P16)).view(np.int64)
    words = np.empty((len(v), WORDS), np.uint32)
    words[:, 0] = _word(b"\0-\0\0")
    words[:, 6] = t["quad"].take(top.view(np.int64))
    for column, place in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1), 7):
        words[:, column] = t["quad"].take(rest // place % 10 ** 4)
    digits = np.searchsorted(t["powers"], m, side="right") + 1
    return words, _INTS + 20 * (v < 0) + digits - 1
