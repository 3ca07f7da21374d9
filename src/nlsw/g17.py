"""Exact vectorised '%.17g': float64 values formatted a whole array at a
time, byte for byte what Python's % operator writes for each of them.

A Piece holds a CSV writer's buffers for up to `rows` rows of `fields`
cells.  Its two methods guarantee:

- Piece.cells(values) formats an (n, fields) array, taken as float64, into
  the cells of the first n rows.  Each cell reads as Python's '%.17g' % v:
  -0.0 as -0, infinities as inf and -inf, and a NaN as nan whatever its
  sign bit.  An integer of magnitude at most 2**53 is a float exactly, so
  its cell reads as its '%d'.
- Piece.rows(n) returns the bytes of the first n rows as a uint8 array.  A
  row is its optional prefix (the first lead[r] bytes that the writer laid
  into chars[r, :prefix] of a piece built with a prefix), then its cells
  joined by ',' and ended by CRLF.  A cell whose pattern id the writer set
  to EMPTY is empty; its separator stays.

TEXT is the length of the longest '%.17g' text and a separator.  A piece
allocates its buffers once, whatever the number of calls and rows.  The
digits are found as Grisu does (Loitsch, PLDI 2010), without formatting a
value on its own; the comments beside _scaled, _digits and _layout give
the steps.
"""

from __future__ import annotations

import functools

import numpy as np

# Piece.cells gives each value a cell of CELL bytes and a pattern id; row
# KEEP[pid] of the keep table picks, in order, the cell's bytes that make up
# the value's text, so chars[KEEP[pids]] over an array of cells is the
# concatenation of their texts, and Piece.rows compacts a piece's rows that
# way.  The bytes at END and END + 1 belong to no pattern: rows puts a
# field's separator there.  A cell holds every character any of its
# layouts may need, in the order they appear:
#
#     byte  1      '-'
#     2-6          '0' '.' '0' '0' '0'  (0.000ddd; '0', 'inf' or 'nan' at 2-4)
#     7            d0, the leading digit
#     8-23         d1..d16, the digits before a fixed-form point
#     24           '.'
#     28-43        d1..d16 again, the digits after the point
#     44-48        'e', the exponent's sign and three exponent digits
#
# '%.17g' rounds the value to 17 significant digits d0..d16, D = d0d1..d16,
# with the decimal exponent E: the fixed form when -4 <= E < 17 and the
# exponent form otherwise, with trailing zeros and a bare point dropped, and
# at least two exponent digits.
CELL = 52               # bytes of a cell
WORDS = CELL // 4       # its uint32 words
END = 49                # the separator's bytes: END and END + 1
SLOTS = 7               # 8-byte scratch values a number takes
TEXT = 25               # the longest '%.17g' text and a separator

_DIGITS = 17
_TIE = 1e-9             # distance from a half that takes the fallback
_P16, _P17 = 10 ** 16, 10 ** 17
_E_MIN, _E_MAX = -325, 309      # exponents E that a correction can reach
_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitter

# Pattern ids.  A body: fixed form (E + 4) * 17 + nd - 1 for -4 <= E <= 16
# and nd significant digits, exponent form from _EXP2 (two exponent digits)
# or _EXP3 (three), then 0, inf and nan; a sign adds _BODIES.  EMPTY keeps
# no byte.
_EXP2 = 21 * _DIGITS
_EXP3 = _EXP2 + _DIGITS
_ZERO, _INF, _NAN = _EXP3 + _DIGITS, _EXP3 + _DIGITS + 1, _EXP3 + _DIGITS + 2
_BODIES = _NAN + 1
EMPTY = 2 * _BODIES


def _word(text: bytes) -> int:
    """The little-endian uint32 of 4 bytes of text."""
    return int.from_bytes(text, "little")


# A cell's constant words: 0 and 1 with d0 = 0 at byte 7 (word 0 is
# also the cell of a zero), 6 the point at byte 24; and words 0 and 1 of
# inf and of nan.
_W0, _W1 = _word(b"\0-0."), _word(b"0000")
_W6 = _word(b".\0\0\0")
_CONSTANTS = ((_INF, _word(b"\0-in"), _word(b"f000")),
              (_NAN, _word(b"\0-na"), _word(b"n000")))


@functools.cache
def _tables() -> dict:
    """The lookup tables, built once, on the first call, and the table of
    10**p (hi, hi_h, hi_l, lo, k), whose rows _fill builds as calls need
    them: row i holds p = 16 - (_E_MAX - i)."""
    # The 4-digit groups 0000..9999 as words of 4 bytes, and their trailing
    # zeros: the digits of thousands, hundreds, tens and units on the axes
    # of a 10x10x10x10 grid.
    digit = np.arange(10, dtype=np.uint32)
    th, hu, te, un = (digit.reshape((10,) + (1,) * (3 - place)) for place in range(4))
    quad = (_word(b"0000") + th + (hu << 8) + (te << 16) + (un << 24)).ravel()
    zeros = ((un == 0) * (1 + (te == 0) * (1 + (hu == 0) * (1 + (th == 0))))).ravel()
    chars = quad.view(np.uint8).reshape(-1, 4)

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

    tables = {"quad": quad,
              "lead": _W1 + (np.arange(10, dtype=np.uint32) << 24),
              "zeros": zeros.astype(np.int16),
              "digits": (_DIGITS - 1 - zeros).astype(np.int16),
              "exp": exp_chars.view(np.uint32), "body": body.astype(np.int16),
              "keep": _keep_table()}
    for table in tables.values():       # shared by every call
        table.flags.writeable = False
    rows = len(exponent)
    return {**tables, "hi": np.empty(rows), "hi_h": np.empty(rows),
            "hi_l": np.empty(rows), "lo": np.empty(rows),
            "k": np.empty(rows, np.int32), "filled": np.zeros(rows, bool)}


def _fill(t: dict, i: np.ndarray):
    """Build the rows of the table of 10**p that the row indices i read and
    that no call has built yet."""
    filled = t["filled"]
    if filled.take(i).all():
        return
    wanted = np.zeros(len(filled), bool)
    wanted[i] = True
    for row in np.flatnonzero(wanted & ~filled).tolist():
        hi, lo, k = _power(16 - _E_MAX + row)
        split = hi * _SPLIT
        hi_h = split - (split - hi)
        t["hi"][row], t["hi_h"][row], t["hi_l"][row] = hi, hi_h, hi - hi_h
        t["lo"][row], t["k"][row] = lo, k
        filled[row] = True


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
    return np.concatenate([bodies, signed, np.zeros((1, CELL), bool)])


class Piece:
    """A CSV writer's buffers for up to `rows` rows of `fields` cells, each
    row led by up to `prefix` bytes of text that the writer lays into
    chars[:, :prefix], with its length in lead, or by none.  One byte
    buffer is the scratch of every cells call and then, in rows, the keep
    mask of the rows it compacts."""

    def __init__(self, rows: int, fields: int, prefix: int = 0):
        prefix = -(-prefix // 4) * 4            # the cells stay word-aligned
        width = prefix + fields * CELL
        self.prefix = prefix
        self.chars = np.empty((rows, width), np.uint8)
        self.words = self.chars[:, prefix:].view(np.uint32).reshape(rows, fields, WORDS)
        self.pids = np.full((rows, fields), EMPTY, np.int16)
        self.lead = np.zeros(rows, np.intp)
        self._leads = np.tri(prefix + 1, prefix, -1, bool)     # row L keeps L bytes
        buffer = np.empty(rows * max(width, 8 * SLOTS * fields), np.uint8)
        self._keep = buffer[:rows * width].view(bool).reshape(rows, width)
        self._scratch = buffer[:8 * SLOTS * rows * fields].view(np.float64)

    def cells(self, values):
        """Format values, an (n, fields) array taken as float64, with '%.17g'
        into the cells of the first n rows.  An integer of magnitude at most
        2**53 is a float exactly, so its text is its '%d'."""
        values = np.asarray(values, np.float64)
        n = len(values)
        slots = self._scratch[:SLOTS * values.size].reshape(SLOTS, values.size)
        _float_cells(_tables(), values, self.words[:n], self.pids[:n], slots)

    def rows(self, n: int) -> np.ndarray:
        """The bytes, as a uint8 array, of the first n rows: the lead of
        each row's prefix, then its fields, joined by ',' and ended by
        CRLF."""
        chars, keep = self.chars[:n], self._keep[:n]
        shape = (n, self.words.shape[1], CELL)
        cells = chars[:, self.prefix:].reshape(shape)
        kept = keep[:, self.prefix:].reshape(shape)
        cells[:, :, END] = ord(",")
        cells[:, -1, END:END + 2] = list(b"\r\n")
        np.take(_tables()["keep"], self.pids[:n], axis=0, out=kept, mode="clip")
        kept[:, :, END] = True
        kept[:, -1, END + 1] = True
        if self.prefix:
            np.take(self._leads, self.lead[:n], axis=0, out=keep[:, :self.prefix],
                    mode="clip")
        return chars[keep]


# Step 1, scale exactly: D = round(|v| * 10**(16 - E)), with 10**p from a
# table of double-double mantissas, (hi + lo) * 2**k, built in integer
# arithmetic (_power); |v| * 2**k is exact for every finite v, a subnormal
# scaled up by that power of two like any other, and its product with hi is
# exact as a Dekker two-product.  The table's rows are built on demand
# (_fill): each call checks the rows its exponents read against a mask of
# the filled ones and builds only those missing, so a run's values, which
# span a few exponents, build a few of its 635 rows.
def _scaled(t: dict, b: np.ndarray, i: np.ndarray, s: np.ndarray):
    """(N, frac): a * 10**(16 - E) = N + frac, N an integer and frac in
    [0, 1), within about 1e-14, for positive finite a, given in b, and the
    row i = _E_MAX - E of the table, E = floor(log10 a) give or take one,
    so that the product is below 2**57.  Leaves a * 2**k, k = t["k"][i], in
    b; N is an int64 view and frac a row of s, five float64 rows of b's
    length, the scratch."""
    _fill(t, i)
    p, b_h, b_l, x, e = s
    k = p.view(np.int32)[:len(b)]
    np.take(t["k"], i, out=k, mode="clip")
    np.ldexp(b, k, out=b)                      # an integer below 2**57
    np.take(t["hi"], i, out=p, mode="clip")
    p *= b
    np.multiply(b, _SPLIT, out=b_h)
    np.subtract(b_h, b, out=b_l)
    b_h -= b_l
    np.subtract(b, b_h, out=b_l)
    # e = b * hi - p, summed exactly: every product of halves is exact.
    np.take(t["hi_h"], i, out=x, mode="clip")
    np.multiply(b_h, x, out=e)
    e -= p
    x *= b_l
    e += x
    np.take(t["hi_l"], i, out=x, mode="clip")
    b_h *= x
    e += b_h
    b_l *= x
    e += b_l
    np.take(t["lo"], i, out=x, mode="clip")
    x *= b
    e += x
    np.floor(e, out=x)
    e -= x
    N = b_h.view(np.int64)
    np.copyto(N, p, casting="unsafe")
    whole = b_l.view(np.int64)
    np.copyto(whole, x, casting="unsafe")
    N += whole
    return N, e


# Special values: zeros, infinities and NaNs take constant words and
# patterns, and a NaN with its sign bit set is written nan, as Python writes
# it.  When a call holds such values, steps 1-3 run on its finite nonzero
# values alone, gathered as floats, and their digits and exponents are
# scattered back as integers; the special values are laid out from stand-in
# digits and then take their patterns, so no cell is moved.  A call of zeros
# alone, or of special values alone, makes no digits at all.
def _float_cells(t: dict, v: np.ndarray, words: np.ndarray, pids: np.ndarray,
                 s: np.ndarray):
    """Fill words and pids with the cells of a float64 array v of their
    shape, in s, SLOTS float64 rows of v's size.  The digits of the finite
    nonzero values are found on those values alone (_digits) and laid out
    for every value (_layout); zeros, infinities and NaNs then take their
    pattern ids, and inf and nan their words."""
    a = s[0]
    np.abs(v, out=a.reshape(v.shape))
    high = a.max()                      # NaN if any is NaN
    if high == 0:
        words[..., 0] = _W0
        pids[...] = _ZERO
    elif high < np.inf and a.min() > 0:
        _layout(t, *_digits(t, a, s), words, pids, s)
    else:
        finite = np.flatnonzero((a > 0) & (a < np.inf))
        m = len(finite)
        if m:
            np.take(a, finite, out=s[1, :m])
            a[:m] = s[1, :m]
            D, at = _digits(t, a[:m], s[:, :m])
            found = s[2:4, :m].view(np.int64)
            found[0], found[1] = D, at
            D, at = s[1].view(np.int64), s[0].view(np.intp)
            D[...] = _P16 + 1       # stand-in digits, no trailing zero to count
            at[...] = -_E_MIN       # the row of E = 0
            D[finite], at[finite] = found
            _layout(t, D, at, words, pids, s)
        else:
            words[..., 0] = _W0
        np.copyto(pids, _ZERO, where=v == 0)
        if not high < np.inf:       # an inf or a NaN
            for pid, w0, w1 in _CONSTANTS:
                where = np.isinf(v) if pid == _INF else np.isnan(v)
                np.copyto(words[..., 0], w0, where=where)
                np.copyto(words[..., 1], w1, where=where)
                np.copyto(pids, pid, where=where)
            if high != high:        # a NaN's sign is not written
                np.add(pids, _BODIES, out=pids, where=np.signbit(v) & ~np.isnan(v))
                return
    np.add(pids, _BODIES, out=pids, where=np.signbit(v))


# Step 2, correct the exponent: E starts as floor(log10|v|), and a product
# outside [10**16, 10**17) moves it by one; a rounding up to 10**17 carries
# into E.
# Step 5, fall back rarely: the computed fraction of the scaled value is
# within about 1e-14 of the true one (lo's rounding and the sum of the
# product's error terms), so a value whose fraction lies within _TIE = 1e-9
# of a half, an exact or a near tie of the rounding, takes its digits from
# '%.16e' % v alone (_alone), which rounds the same 17 significant digits.
def _digits(t: dict, a: np.ndarray, s: np.ndarray):
    """(D, at): the 17 digits of each positive finite a, row 0 of s, as an
    int64 view of row 1, and the row of its exponent E in the tables exp and
    body, an intp view of row 0."""
    i = s[6].view(np.intp)
    np.log10(a, out=s[1])
    np.floor(s[1], out=s[1])
    np.subtract(_E_MAX, s[1], out=i, casting="unsafe")
    N, frac = _scaled(t, a, i, (s[2], s[1], s[3], s[4], s[5]))
    b = a                               # a * 2**k from here on
    offset = np.subtract(N, _P16, out=s[2].view(np.int64)).view(np.uint64)
    wrong = np.flatnonzero(offset >= _P17 - _P16)
    if len(wrong):
        part = b[wrong]
        np.ldexp(part, -t["k"][i[wrong]], out=part)
        i[wrong] -= np.where(N[wrong] < _P16, -1, 1)
        N[wrong], frac[wrong] = _scaled(t, part, i[wrong], np.empty((5, len(wrong))))
        b[wrong] = part
    D = N
    D += frac > 0.5
    distance = np.abs(np.subtract(frac, 0.5, out=s[4]), out=s[4])
    ties = np.flatnonzero(distance < _TIE)
    if len(ties):
        for tie, alone in zip(ties, np.ldexp(b[ties], -t["k"][i[ties]]).tolist()):
            D[tie], E = _alone(alone)
            i[tie] = _E_MAX - E
    carry = np.flatnonzero(D == _P17)
    if len(carry):
        D[carry] = _P16
        i[carry] -= 1
    return D, np.subtract(_E_MAX - _E_MIN, i, out=s[0].view(np.intp))


# Step 3, make the digits: 4-digit groups from a lookup table of uint32
# words, with the trailing zeros counted in the same groups.
# Step 4, lay out the cell: words from tables and the pattern from (sign, E,
# number of digits); the sign is added by _float_cells.
def _layout(t: dict, D: np.ndarray, at: np.ndarray, words: np.ndarray,
            pids: np.ndarray, s: np.ndarray):
    """Fill words and pids, of shape S + (WORDS,) and S, with the cells of
    the digits D and exponent rows at from _digits, rows 1 and 0 of s, and
    the pattern ids without the sign; the other rows of s are scratch."""
    shape = pids.shape
    d0, rest, high, low, scaled = (s[row].view(np.int64) for row in range(2, 7))
    np.floor_divide(D, _P16, out=d0)
    np.multiply(d0, _P16, out=rest)
    np.subtract(D, rest, out=rest)
    np.floor_divide(rest, 10 ** 8, out=high)
    np.multiply(high, 10 ** 8, out=low)
    np.subtract(rest, low, out=low)
    groups = [rest, high, D, low]
    np.floor_divide(high, 10 ** 4, out=groups[0])
    np.floor_divide(low, 10 ** 4, out=groups[2])
    for whole, top in ((high, groups[0]), (low, groups[2])):
        np.multiply(top, 10 ** 4, out=scaled)
        whole -= scaled

    n = len(D)
    word = s[6].view(np.uint32)[:n].reshape(shape)
    words[..., 0] = _W0
    words[..., 1] = np.take(t["lead"], d0.reshape(shape), out=word, mode="clip")
    for column, group in enumerate(groups, 2):
        np.take(t["quad"], group.reshape(shape), out=word, mode="clip")
        words[..., column] = word
        words[..., column + 5] = word
    words[..., 6] = _W6
    pair = s[6].view(np.uint32).reshape(shape + (2,))
    words[..., 11:13] = np.take(t["exp"], at.reshape(shape), axis=0, out=pair,
                                mode="clip")

    digits = s[2].view(np.int16)[:n]
    np.take(t["digits"], groups[3], out=digits, mode="clip")
    rare = np.flatnonzero(groups[3] == 0)
    if len(rare):
        zeros = t["zeros"]
        g0, g1, g2 = (group[rare] for group in groups[:3])
        digits[rare] -= zeros[g2] + (g2 == 0) * (zeros[g1] + (g1 == 0) * zeros[g0])
    body = np.take(t["body"], at, out=s[6].view(np.int16)[:n], mode="clip")
    np.add(body.reshape(shape), digits.reshape(shape), out=pids)


def _alone(a: float) -> tuple[int, int]:
    """(D, E) of one value, from '%.16e', for a tie that the product cannot
    round."""
    mantissa, _, exponent = ("%.16e" % a).partition("e")
    return int(mantissa.replace(".", "")), int(exponent)

