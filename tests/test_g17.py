"""The vectorised formatter against Python's own: every float's cell text is
'%.17g' % v, byte for byte, over hypothesis floats of every kind and over
the values where the digits are hardest to get right (powers of ten and
their neighbours, the carry to 10**17, exact ties of the 17th digit, the
ends of the float range), and every integer's within 2**53 is '%d' % v."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsw import g17
from test_startup import fresh_python

INT64 = np.iinfo(np.int64)
EXACT = 2 ** 53         # every integer of magnitude up to it is a float

# Values that take the special path (zeros, infinities, NaNs of both signs)
# and the finite values nearest it: subnormals, the smallest normal and the
# largest finite value.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0))
EDGES = (5e-324, -5e-324, 2.5e-310, -1.5e-308, sys.float_info.min,
         sys.float_info.max, -sys.float_info.max)
special = st.sampled_from(SPECIALS)
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


def texts(values) -> list:
    """The text g17 writes for each value, as bytes, via one column of rows."""
    values = np.asarray(values).reshape(-1, 1)
    piece = g17.Piece(len(values), 1)
    piece.cells(values)
    return bytes(piece.rows(len(values))).split(b"\r\n")[:-1]


def python_texts(values) -> list:
    fmt = "%d" if np.issubdtype(np.asarray(values).dtype, np.integer) else "%.17g"
    return [(fmt % v).encode() for v in np.asarray(values).tolist()]


def assert_same(values):
    got, want = texts(values), python_texts(values)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got, want)
           if g != w]
    assert bad == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_every_float_is_percent_17g(values):
    # st.floats() draws subnormals, signed zeros, infinities and NaNs.
    assert_same(np.array(values, np.float64))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([0.1, 0.9]), st.integers(1, 3))
def test_special_values_among_finite_ones(data, share, fields):
    # A few special values among many finite ones, and mostly special
    # values, in cells of one to three fields.
    rows = data.draw(st.integers(1, 30))
    values = data.draw(st.lists(
        st.one_of(special, finite) if share == 0.9 else finite,
        min_size=rows * fields, max_size=rows * fields))
    at = data.draw(st.lists(st.integers(0, rows * fields - 1),
                            max_size=max(1, int(share * rows * fields))))
    for i in at:
        values[i] = data.draw(special)
    values = np.array(values, np.float64).reshape(rows, fields)
    piece = g17.Piece(rows, fields)
    piece.cells(values)
    want = b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n"
                    for row in values.tolist())
    assert bytes(piece.rows(rows)) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-EXACT, EXACT), min_size=1, max_size=40))
def test_every_integer_within_2_53_is_percent_d(values):
    assert_same(np.array(values, np.int64))


def test_signs_and_constants():
    negative_nan = np.copysign(np.nan, -1.0)
    assert np.signbit(negative_nan)
    assert texts([0.0, -0.0, np.inf, -np.inf, np.nan, negative_nan]) == [
        b"0", b"-0", b"inf", b"-inf", b"nan", b"nan"]
    # A piece of zeros alone, of both signs, in rows of three fields.
    zeros = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0], [0.0, 0.0, -0.0],
                      [-0.0, 0.0, -0.0]])
    piece = g17.Piece(len(zeros), 3)
    piece.cells(zeros)
    assert bytes(piece.rows(len(zeros))) == b"0,-0,0\r\n-0,-0,0\r\n0,0,-0\r\n-0,0,-0\r\n"


def test_powers_of_ten_and_their_neighbours():
    # floor(log10 v) is one off on one side of a power of ten, and the
    # product may round to either end of [10**16, 10**17).
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_same(np.concatenate([powers, np.nextafter(powers, 0),
                                np.nextafter(powers, np.inf)]))
    assert_same(-powers)


def test_carries_and_the_ends_of_the_range():
    values = [1e16, 1e17, 2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2,
              9.9999999999999999e22, 99999999999999999.0, 0.99999999999999999,
              1e-4, 9.9999999999999991e-5, 1e-5, 123456789012345678.0,
              5e-324, 2 * 5e-324, sys.float_info.min, np.nextafter(sys.float_info.min, 0),
              sys.float_info.max, np.nextafter(sys.float_info.max, 0)]
    assert_same(np.array(values))
    assert_same(-np.array(values))


def test_fixed_and_exponent_layouts_at_every_exponent():
    # Every exponent from -325 to 308 with 1, 2, 9 and 17 significant
    # digits, in both layouts' ranges.
    mantissas = [1.0, 1.5, 1.23456789, 1.2345678901234567, 9.999]
    values = [float(f"{m!r}e{k}") for m in mantissas for k in range(-320, 308)]
    assert_same(np.array(values))


def test_exact_ties_take_the_fallback_and_still_match(monkeypatch):
    # Dyadic values of exactly 18 significant digits, the last a 5, such as
    # (2**53 - 1) / 4 = 2251799813685247.75: the 17th digit is an exact tie
    # that the scaled product cannot round, so each is formatted alone.
    ties = np.array([(2.0 ** 53 - 1) / 4, 1234567890123456.25, 123456789012345.125,
                     12345678901234.0625, 262143 / 2.0 ** 18, 131073 / 2.0 ** 18])
    alone, formatted_alone = [], g17._alone

    def spy(a):
        alone.append(a)
        return formatted_alone(a)

    monkeypatch.setattr(g17, "_alone", spy)
    assert_same(ties)
    assert_same(-ties)
    assert sorted(alone) == sorted(ties.tolist() * 2)


def test_random_bit_patterns():
    rng = np.random.default_rng(17)
    bits = rng.integers(INT64.min, INT64.max, 20_000, dtype=np.int64, endpoint=True)
    assert_same(bits.view(np.float64))
    assert_same(rng.integers(-2 ** 40, 2 ** 40, 5_000) / 2.0 ** rng.integers(0, 60, 5_000))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_integer_columns_are_percent_d(dtype):
    info = np.iinfo(dtype)
    low, high = max(info.min, -EXACT), min(info.max, EXACT)
    assert_same(np.array([low, high, 0, 1, 9, 10, 99, 100], dtype))


def test_powers_of_ten_and_the_edge_of_exact_integers():
    # 16 digits is the most within 2**53.  Beyond it a float rounds: 2**53 + 1
    # would be written as 2**53, so the CSV writer refuses such a column.
    powers = np.array([10 ** k for k in range(16)], np.int64)
    assert_same(np.concatenate([[EXACT, EXACT - 1, -EXACT, 1 - EXACT, -1], powers,
                                powers - 1, -powers, 1 - powers]))
    assert texts(np.array([EXACT + 1], np.int64)) == [b"9007199254740992"]


def test_rows_join_fields_with_commas_and_end_in_crlf():
    piece = g17.Piece(2, 3)
    piece.cells(np.array([[1.5, -0.0, 0.1], [np.nan, 7.0, 1e-300]]))
    assert bytes(piece.rows(2)) == b"1.5,-0,0.10000000000000001\r\nnan,7,1e-300\r\n"
    piece = g17.Piece(1, 3)
    piece.cells(np.array([[3, -4, 1]]))
    piece.pids[:, 2] = g17.EMPTY
    assert bytes(piece.rows(1)) == b"3,-4,\r\n"


def test_rows_lead_with_their_prefix():
    piece = g17.Piece(3, 2, prefix=6)
    piece.cells(np.array([[0.0, -2.5], [np.inf, 1e-7], [3.0, np.nan]]))
    for row, text in enumerate((b"a,", b"bcd,", b"efghi,")):
        piece.chars[row, :len(text)] = np.frombuffer(text, np.uint8)
        piece.lead[row] = len(text)
    assert bytes(piece.rows(3)) == b"a,0,-2.5\r\nbcd,inf,9.9999999999999995e-08\r\nefghi,3,nan\r\n"


@settings(max_examples=200, deadline=None)
@given(st.one_of(finite, special))
def test_text_is_the_longest_percent_17g_text_and_a_separator(value):
    # The snapshot writer's prefix array holds an x text of TEXT bytes.
    assert g17.TEXT == len(b"%.17g," % -1.2345678901234567e-308) == 25
    assert len(b"%.17g," % value) <= g17.TEXT


FILLED = """
import json, sys
import numpy as np
from nlsw import g17
values = np.array(json.loads(sys.argv[1]))
piece = g17.Piece(len(values), 1)
piece.cells(values[:, None])
print(json.dumps(np.flatnonzero(g17._tables()["filled"]).tolist()))
"""


def test_a_first_call_fills_only_the_power_rows_it_reaches():
    # The rows of 10**(16 - E) for E = floor(log10 |v|) of each value, and
    # their neighbours only where the product falls outside [1e16, 1e17).
    values = [1.5, -2.5e-7, 3e200, 0.0, np.inf, 9.999999999999999e22, 1e23]
    done = fresh_python("-c", FILLED, json.dumps(values))
    assert done.returncode == 0, done.stderr
    rows = set(json.loads(done.stdout))
    exponents = {0, -7, 200, 22, 23}
    reach = {g17._E_MAX - E + d for E in exponents for d in (-1, 0, 1)}
    assert {g17._E_MAX - E for E in exponents} <= rows <= reach
