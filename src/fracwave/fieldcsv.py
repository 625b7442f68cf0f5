"""Field CSV writer: the bytes of np.savetxt(fmt="%.17g") at array speed.

`run` writes its trajectory and `noise-dump` its noise and perturbed initial
data as (t, x, re, im) tables.  Python's "%.17g" takes the bignum path of
its dtoa once per double, which made writing the largest share of a large
run; here the digits of a whole chunk come from NumPy, and Python formats
only the values whose rounding the fast path cannot certify.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .special import _split, _two_prod

__all__ = ["format_g17", "write_field_csv"]

# A formatted double is a cell of six little-endian uint64 words, NUL-padded:
#   word 0     sign, the lead "0." plus zeros (-4 <= X < 0), digit 0, slot 0
#   words 1-4  digits 1..16, each followed by its slot byte
#   word 5     the "e+XX" suffix (exponent form only), the separator in byte 7
# Slot i holds the point when it follows digit i, else NUL.  Deleting every
# NUL from a row of cells leaves the CSV text.
_CELL_WORDS = 6
_CHUNK_CELLS = 16384  # CSV rows formatted per buffer: about 2 MB at 512 points
_LOW, _HIGH = 1e-280, 1e280  # magnitudes the digit pipeline certifies
_X_MIN, _X_MAX = -282, 281  # decimal exponents it meets on [_LOW, _HIGH]
# The double-double scaling is within 2**-47 of |v| * 10**(16 - X) < 2**57,
# so a computed fraction this far from 1/2 rounds as the exact one does.
_TIE_MARGIN = 2.0**-40


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


class _G17Tables(NamedTuple):
    ten_hi_hi: np.ndarray  # by exponent X: 10**(16 - X) = hi + lo, hi split by Dekker
    ten_hi_lo: np.ndarray
    ten_lo: np.ndarray
    digit_words: np.ndarray  # by 4-digit group: its ASCII with 0xFF slot bytes
    trailing: np.ndarray  # by 4-digit group: its trailing zeros
    before18: np.ndarray  # by exponent: 18 * digits before the point (17: none)
    min_keep: np.ndarray  # by exponent: digits always written
    suffix: np.ndarray  # by exponent: the "e+XX" word, empty in fixed form
    head: np.ndarray  # by (exponent, negative, more than one digit): word 0 less digit 0
    masks: np.ndarray  # [word - 1, 18 * before + keep]: keeps digits, sets the point


def _ascii(digit: np.ndarray, byte) -> np.ndarray:
    """The ASCII of each digit, shifted into byte `byte` of a little-endian word."""
    return (digit + ord("0")).astype(np.uint64) << (8 * np.asarray(byte)).astype(np.uint64)


@functools.cache
def _g17_tables() -> _G17Tables:
    """Lookup tables of the %.17g formatter, built on its first call."""
    x = np.arange(_X_MIN, _X_MAX + 1)
    hi = np.empty(x.size)
    lo = np.empty(x.size)
    for i, e10 in enumerate(x.tolist()):
        # 10**(16 - X) = hi + lo to about 106 bits, each part correctly rounded
        num, den = (10 ** (16 - e10), 1) if e10 <= 16 else (1, 10 ** (e10 - 16))
        hi[i] = num / den
        m, e = hi[i].as_integer_ratio()
        lo[i] = (num * e - m * den) / (den * e)
    hi_hi, hi_lo = _split(hi)
    group = np.arange(10000)
    digit_words = np.full((10000, 4, 2), 0xFF, np.uint8)
    digit_words[:, :, 0] = group[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    fixed = (0 <= x) & (x <= 16)
    # the lead "0." of -4 <= X < 0 holds the point; fixed form writes the integer part
    lead_zero = (-4 <= x) & (x < 0)
    before = np.where(fixed, x + 1, np.where(lead_zero, 17, 1))
    lead = np.zeros(x.size, np.uint64)
    lead[lead_zero] = [_word(b"\0" + b"0." + b"0" * (-e - 1)) for e in range(-4, 0)]
    # by (exponent, negative, more than one digit): the sign, the lead, the point slot
    sign = np.array([0, ord("-")], np.uint64)
    slot = np.zeros((x.size, 2), np.uint64)
    slot[before == 1, 1] = ord(".") << 56
    head = lead[:, None, None] | sign[None, :, None] | slot[:, None, :]
    # "e+XX" or "e+XXX": the sign, then at least two digits
    mag = np.abs(x)
    three = mag >= 100
    suffix = np.where(x < 0, ord("-"), ord("+")).astype(np.uint64) << np.uint64(8) | np.uint64(ord("e"))
    suffix |= np.where(three, _ascii(mag // 100, 2), 0) | _ascii(mag // 10 % 10, 2 + three)
    suffix |= _ascii(mag % 10, 3 + three)
    suffix[fixed | lead_zero] = 0
    # digits 1..keep-1 stay, and the point after digit p-1 when a digit follows it
    p, keep, byte = np.ix_(np.arange(18), np.arange(18), np.arange(32))
    masks = np.where((p > 0) & (keep > 0) & (byte % 2 == 0) & (byte < 2 * keep - 2), 0xFF, 0)
    masks = np.where((1 < p) & (p < keep) & (byte == 2 * p - 3), ord("."), masks).astype(np.uint8)
    return _G17Tables(
        ten_hi_hi=hi_hi,
        ten_hi_lo=hi_lo,
        ten_lo=lo,
        digit_words=digit_words.reshape(10000, 8).view(np.uint64).ravel(),
        trailing=sum((group % 10**k == 0).astype(np.int64) for k in range(1, 5)),
        before18=18 * before,
        min_keep=np.where(fixed, x + 1, 1),
        suffix=suffix,
        head=head.reshape(-1),
        masks=np.ascontiguousarray(masks.reshape(18 * 18, 32).view(np.uint64).T),
    )


def _scaled(mag: np.ndarray, exp10: np.ndarray, tables: _G17Tables) -> tuple:
    """floor(mag * 10**(16 - exp10)) as int64 and the fraction left over.

    One Dekker product with the (hi, lo) power of ten, exact up to rounding
    of the small terms; see _TIE_MARGIN.
    """
    i = exp10 - _X_MIN
    b_hi, b_lo, lo = tables.ten_hi_hi[i], tables.ten_hi_lo[i], tables.ten_lo[i]
    p, err = _two_prod(mag, b_hi + b_lo, b_hi, b_lo)
    p_int = np.floor(p)
    rest = (p - p_int) + (err + mag * lo)
    rest_int = np.floor(rest)
    return p_int.astype(np.int64) + rest_int.astype(np.int64), rest - rest_int


def _g17_digits(mag: np.ndarray, neg: np.ndarray, sep: int) -> tuple:
    """Cells of finite magnitudes in [_LOW, _HIGH], and which were uncertain."""
    tables = _g17_tables()
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    digits, frac = _scaled(mag, exp10, tables)
    # log10 may land one off next to a power of ten
    off = (digits < 10**16).astype(np.int64) - (digits > 10**17)
    wrong = np.flatnonzero(off)
    if wrong.size:
        exp10[wrong] -= off[wrong]
        digits[wrong], frac[wrong] = _scaled(mag[wrong], exp10[wrong], tables)
    unsure = (np.abs(frac - 0.5) <= _TIE_MARGIN) | (digits < 10**16) | (digits > 10**17)
    digits += frac > 0.5
    carry = digits == 10**17  # rounded up to the next power of ten
    exp10 += carry
    digits -= carry * (9 * 10**16)
    top = digits // 10**8
    low = digits - top * 10**8
    d0 = top // 10**8
    top -= d0 * 10**8
    g1 = top // 10**4
    g3 = low // 10**4
    groups = (g1, top - g1 * 10**4, g3, low - g3 * 10**4)
    trailing = tables.trailing
    trail = trailing.take(groups[3])
    empty = np.flatnonzero(groups[3] == 0)
    if empty.size:  # the last group is 0000: count on into the others
        g = [grp[empty] for grp in groups[:3]]
        more = trailing.take(g[0])
        more = trailing.take(g[1]) + (g[1] == 0) * more
        trail[empty] += trailing.take(g[2]) + (g[2] == 0) * more
    xi = exp10 - _X_MIN
    keep = np.maximum(17 - trail, tables.min_keep.take(xi))
    q = tables.before18.take(xi) + keep
    cells = np.empty((mag.size, _CELL_WORDS), np.uint64)
    d0_word = (d0 + ord("0")).astype(np.uint64) << np.uint64(48)
    cells[:, 0] = tables.head.take(4 * xi + 2 * neg + (keep > 1)) | d0_word
    for w, grp in enumerate(groups):
        np.bitwise_and(tables.digit_words.take(grp), tables.masks[w].take(q), out=cells[:, w + 1])
    np.bitwise_or(tables.suffix.take(xi), np.uint64(sep << 56), out=cells[:, 5])
    return cells, unsure


def _fill_g17(cells: np.ndarray, values: np.ndarray, sep: int) -> None:
    """Write "%.17g" % v of each double into its (n, 6) uint64 cell, sep last.

    Exact zeros skip the digit pipeline.  Values it cannot certify (a
    17th-digit tie within _TIE_MARGIN, magnitudes outside [_LOW, _HIGH],
    subnormals, nan, inf) are formatted by Python one at a time.
    """
    mag = np.abs(values)
    neg = np.signbit(values)
    ok = (mag >= _LOW) & (mag <= _HIGH)
    if ok.all():
        cells[:], unsure = _g17_digits(mag, neg, sep)
        redo = np.flatnonzero(unsure)
    else:
        cells[:, 0] = np.where(neg, np.uint64(ord("-")), np.uint64(0)) | np.uint64(ord("0") << 48)
        cells[:, 1:5] = 0
        cells[:, 5] = np.uint64(sep << 56)
        redo = np.flatnonzero(~ok & (mag != 0.0))
        idx = np.flatnonzero(ok)
        if idx.size:
            cells[idx], unsure = _g17_digits(mag[idx], neg[idx], sep)
            redo = np.concatenate([redo, idx[unsure]])
    for i in redo.tolist():
        text = ("%.17g" % values[i]).encode().ljust(8 * _CELL_WORDS - 1, b"\0") + bytes([sep])
        cells[i] = np.frombuffer(text, np.uint64)


def format_g17(values) -> list:
    """The "%.17g" text of each double, as bytes, from the field CSV formatter."""
    arr = np.asarray(values, dtype=float).ravel()
    cells = np.empty((arr.size, _CELL_WORDS), np.uint64)
    _fill_g17(cells, arr, 0)
    return [cell.tobytes().translate(None, b"\0") for cell in cells]


def _label_column(values) -> np.ndarray:
    """The t or x cells followed by a comma, NUL-padded to a common width in words."""
    texts = [text + b"," for text in format_g17(values)]
    words = -(-max(map(len, texts), default=0) // 8)
    padded = b"".join(text.ljust(8 * words, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint64).reshape(len(texts), words)


def write_field_csv(path: Path, nodes: np.ndarray, xs: np.ndarray, values: np.ndarray) -> None:
    """Rows are time-major: every spatial point of node 0, then node 1, ...

    The bytes are those of np.savetxt(fmt="%.17g", delimiter=",") on the
    (t, x, re, im) table.  Each chunk of time rows fills one buffer of
    NUL-padded cells (t and x cells formatted once per file) and is written
    with its NULs deleted.

    Each value takes the certified fast path: its decimal exponent X from
    log10, corrected by one where that lands off; the 17-digit significand
    round(|v| * 10**(16 - X)) as an int64 from a double-double product; its
    ASCII from a table of 4-digit groups with the trailing zeros cut; and
    the sign, point and exponent suffix from per-exponent tables.  The
    computed fraction is within 2**-47 of the exact one, so the rounding is
    certain unless it lies within 2**-40 of 1/2.  Those values (true ties
    among them), magnitudes outside [1e-280, 1e280], nan and inf go to
    Python's "%.17g" one element at a time.  Exact zeros skip the digits.
    A real field is written as its complex cast: its im_u cell is the
    constant "0", set once per buffer.
    """
    arr = np.asarray(values)
    real = not np.iscomplexobj(arr)
    arr = np.ascontiguousarray(arr, dtype=float if real else complex)
    t_col, x_col = _label_column(nodes), _label_column(xs)
    t_words, n_points = t_col.shape[1], x_col.shape[0]
    lead = t_words + x_col.shape[1]
    width = lead + (_CELL_WORDS + 1 if real else 2 * _CELL_WORDS)
    rows = max(1, _CHUNK_CELLS // max(n_points, 1))
    buf = np.empty((rows, n_points, width), np.uint64)
    if real:
        buf[:, :, -1] = _word(b"0\n")
    with open(path, "wb") as fh:
        fh.write(b"t,x,re_u,im_u\n")
        for r0 in range(0, arr.shape[0], rows):
            chunk = arr[r0 : r0 + rows]
            block = buf[: chunk.shape[0]]
            block[:, :, :t_words] = t_col[r0 : r0 + rows, None, :]
            block[:, :, t_words:lead] = x_col
            cells = block.reshape(-1, width)
            if real:
                _fill_g17(cells[:, lead : lead + _CELL_WORDS], chunk.reshape(-1), ord(","))
            else:
                parts = chunk.reshape(-1).view(float)
                _fill_g17(cells[:, lead : lead + _CELL_WORDS], parts[0::2], ord(","))
                _fill_g17(cells[:, lead + _CELL_WORDS :], parts[1::2], ord("\n"))
            fh.write(block.tobytes().translate(None, b"\0"))
