"""Field CSV writer: the bytes of np.savetxt(fmt="%.17g") at array speed.

`run` writes its trajectory and `noise-dump` its noise and perturbed initial
data as (t, x, re, im) tables.  Python's "%.17g" takes the bignum path of
its dtoa once per double, which made writing the largest share of a large
run; here the digits of a whole chunk come from NumPy, and Python formats
only the values whose rounding the fast path cannot certify.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from .special import _split, _two_prod

__all__ = ["format_g17", "write_field_csv"]

# A formatted double is a cell of four little-endian uint64 words, NUL-padded:
#   word 0     sign, the lead "0." plus zeros (-4 <= X < 0), digit 0, and in
#              byte 7 the point when it follows digit 0
#   words 1-2  digits 1..16, eight per word
#   word 3     the tail: the "e+XX" suffix (exponent form only), the separator
#              in its last bytes
# A point after digit p, 1 <= p <= 15 (fixed form, 10 <= |v| < 1e16), goes
# into the digit bytes after digit p and moves the later digits up one byte;
# digit 16, when kept, moves into byte 0 of the tail, which fixed form leaves
# empty.  Deleting every NUL from a row of cells leaves the CSV text.
_CELL_WORDS = 4
_CHUNK_CELLS = 16384  # CSV rows formatted per buffer: about 1 MB of a real field's rows
_LOW, _HIGH = 1e-280, 1e280  # magnitudes the digit pipeline certifies
_X_MIN, _X_MAX = -282, 281  # decimal exponents it meets on [_LOW, _HIGH]
# The double-double scaling is within 2**-47 of |v| * 10**(16 - X) < 2**57,
# so a computed fraction this far from 1/2 rounds as the exact one does.
_TIE_MARGIN = 2.0**-40


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _byte_words(mask: np.ndarray) -> np.ndarray:
    """uint64 words from the last axis of 8 bytes, little-endian."""
    return np.ascontiguousarray(mask, np.uint8).view(np.uint64)[..., 0]


class _G17Tables(NamedTuple):
    ten_hi_hi: np.ndarray  # by exponent X: 10**(16 - X) = hi + lo, hi split by Dekker
    ten_hi_lo: np.ndarray
    ten_lo: np.ndarray
    group_ascii: np.ndarray  # [half, 4-digit group]: its ASCII in bytes 0-3, or 4-7
    trailing: np.ndarray  # by 4-digit group: its trailing zeros
    min_keep: np.ndarray  # by exponent: digits always written
    interior: np.ndarray  # by exponent: digits before a point among digits 1..16 (17: none)
    suffix: np.ndarray  # by exponent: the "e+XX" word, empty in fixed form
    head: np.ndarray  # by (exponent, negative, more than one digit): word 0 with digit 0 as "0"
    keep_masks: np.ndarray  # [word - 1, keep]: keeps digits 1..keep-1
    point_low: np.ndarray  # [word - 1, p]: the digit bytes before a point after digit p
    point_dot: np.ndarray  # [word - 1, p]: that point


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
    fixed = (0 <= x) & (x <= 16)
    # the lead "0." of -4 <= X < 0 holds the point; fixed form writes the integer part
    lead_zero = (-4 <= x) & (x < 0)
    lead = np.zeros(x.size, np.uint64)
    lead[lead_zero] = [_word(b"\0" + b"0." + b"0" * (-e - 1)) for e in range(-4, 0)]
    # by (exponent, negative, more than one digit): the sign, the lead, "0" for digit 0 and the point after it
    sign = np.array([0, ord("-")], np.uint64)
    slot = np.zeros((x.size, 2), np.uint64)
    slot[(x == 0) | ~(fixed | lead_zero), 1] = ord(".") << 56
    head = lead[:, None, None] | sign[None, :, None] | slot[:, None, :] | np.uint64(ord("0") << 48)
    # "e+XX" or "e+XXX": the sign, then at least two digits
    mag = np.abs(x)
    three = mag >= 100
    suffix = np.where(x < 0, ord("-"), ord("+")).astype(np.uint64) << np.uint64(8) | np.uint64(ord("e"))
    suffix |= np.where(three, _ascii(mag // 100, 2), 0) | _ascii(mag // 10 % 10, 2 + three)
    suffix |= _ascii(mag % 10, 3 + three)
    suffix[fixed | lead_zero] = 0
    # byte j of the 16 digit bytes is byte j % 8 of word j // 8; a point after
    # digit p sits at byte p, and the digits from byte p on move up one
    word, n, byte = np.ix_(np.arange(2), np.arange(18), np.arange(8))
    j = 8 * word + byte
    return _G17Tables(
        ten_hi_hi=hi_hi,
        ten_hi_lo=hi_lo,
        ten_lo=lo,
        group_ascii=np.stack([sum(_ascii(group // 10 ** (3 - k) % 10, k + 4 * w) for k in range(4)) for w in (0, 1)]),
        trailing=sum((group % 10**k == 0).astype(np.int64) for k in range(1, 5)),
        min_keep=np.where(fixed, x + 1, 1),
        interior=np.where((1 <= x) & (x <= 15), x + 1, 17),
        suffix=suffix,
        head=head.reshape(-1),
        keep_masks=_byte_words(np.where(j < n - 1, 0xFF, 0)),
        point_low=_byte_words(np.where(j < n, 0xFF, 0)[:, :16]),
        point_dot=_byte_words(np.where(j == n, ord("."), 0)[:, :16]),
    )


def _scaled(mag: np.ndarray, xi: np.ndarray, tables: _G17Tables) -> tuple:
    """floor(mag * 10**(16 - X)) as int64 and the fraction left over, X = xi + _X_MIN.

    One Dekker product with the (hi, lo) power of ten, exact up to rounding
    of the small terms; see _TIE_MARGIN.
    """
    b_hi, b_lo, lo = tables.ten_hi_hi.take(xi), tables.ten_hi_lo.take(xi), tables.ten_lo.take(xi)
    p, err = _two_prod(mag, b_hi + b_lo, b_hi, b_lo)
    p_int = np.floor(p)
    rest = (p - p_int) + (err + mag * lo)
    rest_int = np.floor(rest)
    return p_int.astype(np.int64) + rest_int.astype(np.int64), rest - rest_int


def _g17_cells(cells: np.ndarray, mag: np.ndarray, neg: np.ndarray, tail: np.uint64) -> np.ndarray:
    """Write the cells of finite magnitudes in [_LOW, _HIGH]; return which were uncertain."""
    tables = _g17_tables()
    xi = np.floor(np.log10(mag)).astype(np.int64) - _X_MIN
    digits, frac = _scaled(mag, xi, tables)
    # log10 may land one off next to a power of ten
    off = (digits < 10**16).astype(np.int64) - (digits > 10**17)
    wrong = np.flatnonzero(off)
    unsure = np.abs(frac - 0.5) <= _TIE_MARGIN
    if wrong.size:
        xi[wrong] -= off[wrong]
        d, frac[wrong] = _scaled(mag[wrong], xi[wrong], tables)
        digits[wrong] = d
        unsure[wrong] = (np.abs(frac[wrong] - 0.5) <= _TIE_MARGIN) | (d < 10**16) | (d > 10**17)
    digits += frac > 0.5
    carry = np.flatnonzero(digits == 10**17)  # rounded up to the next power of ten
    if carry.size:
        xi[carry] += 1
        digits[carry] = 10**16
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
    keep = np.maximum(17 - trail, tables.min_keep.take(xi))
    head = tables.head.take(4 * xi + 2 * neg + (keep > 1))
    np.bitwise_or(head, d0.view(np.uint64) << np.uint64(48), out=cells[:, 0])
    low_ascii, high_ascii = tables.group_ascii
    for w in range(2):
        digit_word = low_ascii.take(groups[2 * w]) | high_ascii.take(groups[2 * w + 1])
        np.bitwise_and(digit_word, tables.keep_masks[w].take(keep), out=cells[:, w + 1])
    np.bitwise_or(tables.suffix.take(xi), tail, out=cells[:, 3])
    inner = np.flatnonzero(keep > tables.interior.take(xi))
    if inner.size:  # a point among digits 1..16: the digits after it move up a byte
        p = tables.interior.take(xi[inner]) - 1
        before = tables.point_low[:, p].T
        words = cells[inner, 1:3]
        up = words & ~before
        words = words & before | up << np.uint64(8) | tables.point_dot[:, p].T
        words[:, 1] |= up[:, 0] >> np.uint64(56)
        cells[inner, 1:3] = words
        cells[inner, 3] |= up[:, 1] >> np.uint64(56)
    return unsure


def _fill_g17(cells: np.ndarray, values: np.ndarray, sep: bytes) -> None:
    """Write "%.17g" % v of each double into its (n, 4) uint64 cell, sep last.

    Exact zeros skip the digit pipeline.  Values it cannot certify (a
    17th-digit tie within _TIE_MARGIN, magnitudes outside [_LOW, _HIGH],
    subnormals, nan, inf) are formatted by Python one at a time.
    """
    tail = np.uint64(_word(sep.rjust(8, b"\0")))
    mag = np.abs(values)
    neg = np.signbit(values)
    ok = (mag >= _LOW) & (mag <= _HIGH)
    if ok.all():
        redo = np.flatnonzero(_g17_cells(cells, mag, neg, tail))
    else:
        cells[:, 0] = np.where(neg, np.uint64(ord("-")), np.uint64(0)) | np.uint64(ord("0") << 48)
        cells[:, 1:3] = 0
        cells[:, 3] = tail
        redo = np.flatnonzero(~ok & (mag != 0.0))
        idx = np.flatnonzero(ok)
        if idx.size:
            part = np.empty((idx.size, _CELL_WORDS), np.uint64)
            unsure = _g17_cells(part, mag[idx], neg[idx], tail)
            cells[idx] = part
            redo = np.concatenate([redo, idx[unsure]])
    for i in redo.tolist():
        text = ("%.17g" % values[i]).encode().ljust(8 * _CELL_WORDS - len(sep), b"\0") + sep
        cells[i] = np.frombuffer(text, np.uint64)


def format_g17(values) -> list:
    """The "%.17g" text of each double, as bytes, from the field CSV formatter."""
    arr = np.asarray(values, dtype=float).ravel()
    cells = np.empty((arr.size, _CELL_WORDS), np.uint64)
    _fill_g17(cells, arr, b"")
    return [cell.tobytes().translate(None, b"\0") for cell in cells]


def _label_words(texts: list, words: int, align) -> np.ndarray:
    """One row per text, NUL-padded to `words` words by `align` (bytes.ljust or bytes.rjust)."""
    padded = b"".join(align(text, 8 * words, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint64).reshape(len(texts), words)


def write_field_csv(dest: Path | BinaryIO, nodes: np.ndarray, xs: np.ndarray, values: np.ndarray) -> None:
    """Write the field to `dest`, a path or a binary file; rows are time-major.

    Every spatial point of node 0 comes first, then node 1, ...  The bytes
    are those of np.savetxt(fmt="%.17g", delimiter=",") on the (t, x, re, im)
    table.  Each chunk of time rows fills one reused buffer of NUL-padded
    cells, and is written with its NULs deleted.  The t and x labels share
    a row's lead words; the words only x reaches are set once per file.

    Each value takes the certified fast path: its decimal exponent X from
    log10, corrected by one where that lands off; the 17-digit significand
    round(|v| * 10**(16 - X)) as an int64 from a double-double product; its
    ASCII from a table of 4-digit groups with the trailing zeros cut; and
    the sign, point and exponent suffix from per-exponent tables.  The
    computed fraction is within 2**-47 of the exact one, so the rounding is
    certain unless it lies within 2**-40 of 1/2.  Those values (true ties
    among them), magnitudes outside [1e-280, 1e280], nan and inf go to
    Python's "%.17g" one element at a time.  Exact zeros skip the digits.
    A real field is written as its complex cast: the tail of its re_u cell
    ends with the constant im_u cell ",0".
    """
    arr = np.asarray(values)
    real = not np.iscomplexobj(arr)
    arr = np.ascontiguousarray(arr, dtype=float if real else complex)
    t_texts, x_texts = ([text + b"," for text in format_g17(v)] for v in (nodes, xs))
    t_len, x_len = (max(map(len, texts), default=0) for texts in (t_texts, x_texts))
    # a row's lead words hold its t cell from the left and its x cell from the
    # right, so the two share a word when they fit
    t_words, lead = -(-t_len // 8), -(-(t_len + x_len) // 8)
    t_col = _label_words(t_texts, t_words, bytes.ljust)
    x_col = _label_words(x_texts, lead, bytes.rjust)
    n_points = len(x_texts)
    width = lead + _CELL_WORDS * (1 if real else 2)
    rows = max(1, _CHUNK_CELLS // max(n_points, 1))
    buf = np.empty((rows, n_points, width), np.uint64)
    buf[:, :, :lead] = x_col
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "wb") as fh:
        fh.write(b"t,x,re_u,im_u\n")
        for r0 in range(0, arr.shape[0], rows):
            chunk = arr[r0 : r0 + rows]
            block = buf[: chunk.shape[0]]
            for w in range(t_words):  # one word at a time, so the inner loop runs over the cells
                np.bitwise_or(t_col[r0 : r0 + rows, w, None], x_col[:, w], out=block[:, :, w])
            cells = block.reshape(-1, width)
            if real:
                _fill_g17(cells[:, lead:], chunk.reshape(-1), b",0\n")
            else:
                parts = chunk.reshape(-1).view(float)
                _fill_g17(cells[:, lead : lead + _CELL_WORDS], parts[0::2], b",")
                _fill_g17(cells[:, lead + _CELL_WORDS :], parts[1::2], b"\n")
            fh.write(block.tobytes().translate(None, b"\0"))
