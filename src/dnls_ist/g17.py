"""The bytes of '%.17g' % v for every float64 v of an array, by array operations.

For 1e-4 <= |v| < 1e16, '%.17g' prints v in fixed notation from the 17
significant digits of its exact decimal value, rounded half to even.  With
e = floor(log10 |v|) in -4..15 those digits are the integer nearest to
|v| * 10**(16 - e), and that product is exact as hi + lo: every 10**k with
k <= 22 is a double, and Dekker's two-product (Numer. Math. 18, 1971)
gives the rounding error of a double product as a double.  hi is then an
even integer (it is at least 1e16 > 2**53), so hi + rint(lo) is the
product rounded half to even.  log10 can be one off next to a power of
ten; the product shows it, and those values are scaled again.  The text of
a value depends on its digits and on (sign, e, index of the last nonzero
digit) only, so it is laid out from a table of 4-digit groups and two
per-layout tables of byte masks and bytes, in 64-bit words.  Zeros, the
values outside that range and non-finite values are formatted by Python's
`%` (which is what '%.17g' means), one at a time.
"""
from __future__ import annotations

import functools

import numpy as np

# Bytes per value: sign, "0." and up to three zeros (e < 0), then the 17
# digits each followed by a slot for the point.  The last slot is always
# NUL, so a writer may put a separator there.  Unused bytes are NUL.
WIDTH = 40
_FALLBACK = 24  # the longest '%.17g' text: "-2.2250738585072014e-308"

_POW10 = 10.0 ** np.arange(23)  # exact
_SPLITTER = 2.0 ** 27 + 1.0


def _split(x):
    """x as hi + lo with 26-bit halves (Dekker)."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _group_tables():
    """The words of the 4-digit groups 0000..9999, each digit followed by an
    empty slot, then those of the leading digits 0..9 (byte 6 of a record);
    and by group k (digits 4k+1..4k+4) the index of the group's last nonzero
    digit, 0 if none."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    words = np.zeros((10010, 8), np.uint8)
    words[:10000, ::2] = digits + ord("0")
    words[10000:, 6] = np.arange(10) + ord("0")
    last = np.where(digits > 0, np.arange(1, 5, dtype=np.int8), np.int8(0)).max(axis=1)
    last = np.where(last > 0, last + 4 * np.arange(4, dtype=np.int8)[:, None], 0)
    return words.view(np.uint64).ravel(), last.astype(np.int8)


def _layouts():
    """Byte masks and bytes of the 20 * 17 * 2 layouts (e, last digit, sign), in words."""
    e, last, negative, pos = np.ix_(*(np.arange(lo, hi, dtype=np.int8) for lo, hi in (
        (-4, 16), (0, 17), (0, 2), (0, WIDTH))))
    keep = (pos >= 6) & (pos % 2 == 0) & ((pos - 6) // 2 <= np.maximum(last, e))
    lead = np.frombuffer(b"\0" + b"0.000", np.uint8)[np.minimum(pos, 5)]
    text = np.where((e < 0) & (pos >= 1) & (pos <= 1 - e), lead, np.uint8(0))
    text = np.where((e >= 0) & (last > e) & (pos == 7 + 2 * e), np.uint8(ord(".")), text)
    text = np.where((negative == 1) & (pos == 0), np.uint8(ord("-")), text)
    shape = (e.size, last.size, negative.size, pos.size)
    return [np.ascontiguousarray(np.broadcast_to(b, shape), np.uint8).view(np.uint64)
            .reshape(-1, WIDTH // 8) for b in (keep * np.uint8(0xFF), text)]


@functools.cache
def _tables():
    """(_group_tables(), _layouts()), built on the first format_g17 call, not at import."""
    return _group_tables(), _layouts()


def _scaled(a, s):
    """a * 10**s as hi + lo exactly."""
    hi = a * _POW10[s]
    ah, al = _split(a)
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def format_g17(values) -> np.ndarray:
    """'%.17g' % v for each v of values, as uint8 of shape values.shape + (WIDTH,).

    Each value's ASCII text is its bytes with the NULs dropped.
    """
    (group_words, group_last), (layout_keep, layout_text) = _tables()
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    a = np.abs(flat)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0  # a stand-in, overwritten below
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if off.size:  # at the ends of the range; log10 may be one off next to a power of ten
        h, l = hi[off], lo[off]
        e[off] += ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.intp)
        e[off] -= (h < 1e16) | ((h == 1e16) & (l < 0))
        hi[off], lo[off] = _scaled(a[off], 16 - e[off])
    # Never 10**17: a double below a power of ten is further from it than half
    # a unit in the 17th digit, so its digits do not round up to that power.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # digits = d0 * 10**16 + four groups of 4 digits: their rows of the group words
    # (// by a scalar beats divmod)
    rows = np.empty((a.size, 5), np.intp)
    d0 = digits // 10 ** 16
    rows[:, 0] = d0 + 10000
    rest = digits - d0 * 10 ** 16
    for k, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4), 1):
        rows[:, k] = rest // scale
        rest -= rows[:, k] * scale
    rows[:, 4] = rest
    last = group_last[0].take(rows[:, 1])
    for k in range(1, 4):
        np.maximum(last, group_last[k].take(rows[:, k + 1]), out=last)
    layout = ((e + 4) * 17 + last) * 2 + (flat < 0)
    words = group_words.take(rows)
    words &= layout_keep.take(layout, axis=0)
    words |= layout_text.take(layout, axis=0)
    text = words.view(np.uint8)
    if slow.size:
        text[slow] = 0
        text[slow, :_FALLBACK] = np.array(["%.17g" % v for v in flat[slow].tolist()],
                                          f"S{_FALLBACK}").view(np.uint8).reshape(-1, _FALLBACK)
    return text.reshape(values.shape + (WIDTH,))
