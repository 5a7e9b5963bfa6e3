"""Text built as byte matrices: each row one entry, padded with the byte ``0xFF``,
which no UTF-8 text holds, so that deleting it (:func:`text`) leaves the text of a
whole block of entries.

:func:`padded` lays out the UTF-8 bytes of Python strings and :func:`numbers` the
ASCII of numbers Python wrote; :func:`joined` puts pieces side by side.

:func:`g17` writes each probability exactly as ``'%.17g' % x`` does, from array
operations: for ``x`` in (0, 1) it computes the 17 significant digits ``D`` and the
decimal exponent ``E`` of ``x = D * 10**(E - 16)`` (rounded) in double-double
arithmetic (Dekker 1971), and leaves to Python's ``%`` only what that cannot
decide: values outside (0, 1) and the near-ties below.

**Digits.** Write ``x = f * 2**e`` with ``f`` in [1/2, 1) (``frexp``). The binade
``[2**(e-1), 2**e)`` lies in the decades of ``E0`` and ``E0 + 1``, where ``E0`` is the
largest integer with ``10**E0 <= 2**(e-1)``; so ``E`` is ``E0 + j``, ``j`` in {0, 1}.
For each ``e`` from 0 down to -1073 and each ``j``, a table holds ``c = 10**(16-E) *
2**e`` as ``hi + lo``: ``hi`` is ``c`` rounded to a double and ``lo`` is ``c - hi``
rounded, both by exact integer division. ``y = f * c`` is the scaled value whose
rounding to an integer is ``D``. Veltkamp's split and Dekker's TwoProduct give
``f * hi = p + err`` exactly, and ``y ~ p + t`` with ``t = fl(err + fl(f * lo))``.

**Error bound: |y - (p + t)| <= 2**-48.** Since ``10**E0 <= 2**(e-1) < 10**(E0+1)``,
``c`` lies in [2e16, 2e17) for ``j = 0`` and [2e15, 2e16) for ``j = 1``, so ``c``,
``y`` and ``p`` are below ``2**58`` and ``ulp(p), ulp(hi) <= 2**5``. Hence

* ``|lo| <= ulp(hi)/2 <= 2**4``, so ``|c - hi - lo| <= ulp(lo)/2 <= 2**-50``;
  times ``f < 1``, at most ``2**-50``;
* ``|f * lo| < 2**4``: rounding it costs at most ``2**-50``;
* ``|err| <= ulp(p)/2 <= 2**4``, so ``|err + fl(f * lo)| <= 2**5``: rounding the
  sum costs at most ``2**-49``;
* TwoProduct is exact: ``f * hi`` is far from overflow, and every partial product
  is a multiple of ``2**-55``, far from underflow.

The three add to ``2**-48``. For the ``j`` with ``y`` in [1e16, 1e17) the double
``p`` is at least ``2**53``, hence an integer, and ``D = p + rint(t)`` unless the
fraction ``t - rint(t)`` lies within ``MARGIN = 2**-20`` of ±1/2: outside that band
``y`` is more than ``2**-20 - 2**-48`` from every half-integer, so it rounds to the
same integer. Inside it, the value goes to ``%``. Exact decimal ties are among
those: ``m * 2**-(k+1)`` with ``m`` odd and 18 significant digits, such as
``26215 * 2**-18 = 0.100002288818359375``.

**Exponent.** ``j`` is guessed from ``log10 x``. A wrong guess shows as ``p + t``
below 1e16 (``j = 1``) or not below 1e17 (``j = 0``; ``y`` for ``j = 0`` is never below
1e16), and is flipped once. A classification that the error bound could sway
puts ``y`` within ``2**-48`` of 1e16 or 1e17, where both choices round to the same
text: ``D = 1e17`` at ``E`` and ``D = 1e16`` at ``E + 1``, which is how ``%`` writes a
value that rounds up to the next decade.

**Layout.** ``%g`` writes ``0.`` and ``-1 - E`` zeros before the digits for
``-4 <= E < 0`` and ``d.ddd e-XX`` (at least two exponent digits) below, with
trailing zeros and a bare point dropped. Every row holds the same 32 bytes, built
as 4-byte words from a table of the digits of 0..9999; which of them it drops
depends only on that form and on the count of significant digits, one of 6 x 17
layouts, and a dropped byte is set to ``0xFF``.
"""

from __future__ import annotations

import functools

import numpy as np

MARGIN = 2.0 ** -20       # a fraction this close to 1/2 is left to Python's ``%``
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant for 53-bit doubles


def padded(texts):
    """The UTF-8 bytes of ``texts`` as the rows of a matrix padded with ``0xFF`` to a
    width that is a multiple of 8."""
    raw = [s.encode("utf-8", "surrogatepass") for s in texts]
    width = max(8, -(-max(map(len, raw), default=0) // 8) * 8)
    rows = b"".join(r.ljust(width, b"\xff") for r in raw)
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(raw), width)


def numbers(texts):
    """Numbers as Python writes them (ASCII, no NUL, at most 24 characters, as in
    ``-1.2345678901234567e-308``) as the rows of a 24-byte matrix."""
    matrix = np.array(list(texts), dtype="S24").view(np.uint8).reshape(-1, 24)
    matrix[matrix == 0] = 0xFF
    return matrix


def joined(matrices, rows: int):
    """The matrices side by side, each of one row or ``rows`` rows and of a width that
    is a multiple of 8, which lets the copy move 8-byte words."""
    words = [np.broadcast_to(m.view(np.uint64), (rows, m.shape[1] // 8)) for m in matrices]
    return np.hstack(words).view(np.uint8)


def text(matrix) -> str:
    """The text of the rows of ``matrix``, one after the other, without the padding."""
    return matrix.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass")


@functools.cache
def _tables():
    """The ASCII digits of 0..9999 as little-endian 4-byte words, and the count up to
    each one's last nonzero digit; the 6 x 17 layouts of :func:`g17`; per
    binade (row ``-e``) the largest exponent ``E0 + 1`` of its decades; and ``hi``,
    split in two halves, and ``lo`` of ``10**(16-E) * 2**e`` at index ``2 * -e + j``
    for ``E = E0 + j``."""
    n = np.arange(10_000, dtype=np.int16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    significant = 4 - (n % 10 == 0) - (n % 100 == 0) - (n % 1000 == 0) - (n == 0)
    # layouts[form, count], 0xFF on the bytes dropped: form 0-3 is fixed point with
    # that many zeros after the point, 4 and 5 an exponent of two and of three
    # digits; count digits follow the first
    layouts = np.full((6, 17, 32), 0xFF, dtype=np.uint8)
    layouts[:, :, 0] = 0
    layouts[:4, :, 1] = layouts[:4, :, 5] = layouts[4:, 1:, 1] = 0
    for zeros in range(1, 4):
        layouts[zeros:4, :, 1 + zeros] = 0
    layouts[4:, :, 24:26] = layouts[4:, :, 30:] = layouts[5, :, 29] = 0
    for count in range(1, 17):
        layouts[:, count, 8:8 + count] = 0
    top, hi, lo = [], [], []
    t, power = 0, 1                              # power = 10**t
    for e in range(0, -1074, -1):
        while power < 1 << (1 - e):              # the least t with 10**-t <= 2**(e-1): E0 = -t
            t, power = t + 1, power * 10
        top.append(1 - t)
        for scale in (16 + t, 15 + t):
            num, den = 10 ** scale, 1 << -e
            h = num / den                        # int / int rounds correctly
            a, b = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    g = hi * _SPLIT
    hi_top = g - (g - hi)
    tables = (digits.astype(np.uint8).view("<u4").ravel(), significant,
              layouts.reshape(102, 32).view(np.uint64), np.array(top), hi, hi_top,
              hi - hi_top, np.array(lo))
    for a in tables:
        a.setflags(write=False)
    return tables


def _scaled(f, index, hi, hi_top, hi_low, lo):
    """``(p, t)``: ``f * (hi + lo)`` at ``index`` as ``p + t``, within ``2**-48``."""
    c, ch, cl = hi.take(index), hi_top.take(index), hi_low.take(index)
    p = f * c
    g = f * _SPLIT
    fh = g - (g - f)
    fl = f - fh
    err = ((fh * ch - p) + fh * cl + fl * ch) + fl * cl
    return p, err + f * lo.take(index)


def g17(x):
    """``(matrix, fallback)``: ``'%.17g' % v`` for each ``v`` of ``x`` as the rows of a
    32-byte matrix, and the mask of the values Python's ``%`` wrote (those outside
    (0, 1) and the near-ties; see the module docstring)."""
    x = np.asarray(x, dtype=float)
    digits, significant, layouts, top, *scale = _tables()
    fast = (x > 0.0) & (x < 1.0)
    v = np.where(fast, x, 0.5)
    f, e = np.frexp(v)
    j = np.log10(v) >= top.take(-e)
    index = 2 * -e + j
    p, t = _scaled(f, index, *scale)
    wrong = np.flatnonzero(np.where(j, (p - 1e16) + t < 0.0, (p - 1e17) + t >= 0.0))
    if wrong.size:
        j[wrong] = ~j[wrong]
        index[wrong] ^= 1
        p[wrong], t[wrong] = _scaled(f[wrong], index[wrong], *scale)
    r = np.rint(t)
    fallback = ~fast | (np.abs(t - r) >= 0.5 - MARGIN)
    d = p.astype(np.int64) + r.astype(np.int64)
    up = d == 10 ** 17                           # rounded up into the next decade
    d[up] = 10 ** 16
    exp = top.take(-e) - 1 + j + up
    upper, lower = np.divmod(d, 10 ** 8)
    lead, upper = np.divmod(upper.astype(np.uint32), 10 ** 8)
    groups = (*np.divmod(upper, 10 ** 4), *np.divmod(lower.astype(np.uint32), 10 ** 4))

    # 4-byte words: '0' or the lead digit, then '.00'; '0', the lead digit and two pads;
    # the other 16 digits; 'e-' and two pads; the exponent's four digits
    words = np.empty((x.size, 8), dtype="<u4")
    fixed = exp >= -4
    words[:, 0] = np.where(fixed, 0, lead) + int.from_bytes(b"0.00", "little")
    words[:, 1] = (lead + ord("0")) * 256 + ord("0")
    count = np.zeros(x.size, dtype=np.intp)      # digits after the first, to the last nonzero
    for i, group in enumerate(groups):
        words[:, 2 + i] = digits.take(group)
        count = np.where(group > 0, 4 * i + significant.take(group), count)
    words[:, 6] = int.from_bytes(b"e-", "little")
    words[:, 7] = digits.take(-exp)
    layout = np.where(fixed, -1 - exp, 4 + (exp <= -100)) * 17 + count
    out = (words.view(np.uint64) | layouts.take(layout, axis=0)).view(np.uint8)
    rows = np.flatnonzero(fallback)
    if rows.size:
        out[rows] = 0xFF
        out[rows, :24] = numbers(["%.17g" % value for value in x[rows].tolist()])
    return out, fallback
