"""Generic combinatorial-number-system decoding for any order.

The order-2/3 closed forms in :mod:`triangular` / :mod:`tetrahedral`
mirror what each CUDA thread computes; this module provides the general
``order``-dimensional decode (needed e.g. by the 4x1 scheme where a
thread id encodes a full 4-combination) by peeling the top index one
binomial at a time.

A contiguous ``range`` of ids decodes by successor generation instead:
the top index is constant on each level ``[C(m, r), C(m + 1, r))``, so
only the two end points need a top-index search, and the remainder
inside a level is again a contiguous range one order down.  The search
engine only ever decodes contiguous strides, so it takes that path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binomial_clamped",
    "top_index",
    "top_index_array",
    "combos_from_linear",
]

_INT64_MAX = np.int64(np.iinfo(np.int64).max)

# Ceiling for admissible lambda values (and the value clamped entries of
# the exact vectorized binomial report).  Any lane of
# :func:`binomial_clamped` whose divide-as-you-go intermediate would
# exceed int64 is clamped *to* the guard; such a lane's true value
# exceeds ``INT64_MAX // order >= 2**60`` for every supported order
# (<= 8), so both the clamp and the truth sit strictly above every
# admissible lambda and all ``<=`` / ``>`` boundary comparisons stay
# exact.  2**60 ~ 1.15e18 still admits e.g. the full order-4 grid at
# 70,000 genes.
_GUARD = np.int64(1) << np.int64(60)

# Supported-order cap implied by the guard analysis above.
_MAX_ORDER = 8


def binomial_clamped(x: np.ndarray, order: int) -> np.ndarray:
    """Exact elementwise ``C(x, order)``, clamped above a guard ceiling.

    Computed divide-as-you-go — ``C(x, r + 1) = C(x, r) * (x - r) //
    (r + 1)`` is exact at every step because any ``r + 1`` consecutive
    integers contain a multiple of ``r + 1`` — so intermediates stay a
    factor ``order`` below the naive falling product (which wraps int64
    negative around ``C(55_000, 4)``).  Lanes whose next multiply would
    overflow int64 anyway are clamped to ``_GUARD`` (and stay clamped);
    their true value exceeds ``INT64_MAX // order``, so comparisons
    against any admissible lambda (all strictly below the guard) are
    unaffected.  Negative ``x - r`` terms clamp to zero, so out-of-range
    ``x`` yields 0 like :func:`math.comb` on ``k > n``.
    """
    _check_order(order)
    x = np.asarray(x, dtype=np.int64)
    out = np.ones_like(x)
    clamped = np.zeros(x.shape, dtype=bool)
    for r in range(order):
        term = np.maximum(x - r, 0)
        clamped |= (term > 0) & (out > _INT64_MAX // np.maximum(term, 1))
        # Clamped lanes may wrap here; their value is overwritten below
        # and the sticky mask keeps them pinned for later rounds.
        out = out * term // (r + 1)
    return np.where(clamped, _GUARD, out)


def _check_order(order: int) -> None:
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}]")


def _check_lambda(lo: int, hi: int) -> None:
    """Guard the smallest (``lo``) and largest (``hi``) lambda of a call."""
    if lo < 0:
        raise ValueError("lambda must be non-negative")
    if hi >= _GUARD:
        raise ValueError("lambda must be below the guard ceiling 2**60")


def top_index(lam: int, order: int) -> int:
    """Scalar :func:`top_index_array`: largest ``m`` with ``C(m, order) <= lam``.

    The float estimate is repaired with exact Python-int binomials, so
    the result is exact for every admissible ``lam``.
    """
    _check_order(order)
    lam = int(lam)
    _check_lambda(lam, lam)
    est = (math.factorial(order) * lam) ** (1.0 / order) + (order - 1) / 2.0
    m = max(int(est), order - 1)
    while math.comb(m, order) > lam:
        m -= 1
    while math.comb(m + 1, order) <= lam:
        m += 1
    return m


def top_index_array(lam: np.ndarray, order: int) -> np.ndarray:
    """Largest ``m`` with ``C(m, order) <= lam`` for each entry (exact).

    Float estimate ``C(m, order) ~ (m - (order-1)/2)**order / order!``
    followed by exact boundary repair with the overflow-safe clamped
    binomial (a naive int64 falling product wraps negative around
    ``C(55000, 4)`` and the repair loops never converge).
    """
    _check_order(order)
    lam_i = np.asarray(lam, dtype=np.int64)
    if lam_i.size:
        _check_lambda(int(lam_i.min()), int(lam_i.max()))
    fact = math.factorial(order)
    lf = lam_i.astype(np.float64)
    m = np.floor((fact * lf) ** (1.0 / order) + (order - 1) / 2.0).astype(np.int64)
    m = np.maximum(m, order - 1)

    while True:
        over = binomial_clamped(m, order) > lam_i
        if not over.any():
            break
        m = np.where(over, m - 1, m)
    while True:
        under = binomial_clamped(m + 1, order) <= lam_i
        if not under.any():
            break
        m = np.where(under, m + 1, m)
    return m


def combos_from_linear(lam: "np.ndarray | range", order: int) -> np.ndarray:
    """Decode linear ids into strictly increasing ``order``-tuples.

    Inverse of the combinatorial number system
    ``lam = sum_r C(combo[r], r + 1)``.  Returns shape ``(len(lam), order)``
    with columns sorted ascending.  A unit-step ``range`` decodes by
    successor generation (:func:`_fill_range`); any other input takes the
    per-element closed form.  Both give identical arrays.
    """
    if isinstance(lam, range) and lam.step == 1:
        _check_order(order)
        out = np.empty((len(lam), order), dtype=np.int64)
        if len(lam):
            _check_lambda(lam.start, lam.stop - 1)
            _fill_range(out, lam.start, lam.stop, order)
        return out
    lam_i = np.asarray(lam, dtype=np.int64)
    out = np.empty((lam_i.size, order), dtype=np.int64)
    rem = lam_i.copy()
    for r in range(order, 0, -1):
        m = top_index_array(rem, r)
        out[:, r - 1] = m
        rem = rem - binomial_clamped(m, r)
    return out


def _fill_range(out: np.ndarray, lo: int, hi: int, order: int) -> None:
    """Write the decode of ids ``[lo, hi)`` (``lo < hi``) into columns
    ``[0, order)`` of ``out``, one level of the top index at a time.

    Level ``m`` holds the ids ``[C(m, order), C(m + 1, order))``; its
    rows share top index ``m`` and their remainders ``id - C(m, order)``
    form a contiguous range decoded one order down.  Order 2 resolves
    every level in one ``np.repeat``; order 1 is the identity.
    """
    if order == 1:
        out[:, 0] = np.arange(lo, hi)
        return
    m_lo, m_hi = top_index(lo, order), top_index(hi - 1, order)
    if order == 2:
        levels = np.arange(m_lo, m_hi + 1)
        # C(m, 2) for m < 2**31: the product cannot wrap int64.
        bases = levels * (levels - 1) // 2
        starts = np.maximum(bases, lo)
        counts = np.concatenate((starts[1:], [hi])) - starts
        out[:, 1] = np.repeat(levels, counts)
        out[:, 0] = np.arange(lo, hi) - np.repeat(bases, counts)
        return
    row = 0
    for m in range(m_lo, m_hi + 1):
        base = math.comb(m, order)
        s, e = max(lo, base), min(hi, math.comb(m + 1, order))
        level = out[row : row + e - s]
        level[:, order - 1] = m
        _fill_range(level, s - base, e - base, order - 1)
        row += e - s
