"""Index-based numpy scan kernels shared by charsum, reconstruct, quantum.

Candidates are addressed by index = sum_i s_i p^i (the package-wide
lexicographic order).  With the upper coefficients fixed, the s_0 axis
is contiguous in index space and chi((base + s_0) mod p) is a plain
slice of a doubled character table.  ``chi_blocks`` is the one kernel
that turns blocks of candidates into int8 character values this way;
correlations and window matrices are reductions over it.  At d = 1 the
correlation is a single sliding dot product instead, which is faster
there.  All accumulation is integer exact: float32 and float64 appear
only where every intermediate is an integer the type represents exactly
(below 2^24 and 2^53).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .ffield import PrimeModulus, chi_table
from .limits import check_ops
from .poly import is_squarefree, mul, poly_from_index, poly_index

# Cells (rows x points x p) per block yielded by chi_blocks; about 2^16
# measured fastest, small enough that a block stays in cache.
BLOCK_CELLS = 1 << 16


@lru_cache(maxsize=64)
def _chi2(p: int, dtype: str) -> np.ndarray:
    base = chi_table(PrimeModulus(p))
    arr = np.concatenate([base, base]).astype(dtype)
    arr.setflags(write=False)
    return arr


def _run_partitioned(fn, n: int, threads: int) -> None:
    # contiguous ranges, disjoint output slices: thread count never changes results
    t = max(1, int(threads))
    if t == 1 or n < 2:
        fn(0, n)
        return
    bounds = [n * i // t for i in range(t + 1)]
    with ThreadPoolExecutor(max_workers=t) as ex:
        futures = [
            ex.submit(fn, bounds[i], bounds[i + 1])
            for i in range(t)
            if bounds[i] < bounds[i + 1]
        ]
        for fut in futures:
            fut.result()


def chi_blocks(p: int, d: int, xs: np.ndarray, lo: int, hi: int):
    """Yield (h, block) covering the high-digit rows lo <= h < hi in order.

    Row h fixes (s_1, ..., s_{d-1}) to the base-p digits of h and spans the
    candidates h*p + s_0.  block[r, j, s_0] = chi(g(xs[j])) as int8 for the
    monic degree-d g of index (h + r)*p + s_0.
    """
    xs = np.asarray(xs, dtype=np.int64)
    xp = np.empty((d + 1, len(xs)), dtype=np.int64)
    xp[0] = 1
    for i in range(1, d + 1):
        xp[i] = xp[i - 1] * xs % p
    # windows[b] = chi((b + s_0) mod p) for s_0 = 0..p-1, a view of the doubled table
    windows = np.lib.stride_tricks.sliding_window_view(_chi2(p, "int8"), p)
    place = p ** np.arange(d - 1, dtype=np.int64)
    step = max(1, BLOCK_CELLS // (len(xs) * p))
    for h in range(lo, hi, step):
        digits = np.arange(h, min(hi, h + step), dtype=np.int64)[:, None] // place % p
        yield h, windows[(xp[d] + digits @ xp[1:d]) % p]


def windowed_correlations(
    p: int,
    d: int,
    x0: int,
    m: int,
    weights,
    threads: int = 1,
    *,
    rows: int | None = None,
) -> np.ndarray:
    """corr[i] = sum_j weights[j] * chi(g_i(x0 + j mod p)) for all monic degree-d g_i.

    The window is the contiguous residue run x0, x0+1, ..., x0+m-1 (mod p),
    1 <= m <= p.  Returns int64 in index order, of length p^d, or rows * p
    when only the high-digit rows h < rows are scanned (the indices below
    rows * p; d = 1 has the one row h = 0).
    """
    if not (1 <= m <= p and 0 <= x0 < p):
        raise ValueError("window must be a contiguous run of at most p residues")
    w = np.asarray(weights)
    if w.shape != (m,):
        raise ValueError("weights must match the window length")
    rows = p ** (d - 1) if rows is None else rows
    if not 1 <= rows <= p ** (d - 1):
        raise ValueError("rows must satisfy 1 <= rows <= p^(d-1)")

    if d == 1:
        # c[t] = sum_j w[j] * chi2[t + j] for t < p is one sliding dot product that
        # stays inside the doubled table; corr[s] = c[(x0 + s) mod p]
        chi2 = _chi2(p, "float64")
        # the dot products run about a third faster when the weights start on a
        # 64-byte boundary, so place them there rather than wherever malloc puts a copy
        buf = np.empty(m + 8)
        wf = buf[-buf.ctypes.data // 8 % 8 :][:m]
        wf[:] = w
        c = np.correlate(chi2[: p - 1 + m], wf, mode="valid")
        np.rint(c, out=c)
        corr = np.empty(p, dtype=np.int64)
        corr[: p - x0] = c[x0:]
        corr[p - x0 :] = c[:x0]
        return corr

    xs = (x0 + np.arange(m, dtype=np.int64)) % p
    wi = w.astype(np.int64)
    # float32 halves the cost and stays exact while every partial sum is below 2^24
    ftype = np.float32 if m * int(np.abs(wi).max()) < 1 << 24 else np.float64
    wf = wi.astype(ftype)
    corr = np.empty((rows, p), dtype=np.int64)

    def run(lo: int, hi: int) -> None:
        for h, block in chi_blocks(p, d, xs, lo, hi):
            corr[h : h + len(block)] = wf @ block.astype(ftype)

    _run_partitioned(run, rows, threads)
    return corr.reshape(-1)


def chi_window_matrix(p: int, d: int, x0: int, m: int) -> np.ndarray:
    """int8 matrix of chi(g(x)): rows all monic degree-d g, columns the window."""
    xs = (x0 + np.arange(m, dtype=np.int64)) % p
    out = np.empty((p ** (d - 1), p, m), dtype=np.int8)
    for h, block in chi_blocks(p, d, xs, 0, p ** (d - 1)):
        out[h : h + len(block)] = block.transpose(0, 2, 1)
    return out.reshape(p**d, m)


def perfect_square_indices(p: int, degree: int) -> np.ndarray:
    """Indices (in the monic degree-D order) of all perfect squares g^2."""
    if degree % 2:
        return np.empty(0, dtype=np.int64)
    m = degree // 2
    modulus = PrimeModulus(p)
    roots = (poly_from_index(m, modulus, gi) for gi in range(p**m))
    return np.array([poly_index(mul(g, g)) for g in roots], dtype=np.int64)


def squarefree_mask(p: int, d: int, budget: int | None = None) -> np.ndarray:
    """Boolean mask over the monic degree-d index space: True iff square-free."""
    if d == 1:
        return np.ones(p, dtype=bool)
    if d == 2:
        # x^2 + s_1 x + s_0 has a repeated root iff s_0 = s_1^2 / 4
        s1 = np.arange(p, dtype=np.int64)
        mask = np.ones(p * p, dtype=bool)
        mask[s1 * p + s1 * s1 % p * pow(4, -1, p) % p] = False
        return mask
    total = p**d
    check_ops(total * d * d * 8, budget, "square-free scan")
    modulus = PrimeModulus(p)
    mask = np.zeros(total, dtype=bool)
    for i in range(total):
        mask[i] = is_squarefree(poly_from_index(d, modulus, i))
    return mask
