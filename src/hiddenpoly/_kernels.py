"""Index-based numpy scan kernels shared by charsum, reconstruct, quantum.

Candidates are addressed by index = sum_i s_i p^i (the package-wide
lexicographic order).  Row h fixes (s_1, ..., s_{d-1}) to its base-p
digits, and ``_row_offsets`` gives u_j = g(x_j) - s_0 mod p for any array
of rows, so chi(g(x_j)) = chi2[u_j + s_0] in the doubled int8 character
table chi2, the program's one evaluator of chi(g(x)).  ``chi_blocks``
(the moment sweep) gathers whole rows, the s_0 axis a slice of chi2;
``index_rows`` gathers any list of candidates: the oracle's exact answers
(f's one row), the weil-short sweep's sums and the Gram matrix's sign
rows, and ``index_sums`` (two-stage) reduces its rows against weights in
int64.  ``translate_index`` maps an index and a shift a to the index of
g(x + a).  ``_candidate_sums`` turns rows into the exact window sums of
consecutive candidates for weights in {-1, 0, 1}, and ``_scan`` hands
their blocks to one of two reductions: ``correlation_survivors``
(two-stage, the pair sweep at bound 0) keeps the sums that reach a bound,
``masked_extrema`` (brute, short, the Weil sweep) the least and largest
sum a mask selects and the indices that reach the largest.  Threads take
contiguous ranges, each reduces its blocks into a list, and ``_scan``
joins the lists in range order, so no result depends on the thread count.
``squarefree_mask`` clears every h^2 * k (deg h >= 1) that
``_square_multiples`` lists by digit convolution.  At d >= 2
``masked_extrema`` always takes the long route below, and
``correlation_survivors`` picks one of two by the window length:

- short windows (HANKEL_RATIO * m < p and p does not divide d): the scan
  runs over translation orbits.  x -> x + a keeps g monic and moves
  s_{d-1} by d*a, so every candidate is
  g0_h(x + a) + E for exactly one (h, a, E) in [0, p^(d-2)) x F_p x F_p,
  where g0_h, of index h*p, has zero x^(d-1) and constant terms.  Its
  window sums are c(h, a, E) = sum_j w_j T_h[x0 + a + j, E] with the table
  T_h[y, E] = chi2[g0_h(y mod p) + E].  A block of R consecutive a
  gathers the R + m - 1 rows of T_h it reads, at most about 2R at a time,
  then adds the +1 points' (R x p) slabs T_h[j : j + R] and subtracts the
  -1 points', in int8 when m < 2^7, int16 when m < 2^15 and int32
  otherwise, so no partial sum (at most m in magnitude) overflows.  Its
  row r is the orbit row of g0_h(x + a + r), whose index gives every
  other one: E moves s_0 by E mod p and no other digit.  The survivors,
  found in orbit order, are sorted by index at the end.
- long windows (HANKEL_RATIO * m >= p), and every window when p divides
  d (so p <= d): every sum of row h is
  c(h, s_0) = sum_u hist_h[u] * chi((u + s_0) mod p), where hist_h[u]
  sums the weights of the points with u_j = u.  So a block of rows is one
  float32 product of its (rows x p) histogram matrix with the p x p
  Hankel matrix chi2[u + s_0], copied once per scan and shared by its
  threads.  Every partial sum is an integer of magnitude at most
  sum |hist_h| <= m < 2^24, so the product is exact in any summation
  order and with any BLAS thread count.  Both reductions refuse a
  long-route window of 2^24 or more points before they read its weights.

Brute, short and the pair-identity and Weil sweeps pass m = p and take
the long route, two-stage's first sieve round (m <= 16) the short one
once p > 64.  ``check_ops`` counts p^d * m for both; the long route does
p^(d+1) multiply-adds, at most HANKEL_RATIO = 4 times that, at BLAS speed
(README has per-call times).  A long-route block holds at least
HANKEL_CELLS cells and p // HANKEL_SPLIT rows: at p = m = 3001, 100 rows
took 57 ms in blocks of 31 rows and 26-29 ms in blocks of 125 to 250,
while at p = m = 503 a masked_extrema scan peaks at p^2 * 4 bytes plus
about 0.55 MB in 32-row blocks and 4.8 MB in one block.

At d = 1 the one row is a cyclic correlation of the weights with the
character table.  Candidate s reads chi2 from t = (x0 + s) mod p, so a
run of n candidates ends at the latest at t + n = 2p - m + 1.  The window
length picks one of two routes:

- short windows (m < SLICE_BELOW = 2^7): a run of at most SLICE_RUN
  candidates is c = sum over the +1 points j of chi2[t + j : t + j + n]
  minus the same over the -1 points, added in place in int8; |c| <= m,
  so the sums are exact by construction.
- long windows: overlap-save.  A run copies its slice of chi2 into a
  float64 buffer, views it as overlapping blocks of a power-of-two length
  L >= 2m >= 256, and takes one batched real FFT, one product with the
  weights' conjugate spectrum and one inverse FFT.  The first L - m + 1
  outputs of each block are the window sums, rounded to integers, and a
  run with an output 1/4 or more from its integer raises ArithmeticError.

Two-stage's first sieve round and the Weil sweep's degree-1 sums
(m = p <= 61) take the slices, brute (m = p) and short (m = 8488 at
p = 10007) the FFT.  Measured per correlation_survivors call, p = 1000003,
+-1 weights, one core of a shared 2-core x86-64 machine, lowest process
time of several runs, ms (FFT / slices; int16 slices at m = 128):

    m = 1: 12 / 0.85,  m = 24: 14 / 1.5,  m = 64: 16 / 3.4,
    m = 127: 21 / 5.3,  m = 128: 22 / 21
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .ffield import PrimeModulus, check_int64_products, chi_table
from .limits import check_ops

# Cells (rows x points x p) per block yielded by chi_blocks: about 2^16 by
# default, small enough that a block stays in cache.  The d >= 2 short
# route sums blocks of about SCAN_CELLS candidates (R orbit rows x p)
BLOCK_CELLS = 1 << 16
SCAN_CELLS = 1 << 17
# d = 1 windows of m < SLICE_BELOW points: int8 slice sums in runs of at most
# SLICE_RUN candidates (module docstring).  Longer windows: overlap-save in
# runs of about FFT_RUN candidates, rounded to whole blocks (at least one) of
# L >= 2m >= 256 points
SLICE_BELOW = 1 << 7
SLICE_RUN = 1 << 16
FFT_RUN = 1 << 14
# d >= 2 windows with HANKEL_RATIO * m >= p: blocks of at least HANKEL_CELLS
# cells and at least p // HANKEL_SPLIT rows (module docstring)
HANKEL_RATIO = 4
HANKEL_CELLS = 1 << 14
HANKEL_SPLIT = 16


@lru_cache(maxsize=64)
def _chi2(p: int) -> np.ndarray:
    # the doubled table: chi2[b] = chi(b mod p) for b < 2p
    base = chi_table(PrimeModulus(p))
    arr = np.concatenate([base, base])
    arr.setflags(write=False)
    return arr


def _row_offsets(p: int, d: int, xs: np.ndarray):
    """Return offsets(rows), the int64 u[r, j] = g(xs[j]) - s_0 mod p for an int64 array of rows.

    Row h fixes (s_1, ..., s_{d-1}) to the base-p digits of h, so u is x^d
    plus digit * x^i for i = 1 .. d-1, added by broadcasting (at d = 1 the
    residues xs themselves).  Each of the d terms is at most a product of
    two residues: p must pass check_int64_products(p, d) and p^d fit int64.
    """
    check_int64_products(p, d)
    if p**d > np.iinfo(np.int64).max:
        raise ValueError(f"p={p} is too large for int64 candidate indices: p^{d} exceeds 2^63 - 1")
    xp = np.empty((d + 1, len(xs)), dtype=np.int64)
    xp[0], xp[1] = 1, xs
    for i in range(2, d + 1):
        xp[i] = xp[i - 1] * xp[1] % p

    def offsets(rows: np.ndarray) -> np.ndarray:
        u = np.tile(xp[d], (len(rows), 1))
        for i in range(1, d):
            u += rows[:, None] // p ** (i - 1) % p * xp[i]
        if d > 1:
            u %= p
        return u

    return offsets


def chi_blocks(p: int, d: int, xs, lo: int, hi: int, cells: int = BLOCK_CELLS):
    """Yield (h, block) covering the high-digit rows lo <= h < hi in order.

    Row h fixes (s_1, ..., s_{d-1}) to the base-p digits of h and spans the
    candidates h*p + s_0.  block[r, j, s_0] = chi(g(xs[j])) as int8 for the
    monic degree-d g of index (h + r)*p + s_0.  A block holds about
    ``cells`` cells, at least one row; p must pass check_int64_products(p, d).
    """
    offsets = _row_offsets(p, d, xs)
    # windows[b] = chi((b + s_0) mod p) for b < p
    windows = np.lib.stride_tricks.sliding_window_view(_chi2(p), p)
    step = max(1, cells // max(1, len(xs) * p))
    for h in range(lo, hi, step):
        yield h, windows[offsets(np.arange(h, min(hi, h + step), dtype=np.int64))]


def translate_index(p: int, d: int, idx, shift) -> np.ndarray:
    """Index of g(x + a) for the monic degree-d g of index idx, elementwise.

    idx and shift a broadcast against each other.  Coefficient i of
    g(x + a) is sum_{j >= i} s_j binom(j, i) a^(j - i), with s_d = 1.
    """
    check_int64_products(p)
    idx, a = np.asarray(idx, dtype=np.int64), np.asarray(shift, dtype=np.int64) % p
    s = [idx // p**j % p for j in range(d)] + [1]
    powers = [1, a]  # powers[e] = a^e mod p
    for _ in range(2, d + 1):
        powers.append(powers[-1] * a % p)
    out = np.zeros(np.broadcast_shapes(idx.shape, a.shape), dtype=np.int64)
    for i in range(d):
        ci = s[i]
        for j in range(i + 1, d + 1):
            ci = (ci + s[j] * (math.comb(j, i) % p * powers[j - i] % p)) % p
        out += ci * p**i
    return out


def _orbit_indices(p: int, first, e) -> np.ndarray:
    # index of the candidate E = e of the orbit row whose E = 0 candidate has index
    # first: E moves s_0 by e mod p and keeps the higher digits
    return first - first % p + (first + e) % p


def _index_rows(p: int, d: int, idx, offsets) -> np.ndarray:
    # index_rows with offsets = _row_offsets(p, d, xs) built by the caller
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and not (0 <= idx.min() and idx.max() < p**d):
        raise ValueError("candidate index out of range")
    rows, s0 = np.divmod(idx, p)
    u = offsets(rows)
    u += s0[:, None]
    return _chi2(p)[u]


def index_rows(p: int, d: int, idx, xs) -> np.ndarray:
    """rows[k, j] = chi(g_{idx[k]}(xs[j])) as int8, one gather of chi2 at g(x) - s_0 + s_0."""
    return _index_rows(p, d, idx, _row_offsets(p, d, xs))


def index_sums(p: int, d: int, idx, xs, weights) -> np.ndarray:
    """sums[k] = sum_j weights[j] * chi(g_{idx[k]}(xs[j])) for every index of idx, as int64.

    idx lists candidate indices in any order, repeats allowed, and xs
    residues in [0, p).  A block of about BLOCK_CELLS cells (at least one
    candidate) is one ``index_rows`` gather and one int64 product with the
    weights, whatever their dtype.
    """
    w = np.asarray(weights, dtype=np.int64)
    offsets = _row_offsets(p, d, xs)
    sums = np.empty(len(idx), dtype=np.int64)
    step = max(1, BLOCK_CELLS // max(1, len(w)))
    for k in range(0, len(idx), step):
        sums[k : k + step] = _index_rows(p, d, idx[k : k + step], offsets) @ w
    return sums


def _window_weights(p: int, x0: int, m: int, weights, long: bool) -> np.ndarray:
    # long: the window takes the long route, exact below 2^24 points (refused unread)
    if not (1 <= m <= p and 0 <= x0 < p):
        raise ValueError("window must be a contiguous run of at most p residues")
    if long and m >= 1 << 24:
        raise ValueError("the long route sums exactly only windows below 2^24 points")
    w = np.asarray(weights)
    if w.shape != (m,):
        raise ValueError("weights must match the window length")
    if not np.isin(w, (-1, 0, 1)).all():
        raise ValueError("weights must lie in {-1, 0, 1}")
    return w


def _slice_sums(p: int, plus: np.ndarray, minus: np.ndarray, t: int, n: int) -> np.ndarray:
    # c[k] = sum over j in plus of chi2[t + k + j] minus the same over minus, for k < n,
    # one in-place int8 slice add per point: exact while len(plus) + len(minus) < 2^7
    chi2 = _chi2(p)
    c = np.zeros(n, dtype=np.int8)
    for j in plus:
        c += chi2[t + j : t + j + n]
    for j in minus:
        c -= chi2[t + j : t + j + n]
    return c


def _sliding_sums(p: int, m: int, spectrum: np.ndarray, t: int, n: int) -> np.ndarray:
    # c[k] = sum_j w[j] * chi2[t + k + j] for k < n, with t + n + m - 1 <= 2p so every
    # read stays inside the doubled table.  Block b holds chi2[t + b*step :][:size]; its
    # cyclic correlation with w, spectrum = conj(rfft(w, size)), is the window sums
    # in its first step = size - m + 1 entries and wraps around in the rest
    size = 2 * (len(spectrum) - 1)
    step = size - m + 1
    buf = np.zeros((-(-n // step) - 1) * step + size)
    buf[: n + m - 1] = _chi2(p)[t : t + n + m - 1]
    spectra = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(buf, size)[::step])
    del buf  # each buffer is dropped once read: at m = p they are most of the scan's memory
    spectra *= spectrum
    y = np.fft.irfft(spectra, size)
    del spectra
    y = y[:, :step].reshape(-1)[:n]
    c = np.rint(y)
    residual = float(np.abs(np.subtract(y, c, out=y), out=y).max())
    if residual >= 0.25:
        raise ArithmeticError(f"FFT window sums {residual} off an integer at p={p}, m={m}")
    return c


def _hankel(p: int, d: int) -> np.ndarray | None:
    """The long route's float32 matrix chi2[u + s_0] for u, s_0 < p; None at d = 1."""
    if d == 1:
        return None
    return np.lib.stride_tricks.sliding_window_view(_chi2(p), p)[:p].astype(np.float32)


def _candidate_sums(
    p: int, d: int, x0: int, w: np.ndarray, lo: int, hi: int, hankel: np.ndarray | None
):
    """Yield (i, c) for runs of consecutive candidates covering lo .. hi - 1 in order.

    c[k] = sum_j w[j] * chi(g_{i+k}(x0 + j mod p)) for candidate i + k, as
    exact integers: int32 on the long route, int8 or float64 at d = 1
    (module docstring).  At d >= 2, lo and hi are multiples of p, so the
    runs are whole rows.  hankel is _hankel(p, d), built once per
    scan and shared by its threads; None at d >= 2 takes the orbit route:
    lo .. hi - 1 are positions o*p + E in orbit coordinates and the runs
    those of ``_orbit_sums``, (first, c) with an array first.
    """
    m = len(w)
    if d == 1:
        # candidate s has the sliding sum at t = (x0 + s) mod p; a run of candidates
        # reads chi2 up to t + n + m - 2, so it ends at the latest at t + n = 2p - m + 1
        if m < SLICE_BELOW:
            plus, minus, run = np.flatnonzero(w > 0), np.flatnonzero(w < 0), SLICE_RUN
        else:
            size = 1 << (2 * m - 1).bit_length()
            spectrum = np.fft.rfft(w, size)
            np.conj(spectrum, out=spectrum)
            run = max(1, FFT_RUN // (size - m + 1)) * (size - m + 1)
        while lo < hi:
            t = (x0 + lo) % p
            n = min(hi - lo, 2 * p - m + 1 - t, run)
            if m < SLICE_BELOW:
                yield lo, _slice_sums(p, plus, minus, t, n)
            else:
                yield lo, _sliding_sums(p, m, spectrum, t, n)
            lo += n
        return
    if hankel is None:
        yield from _orbit_sums(p, d, x0, w, lo // p, hi // p)
        return
    # row r of a block: hist[r, u] sums the weights of the points with
    # g(x) - s_0 = u, and c[r, s_0] = sum_u hist[r, u] * chi2[u + s_0]
    nz = w != 0  # zero weights drop out
    offsets = _row_offsets(p, d, ((x0 + np.arange(m, dtype=np.int64)) % p)[nz])
    weights = w[nz].astype(np.float64)
    step = max(1, HANKEL_CELLS // p, p // HANKEL_SPLIT)
    for h in range(lo // p, hi // p, step):
        n = min(hi // p, h + step) - h
        u = offsets(np.arange(h, h + n, dtype=np.int64))
        u += np.arange(0, n * p, p, dtype=np.int64)[:, None]
        hist = np.bincount(u.reshape(-1), np.tile(weights, n), n * p).astype(np.float32)
        yield h * p, (hist.reshape(n, p) @ hankel).astype(np.int32).reshape(-1)


def _orbit_sums(p: int, d: int, x0: int, w: np.ndarray, lo: int, hi: int):
    """Yield (first, c) for the orbit rows lo <= o < hi in order; p must not divide d.

    Orbit row o = h*p + a holds the candidates g0_h(x + a) + E for E in F_p
    (module docstring).  c[r, E] is the window sum of candidate E of orbit
    row o + r, int8, int16 or int32 by len(w), and first[r] the index of its
    candidate E = 0, g0_h(x + a + r).  A block holds about SCAN_CELLS sums:
    whole g0_h's when p^2 fits, else an even share of one g0_h's translates.
    """
    m = len(w)
    acc = np.int8 if m < 1 << 7 else np.int16 if m < 1 << 15 else np.int32
    plus, minus = np.flatnonzero(w > 0).tolist(), np.flatnonzero(w < 0).tolist()
    values = _row_offsets(p, d, np.arange(p, dtype=np.int64))  # values(hs)[r, y] = g0_h(y)
    windows = np.lib.stride_tricks.sliding_window_view(_chi2(p), p)
    step = max(1, SCAN_CELLS // p)
    run = -(-p // -(-p // step))  # translates per block within one g0_h
    # g0_h's per chunk: their values and the indices of their translates, two
    # int64 arrays of about SCAN_CELLS bytes each
    chunk = max(1, SCAN_CELLS // (8 * p))
    for h0 in range(lo // p, -(-hi // p), chunk):
        hs = np.arange(h0, min(-(-hi // p), h0 + chunk), dtype=np.int64)
        g0s, firsts = values(hs), translate_index(p, d, hs[:, None] * p, np.arange(p))
        o, end = max(lo, h0 * p), min(hi, (h0 + len(hs)) * p)
        while o < end:
            h, a = divmod(o, p)
            n = min(p - a, end - o, run)
            hn = max(1, min(step, end - o) // p) if n == p else 1
            g0 = g0s[h - h0 : h - h0 + hn]
            c = np.zeros((hn, n, p), dtype=acc)
            # table[:, i] = T_h[x0 + a + j0 + i] for the block's g0_h's: the rows that
            # window points j0 .. j1 - 1 read for translates a .. a + n - 1, at most
            # about 2 * SCAN_CELLS bytes
            span = step // hn
            for j0 in range(0, m, span):
                j1 = min(m, j0 + span)
                table = windows[g0[:, (x0 + a + np.arange(j0, j1 + n - 1)) % p]]
                for j in plus:
                    if j0 <= j < j1:
                        c += table[:, j - j0 : j - j0 + n]
                for j in minus:
                    if j0 <= j < j1:
                        c -= table[:, j - j0 : j - j0 + n]
            yield firsts[h - h0 : h - h0 + hn, a : a + n].reshape(-1), c.reshape(-1, p)
            o += hn * n


def _scan(p: int, d: int, x0: int, w: np.ndarray, rows: int, threads: int, hankel, reduce) -> list:
    # [reduce(i, c) for every run (i, c) of _candidate_sums below rows * p], joined
    # in range order from up to os.cpu_count() threads (module docstring); hankel
    # None at d >= 2 takes the orbit route, whose rows are orbit rows
    unit = p if d > 1 else 1
    n, t = rows * p // unit, max(1, min(int(threads), os.cpu_count() or 1))
    bounds = [n * k // t * unit for k in range(t + 1)]
    ranges = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]

    def run(lo: int, hi: int) -> list:
        return [reduce(i, c) for i, c in _candidate_sums(p, d, x0, w, lo, hi, hankel)]

    if len(ranges) == 1:
        return run(*ranges[0])
    with ThreadPoolExecutor(max_workers=len(ranges)) as ex:
        return [part for fut in [ex.submit(run, *r) for r in ranges] for part in fut.result()]


def correlation_survivors(
    p: int, d: int, x0: int, m: int, weights, bound: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, sums) of the candidates whose |windowed correlation| reaches bound.

    corr[i] = sum_j weights[j] * chi(g_i(x0 + j mod p)) over the window
    x0 .. x0 + m - 1 (mod p), 1 <= m <= p, with weights in {-1, 0, 1}.
    Returns the ascending i with |corr[i]| >= bound and corr[i], both int64
    (bound 0: every sum).  Only the survivors are kept.
    """
    orbit = d > 1 and HANKEL_RATIO * m < p and d % p
    w = _window_weights(p, x0, m, weights, d > 1 and not orbit)

    def reduce(i, c: np.ndarray) -> tuple:
        k = np.flatnonzero(np.abs(c) >= bound)
        sums = c.reshape(-1)[k].astype(np.int64)
        if orbit:  # orbit rows map back to indices per row: s_0 moves by E = k % p
            return _orbit_indices(p, i[k // p], k % p), sums
        return k + i, sums

    parts = _scan(p, d, x0, w, p ** (d - 1), threads, None if orbit else _hankel(p, d), reduce)
    idx, sums = np.concatenate([i for i, _ in parts]), np.concatenate([c for _, c in parts])
    if orbit:
        order = np.argsort(idx)
        idx, sums = idx[order], sums[order]
    return idx, sums


def masked_extrema(
    p: int, d: int, x0: int, m: int, weights, mask, threads: int = 1
) -> tuple[int, int, np.ndarray]:
    """(min, max, winners) of correlation_survivors' corr[i] over the i with mask[i].

    len(mask) sets the scanned indices, whole rows: a multiple of p from p
    to p^d.  min and max are ints, winners the ascending int64 indices that
    reach max.  Blocks are reduced as they stream, so no sum array exists;
    at d >= 2 the scan takes the long route, so m must be below 2^24.
    """
    w, mask = _window_weights(p, x0, m, weights, d > 1), np.asarray(mask, dtype=bool)
    n = len(mask)
    if n % p or not p <= n <= p**d:
        raise ValueError("mask must cover whole rows: a multiple of p from p to p^d")
    if not mask.any():
        raise ValueError("mask selects no candidate")

    def reduce(i: int, c: np.ndarray) -> tuple | None:
        sel = mask[i : i + len(c)]
        values = c[sel]
        if not values.size:
            return None
        top = values.max()
        k = np.flatnonzero(c == top)
        return int(values.min()), int(top), k[sel[k]] + i

    parts = [part for part in _scan(p, d, x0, w, n // p, threads, _hankel(p, d), reduce) if part]
    # blocks come in index order, so the winners do too
    top = max(hi for _, hi, _ in parts)
    winners = np.concatenate([k for _, hi, k in parts if hi == top])
    return min(lo for lo, _, _ in parts), top, winners


def _mul_rows(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # coefficient rows, lowest first, of the column-wise products a * b mod p
    out = np.zeros((len(a) + len(b) - 1, a.shape[1]), dtype=np.int64)
    for i, row in enumerate(a):
        out[i : i + len(b)] += row * b
    return np.remainder(out, p, out=out)


def _square_multiples(p: int, d: int, e: int):
    """Yield int64 index arrays listing every monic h^2 * k of degree d, deg h = e.

    Product t < p^(d - e) holds k's d - 2e free coefficients in its low
    base-p digits and h's e above them; chunks of about BLOCK_CELLS
    coefficients are convolved at once, and an index may repeat.
    """
    check_int64_products(p, d + 1)
    c, powers = d - 2 * e, p ** np.arange(d, dtype=np.int64)
    step = max(1, BLOCK_CELLS // (d + 1))
    for lo in range(0, p ** (d - e), step):
        t = np.arange(lo, min(p ** (d - e), lo + step), dtype=np.int64)
        # k's c + 1 coefficients, then h's e + 1, each with its leading 1
        k, h = np.split(np.insert(t // powers[: d - e, None] % p, [c, d - e], 1, axis=0), [c + 1])
        yield powers @ _mul_rows(p, _mul_rows(p, h, h), k)[:d]


def squarefree_mask(p: int, d: int, budget: int | None = None) -> np.ndarray:
    """Boolean mask over the monic degree-d index space: True iff square-free.

    g is not square-free iff g = h^2 * k, deg h = e >= 1 (over F_p too: G^p
    is a square), so the mask clears e = 1 .. d // 2, d^2 ops per product.
    """
    check_ops(d * d * sum(p ** (d - e) for e in range(1, d // 2 + 1)), budget, "square-free mask")
    mask = np.ones(p**d, dtype=bool)
    for idx in (i for e in range(1, d // 2 + 1) for i in _square_multiples(p, d, e)):
        mask[idx] = False
    return mask
