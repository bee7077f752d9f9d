"""The mixer kernel: exp(-i*beta*X) on every qubit of a (B, D) stack of registers, as real block passes between two
buffers, on the full color register or on the color-swap half register that DIAGONAL circuits run on.

The frame.  With G = diag((-i)**popcount(z)) over the register's qubits, RX(beta) on every qubit is G R G, where R is
[[cos, sin], [sin, -cos]] on every qubit: real.  The plans hold phi = G**-1 psi, so the mixer proper is R alone, and the
simulator folds the G factors into its phase layers (see its module docstring).  An entry (j, k) of R on w qubits is
cos**(w-h) * sin**h * (-1)**popcount(j & k), h = Hamming(j, k): one table of the products cos**a * sin**b, a and b up
to the widest block's width, is built for all betas at once by np.float_power, which calls libm's pow as Python's **
does, and every kind gathers its entries from it with their signs, bit for bit Python's
c ** (w - h) * s ** h * (-1) ** popcount(j & k).

A block pass is one real matmul over the complex stack viewed as floats: the register's qubits plus a re/im bit at the
bottom.  It reads its bits contiguously from the top and writes them transposed to the bottom of the other buffer, so a
mixer ends on the bit order it began with, and its last block holds the re/im bit: R on its qubits, times the 2x2
identity.

On the half register (see the simulator module), with y on top, the mixer is R on its 2n - 1 qubits after vertex 0's
low-bit RX, which in the frame reads phi(y) <- cos * phi(y) + kappa * (-1)**popcount(y) * sin * phi(y complemented),
kappa = (-i)**(2 - n).  For even n kappa is real, and that color swap folds into the first block while y fits in it; for
odd n (kappa = +-i), or a wider y, it is a complex pass of its own, before the blocks.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np

_UNITS = (1, -1j, -1, 1j)  # (-i)**k, k mod 4
# The swap pass's runs (2**n entries) from which it sets numpy's ufunc buffer to one run: shorter, the buffer's chunks
# cost more than numpy's own buffer, which a stack of at most 8,192 entries bounds (n = 3 and 5: 3-4 us a pass).
_LONG_RUN = 64
# Per k = popcount mod 4, the frame's factor G = (-i)**k and its square G**2 = (-1)**k.
_FRAME_UNITS = np.array([_UNITS, [u * u for u in _UNITS]])


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _popcounts(qubits: int) -> np.ndarray:
    """popcount(z) mod 4 for z < 2**qubits, as uint8: the power of -i in the frame's factor of z."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(qubits):
        counts = np.concatenate([counts, (counts + 1) & 3])
    return counts


@contextlib.contextmanager
def _ufunc_buffer(entries: int):
    """numpy's ufunc buffer at entries (16 at least) while the block runs.  A ufunc whose contiguous runs are shorter
    than its buffer (8,192 entries by default) allocates that buffer on every call; one run long, it allocates none."""
    old = np.setbufsize(max(16, entries))
    try:
        yield
    finally:
        np.setbufsize(old)


def _frame(rows: np.ndarray, qubits: int) -> np.ndarray:
    """Multiply entry z of each row of a stack by the frame's factor (-i)**popcount(z mod 2**qubits) in place: by the
    factors of its high and of its low qubits, two passes over tables of about 2**(qubits / 2) entries."""
    low, units = qubits // 2, _FRAME_UNITS[0]
    view = rows.reshape(len(rows), -1, 1 << qubits - low, 1 << low)
    with _ufunc_buffer(1 << low):  # runs of 2**low entries
        view *= units.take(_popcounts(qubits - low))[:, None]
        view *= units.take(_popcounts(low))
    return rows


def _mixer_layout(n: int, half: bool) -> list[tuple[int, int, int]]:
    """Kinds (q, m, tail) of an n-vertex mixer's passes, top bits first; _block_terms defines each kind.

    The register's qubits (2n, or 2n - 1 on the half register) and the re/im bit, b bits, split into as few passes as
    blocks of at most 3 bits allow for 8 < b <= 17, of at most 4 otherwise, wider blocks last.  Measured on one core
    with a 2 MiB L2: to b = 8 a pass costs mostly its call (G4: two 16x16 passes, 2x faster than three); to b = 17 the
    two buffers fit in L2 and the products' work counts (n=8: six passes, 13% faster than five); above, the passes are
    memory-bound (n=10: five 16x16 passes, 5% faster than six).  A block is (q, -1, tail): R on q qubits, over the
    re/im bit too when tail = 1 (the last).  On the half register the color swap folds into the first block, (q, n - 1,
    tail), for even n while y, the top n - 1 qubits, fits in it; else it is a pass (0, n - 1, 0) before the blocks.
    """
    bits = 2 * n - half + 1
    passes = -(-bits // (3 if 8 < bits <= 17 else 4))
    widths = [bits // passes + (k >= passes - bits % passes) for k in range(passes)]
    kinds = [(w, -1, 0) for w in widths[:-1]] + [(widths[-1] - 1, -1, 1)]
    if not half:
        return kinds
    if n % 2 == 0 and n - 1 <= kinds[0][0]:
        return [(kinds[0][0], n - 1, kinds[0][2])] + kinds[1:]
    return [(0, n - 1, 0)] + kinds


@functools.cache
def _block_terms(q: int, m: int, tail: int, top: int) -> tuple[np.ndarray | None, np.ndarray]:
    """A block kind's pairs of signed terms that a folded kind sums (None on the others), and the gather of its matrix
    entries from the signed terms (or sums) of a layout whose widest block is top wide.

    Signed term a * (top + 1) + b + (top + 1)**2 * neg is (-1)**neg * cos**a * sin**b, and 2 * (top + 1)**2 is 0.0.
    (0, m, 0) is the color swap's (real, imaginary) pairs: cos, then per y = 0..2**m-1 kappa * (-1)**popcount(y) * sin,
    kappa = (-i)**(1 - m), each with its other part 0.0.  (q, -1, 0) is R on q qubits, w = q: entry (j, k) is the term
    with a = w - h, b = h, h = Hamming(j, k), negative when popcount(j & k) is odd.  (q, m, tail) with m >= 0 is R
    times the color swap, which acts first, on y, its top m qubits: w = q + 1, and entry (j, k) is the sum of that term
    (now times cos) and, with k' = k with y complemented, the term with h = 1 + Hamming(j, k') times kappa's sign, y's
    parity in k' and popcount(j & k')'s.  tail = 1 adds the re/im bit below: entry (j, k) is 0.0 where j and k differ in
    bit 0, else the entry (j >> 1, k >> 1).
    """
    width, side = q + (m >= 0), top + 1
    zero = 2 * side * side

    def signed(h: int, negative: bool) -> int:
        return (width - h) * side + h + side * side * negative

    kappa = _UNITS[(1 - m) % 4]
    if not q:
        sines = [signed(1, (-1) ** _popcount(y) * (kappa.real + kappa.imag) < 0) for y in range(1 << m)]
        return None, np.array([(signed(0, False), zero)] + [(zero, s) if kappa.imag else (s, zero) for s in sines])

    def entry(j: int, k: int) -> tuple[int, ...]:
        terms = (signed(_popcount(j ^ k), _popcount(j & k) % 2),)
        if m >= 0:
            swapped = k ^ ((1 << m) - 1) << (q - m)
            sign = kappa.real * (-1) ** (_popcount(swapped >> (q - m)) + _popcount(j & swapped))
            terms += (signed(1 + _popcount(j ^ swapped), sign < 0),)
        return terms

    size = 1 << q + tail
    codes = [[entry(j >> tail, k >> tail) if not (j ^ k) & tail else (zero,) * (1 + (m >= 0)) for k in range(size)]
             for j in range(size)]
    sums = None
    if m >= 0:
        pairs = sorted({code for row in codes for code in row})
        sums, codes = np.array(pairs).T, [[pairs.index(code) for code in row] for row in codes]
    else:
        codes = [[code for code, in row] for row in codes]
    return sums, np.array(codes)


def _mixer_blocks(betas: np.ndarray, layout: list[tuple[int, int, int]]) -> list[np.ndarray]:
    """Per distinct kind of a mixer layout, in first-use order, its (*betas.shape, ...) real matrices (or swap terms).

    Every block kind gathers from one table of signed terms, cos**a * sin**b for a, b up to the widest block's width.
    take, unlike an index gather, keeps the beta axes outermost, so every matrix of a stack takes a lone matrix's BLAS
    path.
    """
    betas = np.asarray(betas)[..., None]
    cos, sin = np.cos(betas), np.sin(betas)
    kinds = list(dict.fromkeys(layout))
    exponents = np.arange(1.0 + max(q + (m >= 0) for q, m, _ in kinds))
    terms = np.float_power(cos, exponents)[..., :, None] * np.float_power(sin, exponents)[..., None, :]
    terms = terms.reshape(*cos.shape[:-1], -1)
    table = np.concatenate([terms, -terms, np.zeros_like(cos)], axis=-1)
    blocks = []
    for q, m, tail in kinds:
        sums, gather = _block_terms(q, m, tail, exponents.size - 1)
        if not q:  # the swap's complex terms, (..., 1 + 2**m, 1)
            blocks.append(table[..., 0, :].take(gather, axis=-1).view(complex))
        elif sums is None:
            blocks.append(table.take(gather, axis=-1))
        else:
            blocks.append((table.take(sums[0], axis=-1) + table.take(sums[1], axis=-1)).take(gather, axis=-1))
    return blocks


def _mix_passes(state: np.ndarray, scratch: np.ndarray, layout: list[tuple[int, int, int]]) -> list[tuple]:
    """Per pass of a mixer layout on a complex (B, D) stack that starts in state: (k, src, dst, swap), k its matrices'
    place.

    A block pass reads its bits contiguously from the top of src, viewed as floats, and writes them transposed to the
    bottom of dst, so the blocks end on the starting bit order; a leading axis holds GATE's ancillas.  The swap pass
    works in place on its complex (B, 2**m, rest) view, with dst as a temporary.
    """
    rows, kinds, bits, passes = len(state), list(dict.fromkeys(layout)), sum(q + t for q, _, t in layout), []
    for kind in layout:
        q, m, tail = kind
        if not q:
            src = state.reshape(rows, 1 << m, -1)
            passes.append((kinds.index(kind), src, scratch.reshape(src.shape), True))
            continue
        size, rest = 1 << q + tail, 1 << bits - q - tail
        dst = scratch.view(float).reshape(rows, -1, rest, size).swapaxes(2, 3)
        passes.append((kinds.index(kind), state.view(float).reshape(rows, -1, size, rest), dst, False))
        state, scratch = scratch, state
    return passes


def _mix(state: np.ndarray, scratch: np.ndarray, matrices: list, passes: list) -> tuple:
    """Mix a (B, D) stack in the frame by its per-kind matrices over its _mix_passes: (mixed, free)."""
    for k, src, dst, swap in passes:
        if swap:  # phi(y) <- cos * phi(y) + kappa * (-1)**popcount(y) * sin * phi(y complemented): y's axis reversed
            with _ufunc_buffer(src.shape[-1]) if src.shape[-1] >= _LONG_RUN else contextlib.nullcontext():
                np.multiply(src[:, ::-1], matrices[k][..., 1:, :], out=dst)
                src *= matrices[k][..., :1, :]
                src += dst
        else:
            np.matmul(matrices[k], src, out=dst)
            state, scratch = scratch, state
    return state, scratch


def _half_view(stack: np.ndarray, n: int, low: int = 0) -> np.ndarray:
    """View of a (B, 4**n) stack's entries whose vertex-0 low bit is low, one axis per bit in the half register's
    order: y (the low bits of vertices n-1..1), then the high bits of vertices n-1..0."""
    bits = stack.reshape(len(stack), *(2,) * (2 * n))[..., low]
    return bits.transpose(0, *range(2, 2 * n - 1, 2), *range(1, 2 * n, 2))
