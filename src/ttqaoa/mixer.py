"""The mixer kernel: exp(-i*beta*X) on every qubit of a (B, D) stack of registers, as block passes between two
buffers, on the full color register or on the color-swap half register that DIAGONAL circuits run on.

A block of up to four qubits takes one matmul, its matrices built for all betas at once from exponents and Hamming
gathers made at import, bit for bit Python's c ** (q - h) * s ** h: np.float_power calls libm's pow as Python does,
where np.power's SIMD loop can move a last bit.  A block pass reads its qubits contiguously from the top of the
register and writes them transposed to the bottom of the other buffer, so a mixer ends on the qubit order it began
with.

On the half register (see the simulator module), with y on top, the mixer is RX on its 2n - 1 qubits plus vertex
0's low-bit RX, which there reads psi <- cos * psi - i sin * psi with y complemented: the color swap, folded into the
first block while y fits in it (n <= 5), a pass of its own above.
"""
from __future__ import annotations

import numpy as np

from .qaoa_model import MAX_QUBITS

# Hamming distance between 4-bit block indices; its top-left corners serve the narrower blocks.
_HAMMING = np.array([[bin(j ^ k).count("1") for k in range(16)] for j in range(16)])


def _mixer_layout(n: int, half: bool) -> list[tuple[int, int]]:
    """Kinds (q, m) of an n-vertex mixer's passes, top qubits first; _block_terms defines each kind.

    Blocks of 4 qubits and a narrower last one cover the full register's 2n color qubits (two vertices a block, odd
    n's last vertex alone) or the half register's 2n - 1.  There the color swap joins the first block when y, its
    top n - 1 qubits, fits in it (n <= 5), and is a pass of its own, before the blocks, when y does not.
    """
    qubits = 2 * n - half
    widths = [4] * (qubits // 4) + [qubits % 4] * (qubits % 4 > 0)
    if half and n - 1 <= widths[0]:
        return [(widths[0], n - 1)] + [(q, -1) for q in widths[1:]]
    return [(0, n - 1)] * half + [(q, -1) for q in widths]


def _block_terms(q: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """cos's exponents w - h and -i*sin's h (h = 0..w), in their powers' dtypes, then the pairs of terms that a
    folded kind adds (None on the others) and the gather of its matrix entries from its terms (or sums).

    (q, -1) is exp(-i*beta*X) on q qubits: entry (j, k) is term h = Hamming(j, k), w = q.  (q, m) with m >= 0 folds
    the color swap into it, its top m qubits holding all of y: w = q + 1, and entry (j, k) adds term 1 + Hamming(j, k
    with y complemented), the path through vertex 0's low bit; its few distinct pairs of terms are summed, then
    gathered.  (0, m) is the swap alone: the terms cos and -i*sin of psi and of psi with its m y qubits complemented.
    """
    if q == 0:
        return 1 - np.arange(2.0), np.arange(2.0) + 0j, None, np.arange(2)
    width, hamming, sums = q + (m >= 0), _HAMMING[: 1 << q, : 1 << q], None
    if m >= 0:
        swapped = hamming[:, np.arange(1 << q) ^ ((1 << m) - 1) << (q - m)] + 1
        codes = (hamming * (width + 1) + swapped).tolist()
        pairs = sorted({code for row in codes for code in row})
        sums, hamming = np.divmod(pairs, width + 1), np.array([[pairs.index(code) for code in row] for row in codes])
    return width - np.arange(width + 1.0), np.arange(width + 1.0) + 0j, sums, hamming


_BLOCK_TERMS = {
    kind: _block_terms(*kind) for n in range(1, MAX_QUBITS // 2 + 1) for half in (False, True)
    for kind in _mixer_layout(n, half)
}


def _mixer_blocks(betas: np.ndarray, layout: list[tuple[int, int]]) -> list[np.ndarray]:
    """Per distinct kind of a mixer layout, in first-use order, its (*betas.shape, ...) matrices (or swap terms).

    Each term is cos**(w-h) * (-i*sin)**h, gathered: take, unlike an index gather, keeps the beta axes outermost, so
    every matrix of a stack takes a lone matrix's BLAS path.
    """
    betas = np.asarray(betas)[..., None]
    cos, sin = np.cos(betas), -1j * np.sin(betas)
    blocks = []
    for c, s, sums, gather in map(_BLOCK_TERMS.get, dict.fromkeys(layout)):
        terms = np.float_power(cos, c) * np.power(sin, s)
        if sums is not None:
            terms = terms.take(sums[0], axis=-1) + terms.take(sums[1], axis=-1)
        blocks.append(terms.take(gather, axis=-1))
    return blocks


def _mix_passes(state: np.ndarray, scratch: np.ndarray, layout: list[tuple[int, int]]) -> list[tuple]:
    """Per pass of a mixer layout on a (B, D) stack that starts in state: (k, src, dst, swap), k its matrices' place.

    A block pass reads its q qubits contiguously from the top of src and writes them transposed to the bottom of dst,
    so the blocks end on the starting qubit order; a leading axis holds GATE's ancillas.  The swap pass works in
    place on its (B, 2**m, rest) view, with dst as a temporary.
    """
    rows, kinds, qubits, passes = len(state), list(dict.fromkeys(layout)), sum(q for q, _ in layout), []
    for q, m in layout:
        if q == 0:
            src = state.reshape(rows, 1 << m, -1)
            passes.append((kinds.index((q, m)), src, scratch.reshape(src.shape), True))
            continue
        size, rest = 1 << q, 1 << qubits - q
        dst = scratch.reshape(rows, -1, rest, size).swapaxes(2, 3)
        passes.append((kinds.index((q, m)), state.reshape(rows, -1, size, rest), dst, False))
        state, scratch = scratch, state
    return passes


def _mix(state: np.ndarray, scratch: np.ndarray, matrices: list, passes: list) -> tuple:
    """Mix a (B, D) stack by its per-kind matrices over its _mix_passes: (mixed, free)."""
    for k, src, dst, swap in passes:
        if swap:  # psi <- cos * psi - i sin * psi with y complemented, which reverses y's axis
            np.copyto(dst, src[:, ::-1])  # a ufunc reading the reversed axis would buffer 8,192 entries
            dst *= matrices[k][..., 1:]
            src *= matrices[k][..., :1]
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
