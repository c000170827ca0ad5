"""Symbolic coding on the doubled alphabet.

Words over {1..d} index compositions of the planar maps.  Because every
composed linear part is again diagonal or anti-diagonal, a word is fully
described by three numbers: the magnitudes of the nonzero top-row and
bottom-row coefficients of the product (tracked in log space) and the parity
of the number of anti-diagonal factors.  Here words are composed by
prepending letters: level_table lists all words of one length (with sums
along their lifts when asked), and signature_arrays gathers a batch's
trailing columns from that table and composes only the leading ones row by
row, in cache-sized blocks of rows, each in its suffix's frame (coordinates
swapped at odd parity), where a prepended letter is one affine step per
coordinate with no select.
product_signature is one signature_arrays row.  The doubled alphabet
{1..2d} additionally records, per position, whether the composition so far
preserves the coordinate axes: the lift tau (tau_arrays; encode_tau for one
word) shifts a symbol by d exactly when the preceding composition is
anti-diagonal.  A state of row class 0 is followed by every unshifted
symbol, one of class 1 by every shifted one, so the 0/1 row-class vector
stands for the 2d x 2d 0/1 transition matrix of the subshift.  Every tau
lift is admissible in it, and it is mixing for every system with both map
kinds.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadShape
from .ifs import IfsSpec

Word = tuple[int, ...]

# rows per block of signature_arrays' row-by-row pass: 256 kB per float column
ROW_BLOCK = 1 << 15


def as_word(symbols, d: int) -> Word:
    """Validate and normalize a word over {1..d}."""
    w = tuple(int(x) for x in symbols)
    if len(w) == 0:
        raise ValueError("word must be nonempty")
    if any(x < 1 or x > d for x in w):
        raise ValueError(f"word symbols must lie in 1..{d}: {w}")
    return w


@lru_cache(maxsize=64)
def transition_matrix(d: int, l: int) -> np.ndarray:
    """The row class of each state of the doubled alphabet, as a read-only 0/1 vector.

    State i may be followed by j exactly when row_class[i-1] == (j > d):
    class 0 (i in {1..l-1} u {d+l..2d}) by the d unshifted symbols, class 1
    (i in {l..d+l-1}) by the d shifted ones.  These are the only two rows of
    the 2d x 2d 0/1 transition matrix.
    """
    if not (1 < l <= d):
        raise BadShape(f"need 1 < l <= d, got d={d}, l={l}")
    row_class = np.repeat([0, 1, 0], [l - 1, d, d - l + 1])
    row_class.setflags(write=False)
    return row_class


def check_mixing(row_class: np.ndarray) -> bool:
    """True when the square of the transition matrix is positive everywhere.

    In two steps a class-c state reaches the halves named by the classes in
    half c, so T^2 > 0 exactly when each half holds both classes.  For
    1 < l <= d each does: its diagonal and anti-diagonal symbols differ in class.
    """
    d = len(row_class) // 2
    return all(0 < row_class[h * d:(h + 1) * d].sum() < d for h in (0, 1))


# Unused in src/: perfbench/spans.py traces encode_tau and product_signature by
# name, so `run.py --trace 1` needs them.
def encode_tau(w, spec: IfsSpec) -> tuple[int, ...]:
    """The tau lift of one word, as a tuple over 1..2d: one tau_arrays row."""
    return tuple(int(x) for x in tau_arrays(np.array([as_word(w, spec.d)]), spec)[0])


def product_signature(w, spec: IfsSpec) -> tuple[float, float, int]:
    """(log_p, log_q, parity) of one word: one signature_arrays row."""
    log_p, log_q, parity, _, _ = signature_arrays(np.array([as_word(w, spec.d)]), spec)
    return float(log_p[0]), float(log_q[0]), int(parity[0])


# -- vectorized helpers -------------------------------------------------------
#
# Words are passed as an (N, n) integer array with values in 1..d, of any
# integer dtype that holds 2d (the sampler's words are uint8 for d <= 127).

def level_table(spec: IfsSpec, k: int, rest=None, first=None):
    """(log_p, log_q, parity, x, y, sums) of all d^k words of length k, lexicographic.

    The table grows from the empty word by signature_arrays' prepend step with
    a (d, 1) letter column, so the new letter is the most significant base-d
    digit; parity is boolean.  Given rest, a (K, 2d) stack of tables over the
    doubled alphabet, sums[i, e] (shape (K, 2, d^k)) is the sum along each
    word's tau lift started at parity e of first[i] (default rest[i]) at the
    first symbol and rest[i] at the others.  Prepending letter j flips the
    start parity of the rest of the word when j is anti-diagonal, so with
    T = first in the last step and rest before it,
    S_e(j w) = T[j + d e] + S_(e xor anti_j)(w), from S_e(empty word) = 0.
    """
    a, b, tx, ty = (v[:, None] for v in (spec.a, spec.b, spec.tx, spec.ty))  # letter columns
    la, lb, swap = np.log(a), np.log(b), np.arange(spec.d)[:, None] >= spec.l - 1
    log_p, log_q, x, y = np.zeros(1), np.zeros(1), np.full(1, 0.5), np.full(1, 0.5)
    parity = np.zeros(1, dtype=bool)
    sums = None if rest is None else np.zeros((len(rest), 2, 1))
    for step in range(k):
        x, y = (a * np.where(swap, y, x) + tx).ravel(), (b * np.where(swap, x, y) + ty).ravel()
        log_p, log_q = ((la + np.where(swap, log_q, log_p)).ravel(),
                        (lb + np.where(swap, log_p, log_q)).ravel())
        parity = (parity ^ swap).ravel()
        if sums is not None:
            t = first if first is not None and step == k - 1 else rest
            sums = (t.reshape(len(t), 2, -1, 1)
                    + np.where(swap, sums[:, ::-1, None], sums[:, :, None])).reshape(len(t), 2, -1)
    return log_p, log_q, parity, x, y, sums


def signature_arrays(words: np.ndarray, spec: IfsSpec):
    """Per-row (log_p, log_q, parity, x, y) for a batch of words.

    One right-to-left pass composes each word: prepending letter j to a
    product with row magnitudes (p, q) gives (a_j p, b_j q) when map j is
    diagonal and (a_j q, b_j p) when it is anti-diagonal, whatever the parity
    of the product.  log_p and log_q are the logs of the top-row and
    bottom-row magnitudes, parity is the number of anti-diagonal letters mod 2
    (0 or 1), and (x, y) is the image of the square's centre (0.5, 0.5).  The
    cylinder rectangle of a row is (x, y) +- (p, q) / 2.  An (N, 0) batch
    gives the identity.  The last k columns, with k the largest value such
    that d^k <= N (and k <= n), are gathered from level_table by the base-d
    index of the row's suffix, and only the rest run row by row, ROW_BLOCK
    rows at a time: every column over one block of rows, then the next block,
    so that a block's coordinates and keys stay in cache across the columns.
    Each row takes the same steps in the same order as in one pass over all rows.

    The pass holds each row in its suffix's frame, (x, y) and (log_p, log_q)
    swapped at odd parity.  Prepending j with new parity o is then one affine
    step per coordinate picked by (j, o), gathered by take at index 2 j + o,
    with no select.  Each value is the float the global frame's step gives, in
    another slot (IEEE * and + commute), so the result is bitwise that pass's.
    """
    words = np.asarray(words)
    n_rows, n_cols = words.shape
    d = spec.d
    k = 0
    while k < n_cols and d ** (k + 1) <= n_rows:
        k += 1
    key = np.zeros(n_rows, dtype=np.intp)
    for t in range(n_cols - k, n_cols):
        key *= d
        np.add(key, words[:, t], out=key, dtype=np.intp)  # uint64 + intp would be float
    key -= (d ** k - 1) // (d - 1)  # the 1-based digits' offset
    table = list(level_table(spec, k)[:5])  # log_p, log_q, bool parity, x, y
    _swap_rows(*table[:2], table[2])  # into the suffix's frame
    _swap_rows(*table[3:], table[2])
    # popped one at a time, so each table array is freed as soon as its rows replace it
    lu, lv, odd, u, v = (table.pop(0)[key] for _ in range(5))
    # per index 2 letter + parity of the new suffix: u's factor and term, v's, lu's and lv's terms
    a, b, tx, ty = spec.a, spec.b, spec.tx, spec.ty
    steps = np.pad(np.stack([(a, b), (tx, ty), (b, a), (ty, tx), np.log((a, b)), np.log((b, a))]),
                   ((0, 0), (0, 0), (1, 0))).transpose(0, 2, 1).reshape(6, -1)
    ops = (np.multiply, np.add) * 2 + (np.add,) * 2
    for lo in range(0, n_rows, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        key_b, odd_b, coords = key[rows], odd[rows], [c[rows] for c in (u, u, v, v, lu, lv)]
        for t in range(n_cols - k - 1, -1, -1):
            col = words[rows, t]
            odd_b ^= col >= spec.l
            np.add(col, col, out=key_b)  # 2 j fits the words' dtype, which holds 2d
            key_b += odd_b
            for op, coord, step in zip(ops, coords, steps):
                op(coord, step.take(key_b), out=coord)
    del key
    _swap_rows(lu, lv, odd)  # back to the global frame
    _swap_rows(u, v, odd)
    return lu, lv, odd.astype(np.int64), u, v


def _swap_rows(first, second, where):
    """Swap the entries of two arrays in place at the rows where ``where`` holds."""
    keep = first.copy()
    np.copyto(first, second, where=where)
    np.copyto(second, keep, where=where)


def tau_arrays(words: np.ndarray, spec: IfsSpec) -> np.ndarray:
    """The tau lift of a batch of words, as an (N, n) array over 1..2d."""
    words = np.asarray(words)
    is_anti = (words >= spec.l)
    before = np.zeros_like(words)
    before[:, 1:] = np.cumsum(is_anti[:, :-1], axis=1)
    return np.where(before % 2 == 0, words, words + spec.d)
