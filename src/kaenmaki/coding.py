"""Symbolic coding on the doubled alphabet.

Words over {1..d} index compositions of the planar maps.  Because every
composed linear part is again diagonal or anti-diagonal, a word is fully
described by three numbers: the magnitudes of the nonzero top-row and
bottom-row coefficients of the product (tracked in log space) and the parity
of the number of anti-diagonal factors.  signature_arrays composes batches of
words in one right-to-left pass and is the one word composer besides the
level expander in thermo.  The doubled alphabet {1..2d} additionally records, per position,
whether the composition so far preserves the coordinate axes: the lift tau
shifts a symbol by d exactly when the preceding composition is anti-diagonal.
A state of row class 0 is followed by every unshifted symbol, one of class 1
by every shifted one, so the 0/1 row-class vector stands for the 2d x 2d 0/1
transition matrix that governs admissibility of lifted words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadShape
from .ifs import IfsSpec

Word = tuple[int, ...]


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


# Unused in src/, like product_signature below: perfbench/spans.py traces encode_tau
# and product_signature by name, so `run.py --trace 1` needs them.
@dataclass(frozen=True)
class CodedWord:
    """A word over the doubled alphabet with its admissibility decided eagerly."""

    symbols: tuple[int, ...]
    admissible: bool


def coded_word(symbols, row_class: np.ndarray) -> CodedWord:
    syms = tuple(int(x) for x in symbols)
    d = len(row_class) // 2
    if len(syms) == 0:
        raise ValueError("coded word must be nonempty")
    if any(x < 1 or x > 2 * d for x in syms):
        raise ValueError(f"coded symbols must lie in 1..{2 * d}: {syms}")
    ok = all(row_class[x - 1] == (y > d) for x, y in zip(syms, syms[1:]))
    return CodedWord(symbols=syms, admissible=ok)


def encode_tau(w, spec: IfsSpec) -> CodedWord:
    """Lift a word into the doubled alphabet.

    The m-th symbol is shifted by d exactly when an odd number of the first
    m-1 letters are anti-diagonal (index >= l), i.e. when the composition so
    far swaps the axes.  The result is always admissible and starts <= d.
    """
    w = as_word(w, spec.d)
    return coded_word(tau_arrays(np.array([w]), spec)[0], transition_matrix(spec.d, spec.l))


@dataclass(frozen=True)
class ProductSignature:
    """Closed form of a product of diagonal/anti-diagonal matrices.

    log_p and log_q are the logs of the top-row and bottom-row entry
    magnitudes.  Log space is essential: words of length 100+ underflow
    doubles.  The singular values are max and min of (p, q).
    """

    log_p: float
    log_q: float
    antidiagonal_parity: bool


def product_signature(w, spec: IfsSpec) -> ProductSignature:
    log_p, log_q, parity, _, _ = signature_arrays(np.array([as_word(w, spec.d)]), spec)
    return ProductSignature(log_p=float(log_p[0]), log_q=float(log_q[0]),
                            antidiagonal_parity=bool(parity[0]))


# -- vectorized helpers -------------------------------------------------------
#
# Words are passed as an (N, n) integer array with values in 1..d, of any
# integer dtype that holds 2d (the sampler's words are uint8 for d <= 127).

def signature_arrays(words: np.ndarray, spec: IfsSpec):
    """Per-row (log_p, log_q, parity, x, y) for a batch of words.

    One right-to-left pass composes each word: prepending letter j to a
    product with row magnitudes (p, q) gives (a_j p, b_j q) when map j is
    diagonal and (a_j q, b_j p) when it is anti-diagonal, whatever the parity
    of the product.  log_p and log_q are the logs of the top-row and
    bottom-row magnitudes, parity is the number of anti-diagonal letters mod 2
    (0 or 1), and (x, y) is the image of the square's centre (0.5, 0.5).  The
    cylinder rectangle of a row is (x, y) +- (p, q) / 2.  An (N, 0) batch
    gives the identity.
    """
    words = np.asarray(words)
    n_rows, n_cols = words.shape
    la, lb = np.log(spec.a), np.log(spec.b)
    a, b = np.asarray(spec.a), np.asarray(spec.b)
    tx = np.array([m.tx for m in spec.maps])
    ty = np.array([m.ty for m in spec.maps])
    anti = np.array([m.anti for m in spec.maps])
    log_p, log_q = np.zeros(n_rows), np.zeros(n_rows)
    parity = np.zeros(n_rows, dtype=np.int64)
    x, y = np.full(n_rows, 0.5), np.full(n_rows, 0.5)
    for t in range(n_cols - 1, -1, -1):
        j = words[:, t].astype(np.intp) - 1
        swap = anti[j]
        x, y = a[j] * np.where(swap, y, x) + tx[j], b[j] * np.where(swap, x, y) + ty[j]
        log_p, log_q = la[j] + np.where(swap, log_q, log_p), lb[j] + np.where(swap, log_p, log_q)
        parity ^= swap
    return log_p, log_q, parity, x, y


def tau_arrays(words: np.ndarray, spec: IfsSpec) -> np.ndarray:
    """The tau lift of a batch of words, as an (N, n) array over 1..2d."""
    words = np.asarray(words)
    is_anti = (words >= spec.l)
    before = np.zeros_like(words)
    before[:, 1:] = np.cumsum(is_anti[:, :-1], axis=1)
    return np.where(before % 2 == 0, words, words + spec.d)
