"""Symbolic coding on the doubled alphabet.

Words over {1..d} index compositions of the planar maps.  Every composed linear
part is again diagonal or anti-diagonal, so a word is fully described by the
logs (log_p, log_q) of its product's top-row and bottom-row magnitudes and the
parity of its anti-diagonal letters; (x, y) is the image of the square's
centre, and (x, y) +- (p, q) / 2 the word's cylinder rectangle.

Words are composed by prepending letters with one step, on cells held in their
word's frame: (u, v) = (x, y) and (lu, lv) = (log_p, log_q), both pairs swapped
at odd parity.  Prepending letter j with new parity o = parity xor (j >= l) is
one affine step per coordinate picked by (j, o), with no select:
u' = (o ? b_j : a_j) u + (o ? ty_j : tx_j), lu' = lu + log(o ? b_j : a_j), and
v, lv likewise with a, b and tx, ty exchanged.  A sum S_e(w) of a table T over
the doubled alphabet along w's tau lift from parity e is held as
R_f(w) = S_(f xor parity)(w), so R_f(j w) = T[j - 1 + d (f xor o)] + R_f(w).
Each value is the global frame step's float, in another slot (IEEE * and +
commute).  level_table lists all words of each length up to k from one walk;
signature_arrays gathers a batch's trailing columns from the same frame-held
walk's last level and prepends the rest row by row, leaving the frame at the end.

The doubled alphabet {1..2d} records, per position, whether the composition so
far preserves the axes: the lift tau (tau_arrays; encode_tau for one word)
shifts a symbol by d exactly when the preceding composition is anti-diagonal.
A state of row class 0 is followed by every unshifted symbol, one of class 1
by every shifted one, so the 0/1 row-class vector stands for the 2d x 2d 0/1
transition matrix of the subshift.  Every tau lift is admissible in it, and
it is mixing for every system with both map kinds.
"""

from __future__ import annotations

from collections import deque
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


def level_table(spec: IfsSpec, k: int, rest=None) -> list:
    """The levels 0..k from one walk: entry j is (log_p, log_q, bool parity, x, y, sums)
    of all d^j words of length j, lexicographic; sums[i, e] (shape (K, 2, d^j), K = 0
    without rest) is the sum of rest[i], a (K, 2d) stack of tables over the doubled
    alphabet, along each word's tau lift started at parity e."""
    levels = list(_frame_table(spec, k, rest))  # each level's arrays are its own
    for log_p, log_q, parity, x, y, sums in levels:
        for pair in [(log_p, log_q), (x, y), *zip(sums[0::2], sums[1::2])]:
            _swap_rows(*pair, parity)  # out of the frame; S_e = R_(e xor parity)
    return [(*level[:5], level[5].reshape(-1, 2, len(level[2]))) for level in levels]


def _prepend_steps(spec: IfsSpec, tables=None) -> np.ndarray:
    """The step's coefficients at column 2 j + o (j = 0 a zero pad), one table for every
    step: u's and v's factors and terms, lu's and lv's terms, each table's R_0 and R_1 terms."""
    a, b, tx, ty, la, lb = spec.a, spec.b, spec.tx, spec.ty, np.log(spec.a), np.log(spec.b)
    halves = np.reshape(() if tables is None else tables, (-1, 2, spec.d))[:, [[0, 1], [1, 0]]]
    rows = np.concatenate([[(a, b), (tx, ty), (b, a), (ty, tx), (la, lb), (lb, la)],
                           halves.reshape(-1, 2, spec.d)]).transpose(0, 2, 1)  # [., j - 1, o]
    return np.concatenate([np.zeros((len(rows), 2)), rows.reshape(len(rows), -1)], axis=1)


def _frame_table(spec: IfsSpec, k: int, rest=None):
    """Yield level_table's levels 0..k in their frames, each as lu, lv, parity, u, v,
    then R_0, R_1 per table: level j + 1 is one step from level j, into fresh arrays."""
    letters, steps = np.arange(1, spec.d + 1)[:, None], _prepend_steps(spec, rest)
    lu, lv, odd, u, v = *np.zeros((2, 1)), np.zeros(1, bool), *np.full((2, 1), 0.5)
    sums = np.zeros((len(steps) - 6, 1))
    yield lu, lv, odd, u, v, sums
    for _ in range(k):
        odd = odd ^ (letters >= spec.l)
        key = 2 * letters + odd  # letter-major: the new letter is the most significant digit
        u, v = steps[0].take(key) * u, steps[2].take(key) * v
        u += steps[1].take(key)
        v += steps[3].take(key)
        new = steps[4].take(key), steps[5].take(key), steps[6:].take(key, axis=1)
        for t, c in zip(new, (lu, lv, sums[:, None])):
            t += c  # in place: no temporary at table size
        lu, lv, sums = new[0].ravel(), new[1].ravel(), new[2].reshape(len(sums), key.size)
        odd, u, v = odd.ravel(), u.ravel(), v.ravel()
        yield lu, lv, odd, u, v, sums


def signature_arrays(words: np.ndarray, spec: IfsSpec):
    """Per-row (log_p, log_q, parity, x, y), parity 0 or 1, of an (N, n) batch of words.

    Words are integers in 1..d of any dtype that holds 2d (the sampler's are uint8
    for d <= 127).  An (N, 0) batch gives the identity.  The last k columns, with k
    the largest value such that d^k <= N (and k <= n), are gathered from _frame_table
    by the base-d index of each row's suffix, and the rest are prepended row by row,
    ROW_BLOCK rows at a time: every column over one block of rows, then the next
    block, so that a block's coordinates and keys stay in cache across the columns.
    Each row takes the same steps in the same order as in one pass over all rows.
    """
    words = np.asarray(words)
    (n_rows, n_cols), d, k = words.shape, spec.d, 0
    while k < n_cols and d ** (k + 1) <= n_rows:
        k += 1
    key = np.zeros(n_rows, dtype=np.intp)
    for t in range(n_cols - k, n_cols):
        key *= d
        np.add(key, words[:, t], out=key, dtype=np.intp)  # uint64 + intp would be float
    key -= (d ** k - 1) // (d - 1)  # the 1-based digits' offset
    # the walk's last level, popped one array at a time: each freed once gathered
    table = list(deque(_frame_table(spec, k), maxlen=1).pop()[:5])
    lu, lv, odd, u, v = (table.pop(0).take(key) for _ in range(5))
    steps, ops = _prepend_steps(spec), (np.multiply, np.add) * 2 + (np.add,) * 2
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
    """Swap two float64 arrays' entries in place where ``where`` holds, bit for bit."""
    first, second = first.view(np.uint64), second.view(np.uint64)
    diff = first ^ second
    diff *= where
    first ^= diff
    second ^= diff


def tau_arrays(words: np.ndarray, spec: IfsSpec) -> np.ndarray:
    """The tau lift of a batch of words, as an (N, n) array over 1..2d."""
    words = np.asarray(words)
    is_anti = (words >= spec.l)
    before = np.zeros_like(words)
    before[:, 1:] = np.cumsum(is_anti[:, :-1], axis=1)
    return np.where(before % 2 == 0, words, words + spec.d)
