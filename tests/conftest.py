import warnings
from fractions import Fraction

import numpy as np
import pytest

from kaenmaki import AffineMap2D, MapKind, encode_tau, make_spec, product_signature
from kaenmaki.coding import as_word
from kaenmaki.errors import DegenerateSystemWarning, InternalMismatch, SOutOfRange
from kaenmaki.thermo import PotentialIndex, _log_phi_from_alphas, _weight_vector, expand_levels

EX1_JSON = """
{"maps": [{"kind": "diag", "a": 0.3333333333333333, "b": 0.2, "tx": 0, "ty": 0},
          {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.5, "ty": 0.5}],
 "s": null}
""".replace(', "s": null', "")


def diag(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.DIAGONAL, a=a, b=b, tx=tx, ty=ty)


def anti(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.ANTI_DIAGONAL, a=a, b=b, tx=tx, ty=ty)


@pytest.fixture(scope="session")
def ex1():
    """d=2, l=2 reference system: one diagonal, one anti-diagonal map."""
    return make_spec([diag(1 / 3, 1 / 5, 0.0, 0.0), anti(1 / 4, 1 / 5, 0.5, 0.5)])


def uniform_spec(d, c, n_anti=1):
    """d maps with all ratios equal to c, placed on a disjoint diagonal strip."""
    maps = []
    step = (1.0 - c) / max(d - 1, 1)
    for k in range(d):
        t = k * step
        kind = anti if k >= d - n_anti else diag
        maps.append(kind(c, c, t, t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        return make_spec(maps)


@pytest.fixture(scope="session")
def uniform2():
    """d=2, all ratios 1/3; separated; closed forms apply."""
    return uniform_spec(2, 1 / 3)


@pytest.fixture(scope="session")
def uniform4():
    """d=4, all ratios 1/2: the pressure root sits exactly at 2."""
    return uniform_spec(4, 1 / 2)


@pytest.fixture(scope="session")
def central_fixture():
    """First map's fixed point is centered on its primary side (all dyadic)."""
    return make_spec([diag(0.5, 1 / 3, 0.25, 0.0), anti(0.25, 0.25, 0.0, 2 / 3)])


def random_spec(rng, d=None):
    """A valid random system; at least one diagonal map has a != b."""
    d = int(d if d is not None else rng.integers(2, 4))
    n_diag = int(rng.integers(1, d))
    maps = []
    for k in range(d):
        a = float(rng.uniform(0.15, 0.45))
        b = float(rng.uniform(0.15, 0.45))
        if k == 0:
            while abs(a - b) < 0.02:
                b = float(rng.uniform(0.15, 0.45))
        tx = float(rng.uniform(0.0, 1.0 - a))
        ty = float(rng.uniform(0.0, 1.0 - b))
        maps.append(diag(a, b, tx, ty) if k < n_diag else anti(a, b, tx, ty))
    return make_spec(maps)


def rho_symbol(i, d):
    """Shift-by-d involution on {1..2d}."""
    return (i + d - 1) % (2 * d) + 1


def compose_loop(spec, w):
    """(log_p, log_q, parity, x, y) of a word by one scalar pass per letter.

    Left to right for the row magnitudes (with even parity a letter adds
    (log a, log b) to the rows, with odd parity (log b, log a)) and right to
    left for the image of the square's centre: the reference for the batch
    kernel coding.signature_arrays.
    """
    log_p = log_q = 0.0
    odd = False
    for i in w:
        m = spec.map(int(i))
        la, lb = np.log(m.a), np.log(m.b)
        log_p, log_q = (log_p + lb, log_q + la) if odd else (log_p + la, log_q + lb)
        odd ^= m.anti
    x, y = 0.5, 0.5
    for i in reversed(w):
        m = spec.map(int(i))
        x, y = (m.a * y + m.tx, m.b * x + m.ty) if m.anti else (m.a * x + m.tx, m.b * y + m.ty)
    return log_p, log_q, odd, x, y


def log_svf_phi(spec, s, w):
    """log phi^s(w) of one word, computed two ways with mandatory agreement.

    Route one uses the singular values of the product signature (Falconer's
    definition); route two takes the larger of the two Birkhoff weight sums
    along the tau lift.  Disagreement beyond 1e-12 in log raises
    InternalMismatch.  Route one is returned: the per-word reference for the
    closed forms and level kernels of thermo.
    """
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    w = as_word(w, spec.d)
    sig = product_signature(w, spec)
    via_svd = _log_phi_from_alphas(sig.log_alpha1, sig.log_alpha2, s)
    coded = np.asarray(encode_tau(w, spec).symbols) - 1
    via_birkhoff = max(float(_weight_vector(spec, s, t)[coded].sum()) for t in PotentialIndex)
    if abs(via_svd - via_birkhoff) > 1e-12 * max(1.0, abs(via_svd)):
        raise InternalMismatch(
            f"phi routes disagree: {via_svd!r} vs {via_birkhoff!r} for word {w}")
    return float(via_svd)


def level_signature_logs(spec, n):
    """(log_alpha1, log_alpha2) over all d^n words in lexicographic order."""
    *_, (log_p, log_q, _) = expand_levels(spec, n)
    return np.maximum(log_p, log_q), np.minimum(log_p, log_q)


def subadditive_pressure_bruteforce(spec, s, n):
    """(1/n) log sum of phi^s over all words of length n.

    An upper approximant P_n of the pressure P: submultiplicativity of phi
    gives P <= P_n and P_kn <= P_n for every k >= 1, and the bias P_n - P is
    of order 1/n.  P_n need not decrease from n to n + 1; for example
    diag(0.015, 0.05) with anti(0.58, 0.43) at s = 0.9 has
    P_2 = -0.5053 < P_3 = -0.4762.  The independent upper bound for the
    spectral pressure.
    """
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    log_phi = _log_phi_from_alphas(*level_signature_logs(spec, n), s)
    m = log_phi.max()
    return float((m + np.log(np.exp(log_phi - m).sum())) / n)


def all_words(d, n):
    """(d^n, n) matrix of all words of length n over 1..d, lexicographic."""
    idx = np.arange(d ** n)
    cols = [(idx // d ** (n - 1 - k)) % d + 1 for k in range(n)]
    return np.column_stack(cols).astype(np.int64)


def csv_text_loop(points, words):
    """The x,y,word CSV text with one f-string per row: the reference for
    sampling.csv_lines (repr of each coordinate; the word's digits, joined by
    '-' when some symbol of the set has two digits)."""
    sep = "-" if words.max() >= 10 else ""
    rows = ["x,y,word\n"]
    for point, word in zip(points, words):
        x, y = point.tolist()
        rows.append(f"{x!r},{y!r},{sep.join(map(str, word.tolist()))}\n")
    return "".join(rows)


def grid_spec(d, n_anti, seed=0):
    """d maps, one per cell of the ceil(sqrt d) grid, the last n_anti anti-diagonal."""
    rng = np.random.default_rng(seed)
    g = int(np.ceil(np.sqrt(d)))
    maps = []
    for k in range(d):
        cx, cy = divmod(k, g)
        a, b = rng.uniform(0.2, 0.9, 2) / g
        kind = anti if k >= d - n_anti else diag
        maps.append(kind(float(a), float(b), cx / g, cy / g))
    return make_spec(maps)


def dense_transition(d, l):
    """The 2d x 2d 0/1 transition matrix on the doubled alphabet, row by row:
    state i is followed by the unshifted symbols when i <= l - 1 or i >= d + l,
    and by the shifted ones otherwise.  The reference for coding.transition_matrix."""
    entries = np.zeros((2 * d, 2 * d), dtype=np.int64)
    for i in range(1, 2 * d + 1):
        if i <= l - 1 or i >= d + l:
            entries[i - 1, :d] = 1
        else:
            entries[i - 1, d:] = 1
    return entries


def dense_stochastic(g):
    """The 2d x 2d transition matrix of a Gibbs chain from its eigendata:
    P(i,j) = T(i,j) r(j) / (lambda r(i)), each row of T(i,.) r normalized to sum 1."""
    A = dense_transition(g.d, g.l)
    x = np.where(A == 1, (g.weights + g.log_right)[None, :], -np.inf)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def chain_matrix(g):
    """The 2d x 2d transition matrix of a Gibbs chain spelled out from its two
    log rows: P(i,j) = exp(log_rows.ravel()[j-1]) where i may be followed by j."""
    return dense_transition(g.d, g.l) * np.exp(g.log_rows.ravel())[None, :]


def separation_oracle(spec):
    """(min_gap, failing_pair) of the level-1 rectangles in exact rationals: the
    sup-metric gap of every pair i < j, and the first pair in (i, j) order whose
    closed rectangles meet (gap 0), or None."""
    rects = [(Fraction(m.tx), Fraction(m.tx) + Fraction(m.a),
              Fraction(m.ty), Fraction(m.ty) + Fraction(m.b)) for m in spec.maps]
    gaps = {}
    for i, (x0, x1, y0, y1) in enumerate(rects):
        for j, (u0, u1, v0, v1) in enumerate(rects[i + 1:], start=i + 1):
            gaps[i + 1, j + 1] = max(x0 - u1, u0 - x1, y0 - v1, v0 - y1, Fraction(0))
    return min(gaps.values()), next((p for p, g in gaps.items() if g == 0), None)


def projection_ssc_oracle(spec):
    """Per-state separation in exact rationals: for every state i of the doubled
    alphabet, the closed x-intervals of all its successors j (dense_transition)
    are pairwise disjoint; [tx, tx + a] for unshifted j, [ty, ty + b] for shifted."""
    d = spec.d
    ivs = [(Fraction(m.tx), Fraction(m.tx) + Fraction(m.a)) for m in spec.maps] \
        + [(Fraction(m.ty), Fraction(m.ty) + Fraction(m.b)) for m in spec.maps]
    T = dense_transition(d, spec.l)
    for i in range(2 * d):
        kids = [ivs[j] for j in range(2 * d) if T[i, j]]
        for k, (lo1, hi1) in enumerate(kids):
            for lo2, hi2 in kids[k + 1:]:
                if not (hi1 < lo2 or hi2 < lo1):
                    return False
    return True
