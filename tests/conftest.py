import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from kaenmaki import AffineMap2D, MapKind, make_spec
from kaenmaki.coding import as_word, encode_tau, product_signature
from kaenmaki.errors import (
    ConvergenceFailure,
    DegenerateSystemWarning,
    InternalMismatch,
    SOutOfRange,
    TooFewHits,
    TooLarge,
)
from kaenmaki.thermo import (
    ENUMERATION_CAP,
    PotentialIndex,
    _log_normalized,
    _log_phi_from_alphas,
    _perron,
    _side_logs,
    _weight_vector,
)

EX1_JSON = """
{"maps": [{"kind": "diag", "a": 0.3333333333333333, "b": 0.2, "tx": 0, "ty": 0},
          {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.5, "ty": 0.5}],
 "s": null}
""".replace(', "s": null', "")


def diag(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.DIAGONAL, a=a, b=b, tx=tx, ty=ty)


def anti(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.ANTI_DIAGONAL, a=a, b=b, tx=tx, ty=ty)


UNIT_SQUARE = (0.0, 1.0, 0.0, 1.0)


def map_image(m, rect):
    """Exact image (x0, x1, y0, y1) of the axis-aligned rectangle [x0, x1] x
    [y0, y1] under the map m: the axes swap first when m is anti-diagonal.
    The reference for AffineMap2D's containment check."""
    x0, x1, y0, y1 = rect
    if m.anti:
        x0, x1, y0, y1 = y0, y1, x0, x1
    return (m.a * x0 + m.tx, m.a * x1 + m.tx, m.b * y0 + m.ty, m.b * y1 + m.ty)


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


def signature_rows_reference(words, spec):
    """(log_p, log_q, parity, x, y) of a batch of words, one column at a time
    from the right over every row: the same prepend step in the same order as
    coding.signature_arrays, so its bitwise reference (compose_loop sums the
    logs left to right and agrees only to rounding)."""
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
    log_p, log_q, _ = product_signature(w, spec)
    via_svd = _log_phi_from_alphas(max(log_p, log_q), min(log_p, log_q), s)
    coded = np.asarray(encode_tau(w, spec)) - 1
    via_birkhoff = max(float(_weight_vector(spec, s, t)[coded].sum()) for t in PotentialIndex)
    if abs(via_svd - via_birkhoff) > 1e-12 * max(1.0, abs(via_svd)):
        raise InternalMismatch(
            f"phi routes disagree: {via_svd!r} vs {via_birkhoff!r} for word {w}")
    return float(via_svd)


def level_signature_logs(spec, n):
    """(log_alpha1, log_alpha2) over all d^n words in lexicographic order, each
    word composed row by row; TooLarge above the enumeration cap, before any
    level is allocated."""
    if spec.d ** n > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{n} words exceed the enumeration cap {ENUMERATION_CAP}")
    log_p, log_q, *_ = signature_rows_reference(all_words(spec.d, n), spec)
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


def bisection_root(spec):
    """(root, clamped) of the pressure by a 1e-13 bisection on (1e-9, 2]: the
    reference for the Newton search of thermo.affinity_dimension_detail, with
    the same s=2 returns, slope-relative acceptance and monotonicity check."""
    trace = []

    def p(s):
        v = _perron(_weight_vector(spec, s, PotentialIndex.ONE), spec.d, spec.l)[0]
        trace.append((s, v))
        return v

    p_two = p(2.0)
    if abs(p_two) <= 1e-12 or p_two > 0.0:
        return 2.0, p_two > 1e-12
    lo, hi = 1e-9, 2.0
    if p(lo) <= 0.0:
        raise InternalMismatch("pressure not positive near s=0")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if p(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    p_root, log_right, log_left = _perron(
        _weight_vector(spec, root, PotentialIndex.ONE), spec.d, spec.l)
    trace.append((root, p_root))
    slope = np.exp(_log_normalized(log_left + log_right)) @ _side_logs(
        spec, PotentialIndex.ONE)[0 if root < 1.0 else 1]
    if abs(p_root) > 1e-12 * max(1.0, abs(slope)):
        raise ConvergenceFailure(f"|P(s*)|={abs(p_root):.3e} above tolerance")
    by_s = sorted(trace)
    for (s1, v1), (s2, v2) in zip(by_s, by_s[1:]):
        if s2 > s1 and v2 > v1 + 1e-12:
            raise InternalMismatch(f"pressure not decreasing: P({s1})={v1}, P({s2})={v2}")
    return root, False


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


def count_fractions_reference(values, center, radii):
    """Fractions of the points within sup-distance r of center, from one pass
    over all points per center: the reference for sampling._count_fractions'
    sorted window."""
    if values.ndim == 2:
        dist = np.maximum(np.abs(values[:, 0] - center[0]),
                          np.abs(values[:, 1] - center[1]))
    else:
        dist = np.abs(values - center)
    counts = np.array([np.count_nonzero(dist <= r) for r in radii], dtype=float)
    if (counts < 50).any():
        raise TooFewHits(
            f"fewer than 50 sample hits at center {center} for the radius grid; "
            "enlarge the radii or the sample count")
    return counts / values.shape[0]


def fit_slopes_reference(values, centers, radii):
    """(slope, stderr) of the local and projected estimators, with
    count_fractions_reference for the counts."""
    log_r = np.log(np.asarray(radii, dtype=float))
    slopes = np.array([np.polyfit(log_r, np.log(count_fractions_reference(values, c, radii)),
                                  1)[0] for c in centers])
    if slopes.size == 1:
        return float(slopes[0]), 0.0
    return float(slopes.mean()), float(slopes.std(ddof=1) / np.sqrt(slopes.size))


def box_count_reference(points, scales):
    """sampling.box_count's slope with np.unique counting the occupied cells."""
    scales = np.asarray(scales, dtype=float)
    counts = []
    for sc in scales:
        ix, iy = (np.floor(col / sc).astype(np.int64) for col in points.T)
        counts.append(np.unique(ix << 32 | (iy & 0xFFFFFFFF)).size)
    return float(np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0])


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


class CodedWord(NamedTuple):
    """A word over the doubled alphabet with its admissibility decided eagerly."""

    symbols: tuple[int, ...]
    admissible: bool


def coded_word(symbols, row_class):
    """The admissibility reference: a lifted word is admissible when each symbol
    lies in the half that its predecessor's row class names."""
    syms = tuple(int(x) for x in symbols)
    d = len(row_class) // 2
    if len(syms) == 0:
        raise ValueError("coded word must be nonempty")
    if any(x < 1 or x > 2 * d for x in syms):
        raise ValueError(f"coded symbols must lie in 1..{2 * d}: {syms}")
    ok = all(row_class[x - 1] == (y > d) for x, y in zip(syms, syms[1:]))
    return CodedWord(symbols=syms, admissible=ok)


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


# a ratio of the full parameter box: log-uniform down to 1e-300, or uniform in
# [1e-3, 0.999)
BOX_RATIO = st.one_of(
    st.floats(np.log(1e-300), np.log(0.999), exclude_max=True).map(lambda x: float(np.exp(x))),
    st.floats(1e-3, 0.999, exclude_max=True))


@st.composite
def full_box_system(draw, max_d=6):
    """The maps of a system from the full parameter box: d in 2..max_d, one to
    d - 1 diagonal maps, every ratio from BOX_RATIO, and each translation
    anywhere that keeps the map's image inside the square."""
    d = draw(st.integers(2, max_d))
    n_diag = draw(st.integers(1, d - 1))
    maps = []
    for k in range(d):
        a, b = draw(BOX_RATIO), draw(BOX_RATIO)
        fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        maps.append((diag if k < n_diag else anti)(a, b, fx * (1.0 - a), fy * (1.0 - b)))
    return maps


def full_box_draw(count, seed=2027):
    """Yield ``count`` config dicts of the full-box draw: per system d in 2..6,
    one to d - 1 diagonal maps, then per map a, b, tx, ty.  Each ratio is
    log-uniform in [1e-300, 0.999) or uniform in [1e-3, 0.999), on a coin
    drawn first; each translation is uniform in the range that keeps the
    image inside the square.  The draw order fixes every count quoted for it."""
    rng = np.random.default_rng(seed)

    def ratio():
        if rng.random() < 0.5:
            return float(np.exp(rng.uniform(np.log(1e-300), np.log(0.999))))
        return float(rng.uniform(1e-3, 0.999))

    for _ in range(count):
        d = int(rng.integers(2, 7))
        n_diag = int(rng.integers(1, d))
        maps = []
        for k in range(d):
            a, b = ratio(), ratio()
            tx, ty = float(rng.uniform(0.0, 1.0 - a)), float(rng.uniform(0.0, 1.0 - b))
            maps.append({"kind": "diag" if k < n_diag else "anti",
                         "a": a, "b": b, "tx": tx, "ty": ty})
        yield {"maps": maps}


def strip_family_oracle(spec, prefix, rel_width, cap):
    """(decided, undecided) suffixes v of a strip query, in exact rationals and
    in the global frame: the reference for sampling._frame_walk.

    Maps are 2x2 matrices and translations of Fractions, composed as such.
    The strip is the part of f_w(Q) whose coordinate along its longer side
    (vertical on ties) lies within r/2 of the fixed point of f_w, with r =
    rel_width times that side.  Walking from the empty suffix, a cell
    f_wv(Q) inside the closed strip is decided, one that meets it otherwise
    is extended by every letter, and one still straddling at the cap is
    undecided.
    """
    one, zero = Fraction(1), Fraction(0)

    def compose(f, g):  # f after g
        (m, t), (n, u) = f, g
        return (tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2))
                      for i in range(2)),
                tuple(m[i][0] * u[0] + m[i][1] * u[1] + t[i] for i in range(2)))

    maps = []
    for m in spec.maps:
        a, b = Fraction(m.a), Fraction(m.b)
        maps.append((((zero, a), (b, zero)) if m.anti else ((a, zero), (zero, b)),
                     (Fraction(m.tx), Fraction(m.ty))))
    f_w = ((one, zero), (zero, one)), (zero, zero)
    for i in prefix:
        f_w = compose(f_w, maps[i - 1])
    m, t = f_w
    sides = [m[0][0] + m[0][1], m[1][0] + m[1][1]]
    c = 0 if sides[0] > sides[1] else 1
    det = (1 - m[0][0]) * (1 - m[1][1]) - m[0][1] * m[1][0]  # (I - M) z = t
    fixed = [((1 - m[1][1]) * t[0] + m[0][1] * t[1]) / det,
             (m[1][0] * t[0] + (1 - m[0][0]) * t[1]) / det]
    half = Fraction(rel_width) * sides[c] / 2
    lo_s, hi_s = fixed[c] - half, fixed[c] + half
    decided, level = [], [((), f_w)]
    for depth in range(cap + 1):
        straddling = []
        for v, (n, u) in level:
            lo, hi = u[c], u[c] + n[c][0] + n[c][1]
            if lo_s <= lo and hi <= hi_s:
                decided.append(v)
            elif hi >= lo_s and lo <= hi_s:
                straddling.append((v, (n, u)))
        level = straddling if depth == cap else [
            (v + (j + 1,), compose(f, maps[j])) for v, f in straddling for j in range(spec.d)]
    return decided, [v for v, _ in level]
