"""Pressure, Gibbs-Markov measures, and the equilibrium measure of the system.

The singular value function of a word, phi^s, equals alpha1^s for s in (0,1)
and alpha1 * alpha2^(s-1) for s in [1,2], where alpha1 >= alpha2 are the
singular values of the composed linear part.  Its growth rate in n of
log sum over length-n words is the subadditive pressure P(s).

On the doubled alphabet, two locally constant potentials track the log
horizontal and log vertical side lengths of cylinder rectangles.  Each has a
unique Gibbs measure, realized here as the stationary Markov chain built from
the Perron eigendata of the weighted transition matrix (transfer matrix
convention: T(i,j) = A(i,j) * exp(weight_j)).  Every state is followed by one
whole half of the alphabet, so a chain is two log rows, one per row class,
and the log probability of a step depends on the symbol stepped into only.
The swap sigma of the two halves, i <-> i +- d, carries the first potential
to the second and keeps the transitions, so only m1 is solved: m2 = m1 o sigma.
The equilibrium measure nu of phi^s, nu([w]) = m1([tau(w)]) + m1([sigma(tau(w))]),
and its entropy and Lyapunov exponents all come from that one chain.

Measures and phi-values are accumulated in log space throughout; ratios are
differences of logs exponentiated at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coding import as_word, level_table, tau_arrays
from .errors import (
    BadMapKinds,
    ConvergenceFailure,
    InternalMismatch,
    SOutOfRange,
    TooLarge,
)
from .ifs import IfsSpec

ENUMERATION_CAP = 10 ** 7


def _log_phi_from_alphas(log_a1, log_a2, s: float):
    """log alpha1^s for s < 1, log(alpha1 alpha2^(s-1)) for s >= 1."""
    if s < 1.0:
        return s * log_a1
    return log_a1 + (s - 1.0) * log_a2


def _side_logs(spec: IfsSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per doubled symbol, the log side lengths playing alpha1 and alpha2 (swapped: f2)."""
    la, lb = np.log(spec.a), np.log(spec.b)
    return np.concatenate([la, lb]), np.concatenate([lb, la])


def _weight_vector(spec: IfsSpec, s: float) -> np.ndarray:
    """Log-weights w per doubled symbol of the first side-length potential, s in
    (0, 2], from _side_logs; the second potential's are w o sigma = np.roll(w, d)."""
    return _log_phi_from_alphas(*_side_logs(spec), s)


def _log_normalized(x: np.ndarray) -> np.ndarray:
    """x minus its log-sum-exp along the last axis: the log of exp(x) scaled to sum 1."""
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def _perron(w: np.ndarray, d: int, l: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Log Perron root and unnormalized log right/left eigenvectors of
    T(i,j) = A(i,j) exp(w_j), in closed form.

    A row of T allows either the unshifted symbols 1..d or the shifted ones,
    so T has rank 2 and its Perron data is that of the 2x2 matrix
    M = [[D_u, A_u], [A_s, D_s]] of summed exp(w) over the unshifted
    diagonal, unshifted anti-diagonal, shifted anti-diagonal and shifted
    diagonal symbols.  The right vector is constant on each row class (class
    two: anti-diagonal unshifted and diagonal shifted symbols); the left
    vector is exp(w_j) times M's left vector entry for j's half.  All in log
    space, so ratios near the smallest double do not underflow.
    """
    k = l - 1
    l_du, l_au, l_ds, l_as = (np.logaddexp.reduce(w[lo:hi])
                              for lo, hi in ((0, k), (k, d), (d, d + k), (d + k, 2 * d)))
    l_g = 0.5 * (l_au + l_as)  # log sqrt(A_u A_s)
    c = max(l_du, l_ds, l_g)
    du, ds = np.exp(l_du - c), np.exp(l_ds - c)
    # lambda - min(D_u, D_s) = sqrt(h^2 + A_u A_s) + |h| with h = (D_u - D_s) / 2,
    # a sum of positive terms, so it keeps full relative precision
    half_gap = 0.5 * abs(du - ds)
    l_h = np.log(half_gap) if half_gap > 0.0 else -np.inf
    l_gap = c + np.logaddexp(0.5 * np.logaddexp(2.0 * l_h, 2.0 * (l_g - c)), l_h)
    log_root = c + np.log(min(du, ds) + np.exp(l_gap - c))
    # second-half / first-half ratios of M's right and left vectors, each from
    # the eigen equation whose lambda - D term is lambda - min(D_u, D_s)
    if du >= ds:
        l_right, l_left = l_as - l_gap, l_au - l_gap
    else:
        l_right, l_left = l_gap - l_au, l_gap - l_as
    log_right = np.repeat([0.0, l_right, 0.0], [k, d, d - k])
    log_left = w + np.repeat([0.0, l_left], d)
    return float(log_root), log_right, log_left


@dataclass(frozen=True)
class MarkovGibbs:
    """Perron eigendata realizing one Gibbs measure as a stationary Markov chain.

    log_right and log_left are the unnormalized logs of the right and left
    eigenvectors r and l.  The chain steps from i to j with probability
    T(i,j) r(j) / (exp(log_pressure) r(i)), so every class-c state has the same law
    over half c: row c of log_rows, shaped (2, d).  The log probability of a
    step into 0-based symbol j is log_rows.ravel()[j], whatever the admissible
    predecessor.  log_stationary is the log of l * r normalized.  The cylinder
    mass of an admissible coded word c is stationary[c1] times the step
    probabilities into c2..cn; it obeys two-sided Gibbs bounds with the
    explicit constants whose logs log_gibbs_bounds() returns.
    """

    s: float
    d: int
    l: int
    log_pressure: float
    log_right: np.ndarray
    log_left: np.ndarray
    log_rows: np.ndarray
    log_stationary: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.log_right, self.log_left, self.log_rows,
                    self.log_stationary, self.weights):
            arr.setflags(write=False)

    @property
    def stationary(self) -> np.ndarray:
        return np.exp(self.log_stationary)

    def log_gibbs_bounds(self) -> tuple[float, float]:
        """Logs of the constants (lo, up) with lo <= m([c]) / exp(S_n f - n P) <= up.

        The cylinder formula gives the ratio exactly as
        left(c_1) exp(-weights(c_1)) * right(c_n) * root / sum(left * right),
        so the extremes of the two factors bound it.  Taken in log space: the
        normalized right vector and lo itself can underflow where logs do not.
        """
        head = self.log_left - self.weights
        shift = self.log_pressure - np.logaddexp.reduce(self.log_left + self.log_right)
        return (float(head.min() + self.log_right.min() + shift),
                float(head.max() + self.log_right.max() + shift))

    def log_cylinder_batch(self, coded: np.ndarray) -> np.ndarray:
        """log m([c]) over an (N, n) array of admissible lifts with 0-based symbols."""
        return self.log_stationary[coded[:, 0]] + self.log_rows.ravel()[coded[:, 1:]].sum(axis=1)


@lru_cache(maxsize=256)
def gibbs_markov(spec: IfsSpec, s: float) -> MarkovGibbs:
    """Build the Gibbs measure m1 of the first potential as explicit Markov chain data."""
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    w = _weight_vector(spec, s)
    log_root, log_right, log_left = _perron(w, spec.d, spec.l)
    # P(i,j) = T(i,j) r(j) / (lambda r(i)), and T(i,.) r sums to lambda r(i): the
    # row of a class-c state is exp(w + log r) on half c, normalized to sum 1
    return MarkovGibbs(
        s=s, d=spec.d, l=spec.l,
        log_pressure=log_root,
        log_right=log_right, log_left=log_left,
        log_rows=_log_normalized((w + log_right).reshape(2, spec.d)),
        log_stationary=_log_normalized(log_left + log_right), weights=w)


def pressure(spec: IfsSpec, s: float) -> float:
    """Log spectral radius of the weighted transition matrix, in closed form from
    the rank-2 structure (see _perron): the root of the cached chain
    gibbs_markov(spec, s), so P(s) is solved once per (system, s).  The second
    potential has the same root, as its matrix is conjugate by sigma."""
    return gibbs_markov(spec, s).log_pressure


@dataclass(frozen=True)
class KaenmakiMeasure:
    """The equilibrium measure nu: sum of the two lifted Gibbs measures.

    nu([w]) = m1([tau(w)]) + m2([tau(w)]) for words over the base alphabet; m2 =
    m1 o sigma has rows m1.log_rows[::-1] and law np.roll(m1.log_stationary, d).
    """

    spec: IfsSpec
    s: float
    m1: MarkovGibbs

    def log_cylinder(self, w) -> float:
        return float(self.log_cylinder_batch(np.array([as_word(w, self.spec.d)]))[0])

    @np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
    def log_cylinder_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized log nu over an (N, n) array of words (values 1..d): m1 at
        each lift and its swap, gathered as intp (i + d wraps uint8)."""
        coded = tau_arrays(words, self.spec) - 1
        sigma = np.roll(np.arange(2 * self.spec.d), self.spec.d)
        return np.logaddexp(self.m1.log_cylinder_batch(coded),
                            self.m1.log_cylinder_batch(sigma[coded]))

    def tau_start_mass(self) -> float:
        """m1-mass of coded words starting in the unshifted half."""
        return float(self.m1.stationary[:self.spec.d].sum())

    def log_betas(self) -> np.ndarray:
        """beta[t - 1, e]: log m_t([tau(w)]) = S_t(w) - nP + beta_t(e) for w of length n
        and parity e, S_t the Birkhoff sum of potential t along tau(w).  beta_1(e) =
        P - log sum(l r) + log r(class e): the step products telescope, as r is constant
        on each row class and tau starts where log_left equals the weights.  m2 = m1 o
        sigma swaps the classes and starts in m1's shifted half, where log_left - weights
        is not 0: beta_2(e) = beta_1(1 - e) + (log_left - weights)[d]."""
        m = self.m1
        shift = m.log_pressure - np.logaddexp.reduce(m.log_left + m.log_right)
        beta = shift + m.log_right[[0, m.l - 1]]
        return np.array([beta, beta[::-1] + (m.log_left - m.weights)[m.d]])

    @np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
    def log_envelope(self) -> tuple[float, float]:
        """Logs of two-sided bounds for nu([w]) / (phi^s(w) exp(-n P)) over all words:
        m2 = m1 o sigma has m1's bounds, so lo is m1's and up is m1's plus log 2."""
        lo, up = self.m1.log_gibbs_bounds()
        return lo, up + float(np.log(2.0))


@lru_cache(maxsize=64)
def kaenmaki_measure(spec: IfsSpec, s: float) -> KaenmakiMeasure:
    return KaenmakiMeasure(spec=spec, s=s, m1=gibbs_markov(spec, s))


# -- exhaustive enumeration over all words of one length ----------------------

def _guard_enumeration(spec: IfsSpec, n: int):
    if n < 1:
        raise TooLarge("word length must be >= 1")
    if spec.d ** n > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{n} words exceed the enumeration cap {ENUMERATION_CAP}")


# cells per block of a full-depth level: a few hundred kB per float array
LEVEL_BLOCK = 1 << 14


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.logaddexp(a, b) in a's buffer, as max + log1p(exp(min - max)) from numpy's
    vectorized exp and log1p (np.logaddexp's loop is scalar), to within an ulp.
    The difference is skipped where max is -inf, so two -infs give -inf quietly;
    a max with no -inf (or NaN) takes the unmasked subtraction, the same floats."""
    hi = np.maximum(a, b)
    np.minimum(a, b, out=a)
    if hi.min(initial=np.inf) > -np.inf:
        a -= hi
    else:
        np.subtract(a, hi, out=a, where=hi != -np.inf)
    np.log1p(np.exp(a, out=a), out=a)
    a += hi
    return a


def _lifted_blocks(s: float, prefixes, suffixes, combine):
    """Yield (log_phi, combine(sum1, sum2)) in lexicographic blocks of about LEVEL_BLOCK
    cells over the words u v, u and v from two coding.level_table levels with two
    tables: sum_i is the lifted sum of table i along u v.  That is a term for u plus one
    for v, as are the log sides, and odd parity after u swaps v's sides and starts v's
    lift in the shifted half: so each block pairs a run of prefixes with every suffix."""
    log_p, log_q, odd_u, _, _, heads = prefixes
    sides, tails, odd_u = np.stack(suffixes[:2]), suffixes[5], odd_u.astype(np.intp)
    per_block = max(1, LEVEL_BLOCK // sides.shape[1])
    for i in range(0, len(odd_u), per_block):
        u = slice(i, i + per_block)
        odd = odd_u[u]
        # every gather is a fresh array, so the u terms are added in place; one
        # table at a time: the mixed index tails[:, odd] gathers a strided
        # array, several times slower
        lp, lq = sides[odd], sides[1 - odd]
        lp += log_p[u, None]
        lq += log_q[u, None]
        log_phi = _log_phi_from_alphas(np.maximum(lp, lq), np.minimum(lp, lq), s)
        sum1, sum2 = tails[0][odd], tails[1][odd]
        sum1 += heads[0, 0, u, None]
        sum2 += heads[1, 0, u, None]
        yield log_phi.ravel(), combine(sum1, sum2).ravel()


def _log_nu_levels(nu: KaenmakiMeasure, max_len: int):
    """Yield level n's (log_phi, log_nu) blocks, n = 1..max_len, from one walk summing m1's and
    m2's log rows (m1's, classes swapped): their right-vector factors telescope, so log
    m_t([tau(w)]) = beta_t(0) + that sum (log_betas), of log probabilities that never cancel."""
    rows = nu.m1.log_rows.ravel()
    levels = level_table(nu.spec, max_len - max_len // 2, np.stack([rows, np.roll(rows, nu.m1.d)]))
    for n in range(1, max_len + 1):
        *prefix, heads = levels[n - n // 2]
        heads = heads + nu.log_betas()[:, :1, None]  # a copy: the level serves other n
        yield _lifted_blocks(nu.s, (*prefix, heads), levels[n // 2], _logaddexp)


def level_log_blocks(spec: IfsSpec, s: float, n: int):
    """Yield (log_phi, log_nu) over all d^n words in lexicographic blocks, each word
    a prefix of length n - n // 2 and a suffix of length n // 2 (_log_nu_levels)."""
    _guard_enumeration(spec, n)
    return list(_log_nu_levels(kaenmaki_measure(spec, s), n))[-1]


def phi_identity_check(spec: IfsSpec, s: float, max_len: int) -> tuple[float, bool]:
    """Worst log disagreement between phi^s of the side lengths and the larger
    Birkhoff sum of the two potentials along the tau lift, over the words of
    lengths 1..max_len, and whether each word agrees to 1e-12 max(1, |log phi|)
    (1e-12 is an ulp near 4700).  One block of a level at a time, both halves
    of every level from one walk; the second potential is w o sigma."""
    _guard_enumeration(spec, max_len)
    w = _weight_vector(spec, s)
    levels = level_table(spec, max_len - max_len // 2, np.stack([w, np.roll(w, spec.d)]))
    worst, ok = 0.0, True
    for n in range(1, max_len + 1):
        for log_phi, larger in _lifted_blocks(s, levels[n - n // 2], levels[n // 2], np.maximum):
            diff = np.abs(log_phi - larger)
            worst = max(worst, float(diff.max()))
            ok &= bool((diff <= 1e-12 * np.maximum(1.0, np.abs(log_phi))).all())
    return worst, ok


def level_log_measures(spec: IfsSpec, s: float, n: int):
    """(log_phi, log_nu) over all d^n words in lexicographic order."""
    return tuple(np.concatenate(parts) for parts in zip(*level_log_blocks(spec, s, n)))


@np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
def level_log_ratio_extremes(spec: IfsSpec, s: float, n: int) -> tuple[float, float]:
    """(min, max) of log nu - log phi over all d^n words, from the signatures of
    the two half levels of one walk; a NaN ratio makes both NaN.

    By log_betas, log nu - log phi + nP = R_e(D) = logaddexp(beta1(e) + min(D, 0),
    beta2(e) - max(D, 0)) on words of parity e, D = min(s, 2 - s)(log p - log q)
    the difference of the two Birkhoff sums.  R_e rises up to D = 0 and falls
    after it: the minimum is at a parity class's smallest or largest D, the
    maximum at the D nearest 0 from either side.  D(uv) = D(u) + (-1)^parity(u) D(v),
    so per suffix parity each prefix u takes the two ends and the two sorted
    neighbours of the D(v) that cancels D(u), at the word's composed (log p, log q)."""
    _guard_enumeration(spec, n)
    nu = kaenmaki_measure(spec, s)
    (beta1, beta2), c = nu.log_betas(), min(s, 2.0 - s)
    levels = level_table(spec, n - n // 2)
    (u_p, u_q, u_odd, *_), (v_p, v_q, v_odd, *_) = levels[-1], levels[n // 2]
    v_gap, target = v_p - v_q, np.where(u_odd, u_p - u_q, u_q - u_p)
    lo, hi = np.inf, -np.inf
    for f in (False, True):  # the empty suffix of n = 1 has no odd class
        if not (v := np.flatnonzero(v_odd == f)).size:
            continue
        v = v[np.argsort(v_gap[v])]
        near, last = np.searchsorted(v_gap[v], target), len(v) - 1
        picks = v[np.stack(np.broadcast_arrays(0, last, near - 1, near)).clip(0, last)]
        # an odd prefix swaps its suffix's sides
        delta = c * ((np.where(u_odd, v_q[picks], v_p[picks]) + u_p)
                     - (np.where(u_odd, v_p[picks], v_q[picks]) + u_q))
        e = (u_odd ^ f).astype(np.intp)
        r = _logaddexp(beta1[e] + np.minimum(delta, 0.0), beta2[e] - np.maximum(delta, 0.0))
        lo, hi = np.minimum(lo, r.min()), np.maximum(hi, r.max())
    return float(lo - n * nu.m1.log_pressure), float(hi - n * nu.m1.log_pressure)


# -- derived thermodynamic quantities -----------------------------------------

@dataclass(frozen=True)
class AffinityResult:
    value: float
    clamped: bool
    trace: tuple[tuple[float, float], ...]


def affinity_dimension_detail(spec: IfsSpec) -> AffinityResult:
    """Root of the pressure in (0, 2], by Newton's method on the piece that holds it.

    The weights are linear in s on (0, 1] and on [1, 2], so P is convex and
    decreasing on each piece, and Newton's method from the piece's left end (s = 0
    if P(1) < 0, else s = 1) climbs monotonically to the root; P(0) = log d > 0, as
    every weight is 0 there and M = [[l-1, d-l+1], [d-l+1, l-1]] has root d.  The
    slope dP/ds = stationary . dw/ds comes from the same closed form.  Steps stop
    once P <= 0 or s stops increasing, or at 48 evaluations, as many as the 1e-13
    bisection took: adversarial searches found no system needing more than 18 to
    come within 1e-12 of the root, so the cap only ends a creep of an ulp or two
    per step while rounding leaves P > 0.  P must decrease along the trace.
    While P(2) > 1e-12 the value clamps to 2 and the flag is set.
    ConvergenceFailure is raised when |P| at the root exceeds 1e-12 max(1, |dP/ds|).
    """
    trace = []
    sides = _side_logs(spec)

    def p(s):
        """(P(s), dP/ds), with dw/ds = log_r1 for s < 1 and log_r2 for s >= 1."""
        v, log_right, log_left = _perron(_log_phi_from_alphas(*sides, s), spec.d, spec.l)
        trace.append((s, v))
        return v, float(np.exp(_log_normalized(log_left + log_right)) @ sides[int(s >= 1.0)])

    p_two, _ = p(2.0)
    if p_two >= -1e-12:  # the root is 2, or P > 0 on all of (0, 2]
        return AffinityResult(value=2.0, clamped=p_two > 1e-12, trace=tuple(trace))
    root, (v, slope) = 1.0, p(1.0)
    if v < 0.0:
        root, (v, slope) = 0.0, p(0.0)
    while v > 0.0 and len(trace) < 48 and (step := root - v / slope) > root:
        root, (v, slope) = step, p(step)
    if abs(v) > 1e-12 * max(1.0, abs(slope)):
        raise ConvergenceFailure(f"|P(s*)|={abs(v):.3e} above tolerance")
    by_s = sorted(trace)
    for (s1, v1), (s2, v2) in zip(by_s, by_s[1:]):
        if s2 > s1 and v2 > v1 + 1e-12:
            raise InternalMismatch(f"pressure not decreasing: P({s1})={v1}, P({s2})={v2}")
    return AffinityResult(value=root, clamped=False, trace=tuple(trace))


def affinity_dimension(spec: IfsSpec) -> float:
    return affinity_dimension_detail(spec).value


def lyapunov_exponents(spec: IfsSpec, s: float) -> tuple[float, float]:
    """(chi1, chi2): contraction rates of the singular values under nu.

    Integrals of the two s=1 potentials against the stationary law of the
    first Gibbs chain at parameter s.  chi1 <= chi2; dimension_report notes
    a gap below 1e-12 on a non-degenerate system, where it is positive.
    """
    pi = gibbs_markov(spec, s).stationary
    chi1, chi2 = (float(-(pi @ side)) for side in _side_logs(spec))
    if chi1 > chi2 + 1e-12:
        raise InternalMismatch(f"chi1={chi1} exceeds chi2={chi2}")
    return chi1, chi2


def entropy(spec: IfsSpec, s: float) -> float:
    """h = pressure - integral of the potential against m1; the same for m2 = m1 o sigma."""
    g = gibbs_markov(spec, s)
    h = g.log_pressure - float(g.stationary @ g.weights)
    return max(h, 0.0)


def log_quasi_bernoulli_ratio(spec: IfsSpec, s: float, i: int, j: int, n: int) -> float:
    """log of phi^s(i^n j i^n) / (phi^s(i^n j) phi^s(i^n)).

    Requires map i diagonal with a != b and map j anti-diagonal.  With
    (a, b) the ratios of map i and (A, B) those of map j, and a < b, the
    ratio equals min(1, (a/b)^n * max(1, A/B))^min(s, 2-s); for a > b swap
    a with b and A with B.  It is exactly 1 while (b/a)^n <= A/B and decays
    geometrically after that, so it tends to 0, which is exactly why no
    two-sided Bernoulli comparison can hold for the equilibrium measure.  It
    is formed from the logs of the four map ratios, never from a quotient of
    them (a/b overflows where both are tiny), so it is exactly 0.0 where the
    ratio is 1 and stays finite where the ratio underflows to 0.0.
    """
    if n < 1:
        raise BadMapKinds("n must be >= 1")
    mi, mj = spec.map(i), spec.map(j)
    if mi.anti or not mj.anti:
        raise BadMapKinds(f"need map {i} diagonal and map {j} anti-diagonal")
    if mi.a == mi.b:
        raise BadMapKinds(f"map {i} has a == b; the family degenerates")
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    la, lb, l_big_a, l_big_b = np.log([mi.a, mi.b, mj.a, mj.b]).tolist()
    if la > lb:
        la, lb, l_big_a, l_big_b = lb, la, l_big_b, l_big_a
    return min(s, 2.0 - s) * min(0.0, n * (la - lb) + max(0.0, l_big_a - l_big_b))


def quasi_bernoulli_ratio(spec: IfsSpec, s: float, i: int, j: int, n: int) -> float:
    """phi^s(i^n j i^n) / (phi^s(i^n j) phi^s(i^n)); see log_quasi_bernoulli_ratio."""
    return float(np.exp(log_quasi_bernoulli_ratio(spec, s, i, j, n)))


@np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
def submultiplicativity_check(spec: IfsSpec, s: float, max_len: int) -> tuple[float, float]:
    """Logs of the extremes of nu([uv]) / (nu([u]) nu([v])) over word pairs with
    |u|+|v| <= max_len: logs, as either may leave a double's range at tiny ratios, and a
    NaN ratio makes both NaN.  By log_betas the ratio is the sum over t of p_t(u) p_t'(v)
    exp(beta_t(e) - beta_t(parity(u)) - beta_t'(parity(v))), t' = t after an even u and
    the other chain after an odd one, with chain 1's share p_1(w) = m1([w]) / nu([w]) =
    sigma(beta1(e) - beta2(e) + D(w)) = 1 - p_2(w), sigma the logistic and D = min(s, 2 - s)
    (log p - log q).  Affine in p_1(u) and p_1(v), which rise with D, it depends only on
    the (D, parity) of u and v and is monotone in each D: over two levels and parities
    its extremes lie at the corners of their D ranges, from D(jw) = D(j) +- D(w), minus
    and the parity flipped for anti-diagonal j.  Shares are log sigma, so no large D is
    added and then cancelled."""
    _guard_enumeration(spec, max_len)
    betas, c = kaenmaki_measure(spec, s).log_betas(), min(s, 2.0 - s)
    gap, anti = c * (np.log(spec.a) - np.log(spec.b)), np.arange(spec.d) >= spec.l - 1
    ends = [np.array([[0.0, np.inf], [0.0, -np.inf]])]  # [min, max] of D per parity
    for _ in range(max_len - 1):  # an anti-diagonal letter negates the other parity's ends
        steps = gap[:, None, None] + np.where(anti[:, None, None], -ends[-1][::-1, ::-1], ends[-1])
        ends.append(np.stack([steps[:, 0].min(axis=0), steps[:, 1].max(axis=0)]))
    # log p_1 and log p_2 at the ends: axes (chain, level, min/max, parity)
    shares = -np.logaddexp(0, np.multiply.outer([-1.0, 1.0], betas[0] - betas[1] + np.stack(ends)))
    i, j = np.tril_indices(max_len - 1)  # the pairs |u| = j + 1, |v| = i - j + 1
    t, k, eu, ev, pu, pv = np.ix_(*map(range, (2, len(i), 2, 2, 2, 2)))  # v's chain: t xor pu
    r = np.logaddexp(*(betas[t, pu ^ pv] - betas[t, pu] - betas[t ^ pu, pv]
                       + shares[t, j[k] + 1, eu, pu] + shares[t ^ pu, i[k] - j[k] + 1, ev, pv]))
    return float(r.max(initial=-np.inf)), float(r.min(initial=np.inf))


@dataclass(frozen=True)
class ThermoSummary:
    s: float
    pressure: float
    entropy: float
    chi1: float
    chi2: float
    affinity_dim: float


def thermo_summary(spec: IfsSpec, s: float, affinity_dim: float | None = None) -> ThermoSummary:
    """Quantities at s, all from the one chain gibbs_markov(spec, s): the
    dimension formula needs only P(s), h, chi1 and chi2, so nu is not built.
    The pressure root is searched for unless given as affinity_dim."""
    chi1, chi2 = lyapunov_exponents(spec, s)
    return ThermoSummary(
        s=s,
        pressure=pressure(spec, s),
        entropy=entropy(spec, s),
        chi1=chi1,
        chi2=chi2,
        affinity_dim=affinity_dimension(spec) if affinity_dim is None else affinity_dim)
