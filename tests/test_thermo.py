import dataclasses
import json
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    BOX_RATIO,
    all_words,
    anti,
    bisection_root,
    chain_matrix,
    coded_word,
    dense_stochastic,
    dense_transition,
    diag,
    full_box_draw,
    full_box_system,
    gibbs_markov_two,
    grid_spec,
    level_log_blocks_reference,
    level_log_measures_reference,
    level_ratio_extremes_reference,
    log_svf_phi,
    random_spec,
    rho_symbol,
    shifted_chain,
    subadditive_pressure_bruteforce,
    submultiplicativity_reference,
    uniform_spec,
    weight_vector_two,
)
from kaenmaki import (
    affinity_dimension,
    affinity_dimension_detail,
    entropy,
    gibbs_markov,
    kaenmaki_measure,
    level_log_measures,
    level_log_ratio_extremes,
    log_quasi_bernoulli_ratio,
    lyapunov_exponents,
    make_spec,
    parse_ifs,
    pressure,
    quasi_bernoulli_ratio,
    sample_symbolic,
    submultiplicativity_check,
    transition_matrix,
    thermo_summary,
)
from kaenmaki import thermo
from kaenmaki.cli import _comparability_decays
from kaenmaki.coding import encode_tau, level_table, signature_arrays, tau_arrays
from kaenmaki.errors import BadMapKinds, DegenerateSystemWarning, SOutOfRange, TooLarge
from kaenmaki.thermo import _weight_vector, level_log_blocks

# hand value: at s=1 on EX1 the weighted matrix has constant 2x2 block
# structure whose top eigenvalue solves x^2 - (8/15) x + 1/60 = 0, i.e. 1/2
EX1_PRESSURE_AT_1 = np.log(0.5)


def cylinder_measure_mt(g, c):
    """Mass of the cylinder of a coded word under one chain; 0 for inadmissible words."""
    if not c.admissible:
        return 0.0
    return float(np.exp(g.log_cylinder_batch(np.array([c.symbols]) - 1)[0]))


def svf_phi(spec, s, w):
    return float(np.exp(log_svf_phi(spec, s, w)))


def unit_exp(x):
    """exp(x) scaled to sum 1: an eigenvector from its unnormalized logs."""
    e = np.exp(x - x.max())
    return e / e.sum()


def dense_transfer(spec, w):
    """The dense 2d x 2d weighted transition matrix T(i,j) = A(i,j) exp(w_j)."""
    A = dense_transition(spec.d, spec.l)
    return A * np.exp(w)[None, :]


def dense_eig_oracle(spec, w):
    """Independent dense eigensolve of the weighted transition matrix of weights w."""
    T = dense_transfer(spec, w)
    vals, vecs = np.linalg.eig(T)
    k = int(np.argmax(vals.real))
    lam = float(vals.real[k])
    r = np.abs(vecs[:, k].real)
    valsl, vecsl = np.linalg.eig(T.T)
    kl = int(np.argmax(valsl.real))
    left = np.abs(vecsl[:, kl].real)
    # power steps from the dense vectors: T has rank 2, so each shrinks their error
    # by the ratio of its two nonzero eigenvalues (eig's r was 1e-12 off in the
    # P rows of diag(e^-2, e^-1), anti(e^-11, e^-2) at s = 1, by a 60-digit solve)
    for _ in range(30):
        r, left = T @ r, left @ T
        r, left = r / r.max(), left / left.max()
    pi = left * r / (left @ r)
    # each row of T(i,.) r normalized: equal to T r / (lam r(i)) since T r = lam r,
    # without the rounding error of lam and r(i), which reached 7e-9 on d <= 40 draws
    P = T * r[None, :]
    return lam, pi, P / P.sum(axis=1, keepdims=True)


class TestPotential:
    def test_ex1_s1_weights(self, ex1):
        w = _weight_vector(ex1, 1.0)
        assert w == pytest.approx(np.log([1 / 3, 1 / 4, 1 / 5, 1 / 5]), rel=1e-15)

    def test_uniform_collapses(self, uniform2):
        w1 = _weight_vector(uniform2, 0.5)
        w2 = weight_vector_two(uniform2, 0.5)
        assert w1 == pytest.approx(np.full(4, 0.5 * np.log(1 / 3)), rel=1e-15)
        assert (w1 == w2).all()

    def test_two_is_involution_of_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = random_spec(rng)
            s = float(rng.uniform(0.1, 1.9))
            w1 = _weight_vector(spec, s)
            w2 = weight_vector_two(spec, s)
            perm = [rho_symbol(i, spec.d) - 1 for i in range(1, 2 * spec.d + 1)]
            assert w2 == pytest.approx(w1[perm], rel=1e-15)
            # the program reads the second potential as this roll, bit for bit
            assert (np.roll(w1, spec.d) == w2).all()

    def test_branches_agree_at_one(self, ex1):
        below = _weight_vector(ex1, 1.0 - 1e-12)
        at = _weight_vector(ex1, 1.0)
        assert below == pytest.approx(at, abs=1e-11)

    def test_s_out_of_range(self, ex1):
        for s in (0.0, 2.0, -1.0, 2.5):
            for fn in (pressure, gibbs_markov):
                with pytest.raises(SOutOfRange):
                    fn(ex1, s)


class TestPressure:
    def test_uniform_closed_form(self):
        for d, c, n_anti in [(2, 1 / 3, 1), (3, 0.3, 2), (4, 0.2, 1)]:
            spec = uniform_spec(d, c, n_anti)
            for s in (0.4, 1.0, 1.6):
                assert pressure(spec, s) == pytest.approx(np.log(d * c ** s), abs=1e-12)

    def test_ex1_closed_form_at_one(self, ex1):
        assert pressure(ex1, 1.0) == pytest.approx(EX1_PRESSURE_AT_1, abs=1e-13)

    def test_symmetry_in_t(self, ex1):
        for s in (0.3, 0.7, 1.0, 1.5):
            assert abs(pressure(ex1, s) - gibbs_markov_two(ex1, s).log_pressure) <= 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            spec = random_spec(rng)
            s = float(rng.uniform(0.2, 1.8))
            lam, _, _ = dense_eig_oracle(spec, _weight_vector(spec, s))
            assert pressure(spec, s) == pytest.approx(np.log(lam), abs=1e-11)

    def test_strictly_decreasing_grid(self, ex1):
        rng = np.random.default_rng(2)
        for spec in [ex1, random_spec(rng), random_spec(rng)]:
            grid = np.linspace(0.05, 1.95, 20)
            vals = [pressure(spec, s) for s in grid]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def dense_root(spec):
    """Pressure root by bisection on the dense eigenvalues (no clamping case)."""
    lo, hi = 1e-9, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dense_eig_oracle(spec, _weight_vector(spec, mid))[0] > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decimal_log_root(a1, b1, a2, b2, s):
    """50-digit log Perron root for d = 2 (diag (a1, b1), anti (a2, b2)).

    For d = 2 the nonzero spectrum of T is that of
    [[phi(a1, b1), phi(a2, b2)], [phi(b2, a2), phi(b1, a1)]], phi the weight
    of one symbol, so the root is the larger root of a quadratic.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        big_s = Decimal(s)

        def phi(r1, r2):
            r1, r2 = Decimal(r1), Decimal(r2)
            if s < 1:
                return (big_s * r1.ln()).exp()
            return r1 * ((big_s - 1) * r2.ln()).exp()

        du, au, ds, as_ = phi(a1, b1), phi(a2, b2), phi(b1, a1), phi(b2, a2)
        lam = (du + ds) / 2 + ((du - ds) ** 2 / 4 + au * as_).sqrt()
        return float(lam.ln())


# valid systems on which a power iteration with a 1e-15 stopping rule spun
# to its iteration cap: tiny ratios, and a d=7 system with a healthy gap
NAMED_TINY = [diag(1e-3, 1e-4, 0.0, 0.0), anti(1e-3, 0.5, 0.5, 0.5)]
D7_RATIOS = [(diag, 0.06, 0.14), (diag, 0.26, 0.19), (diag, 0.18, 0.21), (diag, 0.21, 0.19),
             (diag, 0.15, 0.09), (anti, 0.12, 0.12), (anti, 0.15, 0.29)]
D7_GRID = [kind(a, b, (k % 3) / 3, (k // 3) / 3) for k, (kind, a, b) in enumerate(D7_RATIOS)]


class TestPerronClosedForm:
    @pytest.mark.parametrize("maps", [NAMED_TINY, D7_GRID], ids=["named-tiny", "d7-grid"])
    def test_regression_root_matches_dense(self, maps):
        spec = make_spec(maps)
        detail = affinity_dimension_detail(spec)
        assert not detail.clamped
        assert abs(detail.value - dense_root(spec)) <= 1e-9
        for s in (0.1, 0.5, 1.0, 1.5, 1.9):
            lam, _, _ = dense_eig_oracle(spec, _weight_vector(spec, s))
            assert pressure(spec, s) == pytest.approx(np.log(lam), abs=1e-12)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_dense_eig_property(self, data):
        d = data.draw(st.integers(2, 40), label="d")
        n_diag = data.draw(st.integers(1, d - 1), label="n_diag")
        log_ratio = st.floats(np.log(1e-6), np.log(0.5))
        maps = [(diag if k < n_diag else anti)(float(np.exp(data.draw(log_ratio))),
                                              float(np.exp(data.draw(log_ratio))), 0.0, 0.0)
                for k in range(d)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSystemWarning)
            spec = make_spec(maps)
        s = data.draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), label="s")
        lam, _, _ = dense_eig_oracle(spec, _weight_vector(spec, s))
        assert pressure(spec, s) == pytest.approx(np.log(lam), abs=1e-12)
        # the second potential's own solve has the same root, bit for bit
        assert gibbs_markov_two(spec, s).log_pressure == pressure(spec, s)
        for g in (gibbs_markov(spec, s), gibbs_markov_two(spec, s)):
            # P(s) is the chain's own root, the closed form's value bit for bit
            assert pressure(spec, s) == g.log_pressure
            assert g.log_pressure == thermo._perron(g.weights, d, spec.l)[0]
            P = chain_matrix(g)
            assert np.abs(P - dense_eig_oracle(spec, g.weights)[2]).max() <= 1e-12
            assert np.abs(np.exp(g.log_rows).sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(g.stationary @ P - g.stationary).max() <= 1e-12
            T = dense_transfer(spec, g.weights)
            root, r, left = np.exp(g.log_pressure), unit_exp(g.log_right), unit_exp(g.log_left)
            assert np.abs(T @ r - root * r).max() <= 1e-12 * root * r.max()
            assert np.abs(left @ T - root * left).max() <= 1e-12 * root * left.max()

    def test_decimal_oracle_down_to_tiny_ratios(self):
        rng = np.random.default_rng(300)
        for k in range(60):
            a1, b1, a2, b2 = np.exp(rng.uniform(np.log(1e-300), np.log(0.5), 4))
            if k % 4 == 0:
                b1 = a1  # equal diagonal sums: the 2x2 eigenvalue gap is the anti coupling
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSystemWarning)
                spec = make_spec([diag(a1, b1, 0.0, 0.0), anti(a2, b2, 0.0, 0.0)])
            for s in (1e-3, 0.5, 1.0, 1.5, 1.999):
                want = decimal_log_root(a1, b1, a2, b2, s)
                assert abs(pressure(spec, s) - want) <= 1e-14 * max(1.0, abs(want))


    def test_pressure_at_zero_is_log_d(self):
        # every weight is 0 at s = 0, so M = [[l-1, d-l+1], [d-l+1, l-1]] with
        # Perron root d: the root search may start at s = 0 with P(0) > 0
        for d in range(2, 41):
            for l in range(2, d + 1):
                assert abs(thermo._perron(np.zeros(2 * d), d, l)[0] - np.log(d)) <= 1e-15, (d, l)


class TestBruteForcePressure:
    def test_n1_closed_form(self, ex1):
        assert subadditive_pressure_bruteforce(ex1, 1.0, 1) == \
            pytest.approx(np.log(1 / 3 + 1 / 4), rel=1e-14)

    def test_uniform_exact_every_n(self, uniform2):
        for n in (1, 3, 5):
            assert subadditive_pressure_bruteforce(uniform2, 0.8, n) == \
                pytest.approx(np.log(2 * (1 / 3) ** 0.8), abs=1e-12)

    def test_monotone_and_approaches_pressure(self, ex1):
        # depth-12 upper approximant: nonincreasing along (2, 4, 8, 12) on ex1
        # and within 0.05 of the spectral value (gap at depth 12 is 0.024..0.040)
        for s in (0.5, 1.0, 1.5):
            seq = [subadditive_pressure_bruteforce(ex1, s, n) for n in (2, 4, 8, 12)]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
            p = pressure(ex1, s)
            assert seq[-1] >= p - 1e-12
            assert seq[-1] - p <= 0.05

    def test_guard(self, ex1):
        with pytest.raises(TooLarge):
            subadditive_pressure_bruteforce(ex1, 1.0, 40)


class TestGibbsMarkov:
    def test_uniform_structure(self, uniform2):
        g = gibbs_markov(uniform2, 1.0)
        assert g.stationary == pytest.approx(np.full(4, 0.25), abs=1e-13)
        A = dense_transition(2, 2)
        assert chain_matrix(g) == pytest.approx(A / 2.0, abs=1e-13)

    def test_ex1_matches_dense_oracle(self, ex1):
        lam, pi, P = dense_eig_oracle(ex1, _weight_vector(ex1, 1.0))
        g = gibbs_markov(ex1, 1.0)
        assert np.exp(g.log_pressure) == pytest.approx(lam, rel=1e-12)
        assert g.stationary == pytest.approx(pi, abs=1e-10)
        assert chain_matrix(g) == pytest.approx(P, abs=1e-10)

    def test_eigen_invariants(self, ex1):
        rng = np.random.default_rng(4)
        for spec, s in [(ex1, 0.7), (ex1, 1.3), (random_spec(rng), 0.9)]:
            g = gibbs_markov(spec, s)
            A = dense_transition(spec.d, spec.l)
            T = A * np.exp(g.weights)[None, :]
            lam, r, left = np.exp(g.log_pressure), unit_exp(g.log_right), unit_exp(g.log_left)
            assert np.abs(T @ r - lam * r).max() <= 1e-12 * max(1, lam)
            assert np.abs(left @ T - lam * left).max() <= 1e-12 * max(1, lam)
            assert g.stationary.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.abs(g.stationary @ chain_matrix(g) - g.stationary).max() <= 1e-12
            assert np.abs(chain_matrix(g).sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(chain_matrix(g) - dense_stochastic(g)).max() <= 1e-12

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(maps=full_box_system(),
           s=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.floats(1.0, 2.0, exclude_max=True)),
           n=st.integers(1, 4))
    def test_swap_matches_direct_solve(self, maps, s, n):
        # m2 read from the one chain, m1 o sigma, against the second potential's own
        # Perron solve: rows, stationary law, beta and each chain's cylinder logs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSystemWarning)
            spec = make_spec(maps)
        nu, two, d = kaenmaki_measure(spec, s), gibbs_markov_two(spec, s), spec.d

        def close(got, want):
            tol = 1e-12 * np.maximum(1.0, np.abs(want))
            assert got.shape == want.shape and ((got == want) | (np.abs(got - want) <= tol)).all()

        close(nu.m1.log_rows[::-1], two.log_rows)
        close(np.roll(nu.m1.log_stationary, d), two.log_stationary)
        shift = two.log_pressure - np.logaddexp.reduce(two.log_left + two.log_right)
        close(nu.log_betas()[1], shift + two.log_right[[0, spec.l - 1]])
        words = all_words(d, n)
        coded = tau_arrays(words, spec) - 1
        m2_part = shifted_chain(nu.m1).log_cylinder_batch(coded)
        close(m2_part, two.log_cylinder_batch(coded))
        close(nu.log_cylinder_batch(words),
              np.logaddexp(nu.m1.log_cylinder_batch(coded), two.log_cylinder_batch(coded)))

    def test_one_measure_is_one_perron_solve(self):
        # a fresh equilibrium measure solves the one chain m1 and nothing more
        spec = make_spec([diag(0.2718, 0.3141, 0.0, 0.0), anti(0.1414, 0.1732, 0.5, 0.5)])
        chains, measures = gibbs_markov.cache_info(), kaenmaki_measure.cache_info()
        kaenmaki_measure(spec, 0.6180339887)
        assert kaenmaki_measure.cache_info().misses == measures.misses + 1
        assert gibbs_markov.cache_info().misses == chains.misses + 1

    def test_m2_equals_m1_on_involuted_words(self, ex1):
        g1 = gibbs_markov(ex1, 0.8)
        g2 = gibbs_markov_two(ex1, 0.8)
        row_class = transition_matrix(2, 2)
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            w = tuple(int(x) for x in rng.integers(1, 3, n))
            c = coded_word(encode_tau(w, ex1), row_class)
            flipped = coded_word([rho_symbol(x, 2) for x in c.symbols], row_class)
            assert cylinder_measure_mt(g2, flipped) == \
                pytest.approx(cylinder_measure_mt(g1, c), rel=1e-12)


class TestCylinderMeasures:
    def test_uniform_length2(self, uniform2):
        g = gibbs_markov(uniform2, 1.0)
        row_class = transition_matrix(2, 2)
        assert cylinder_measure_mt(g, coded_word((1, 2), row_class)) == pytest.approx(1 / 8, abs=1e-14)

    def test_inadmissible_is_zero(self, uniform2):
        g = gibbs_markov(uniform2, 1.0)
        row_class = transition_matrix(2, 2)
        assert cylinder_measure_mt(g, coded_word((1, 3), row_class)) == 0.0

    def test_additivity(self, ex1):
        g = gibbs_markov(ex1, 1.2)
        row_class = transition_matrix(2, 2)
        for c in [(1,), (2, 3), (1, 2, 4)]:
            parent = cylinder_measure_mt(g, coded_word(c, row_class))
            kids = sum(cylinder_measure_mt(g, coded_word(c + (j,), row_class))
                       for j in range(1, 5))
            assert kids == pytest.approx(parent, abs=1e-14)

    def test_gibbs_bound_exhaustive(self, ex1):
        g = gibbs_markov(ex1, 1.0)
        lo, up = np.exp(g.log_gibbs_bounds())
        assert 0 < lo <= up
        row_class = transition_matrix(2, 2)
        p = g.log_pressure
        for n in range(1, 11):
            words = all_words(2, n)
            coded = tau_arrays(words, ex1)
            for row in coded[:: max(1, len(coded) // 64)]:
                c = coded_word(tuple(row), row_class)
                s_f = g.weights[np.asarray(c.symbols) - 1].sum()
                ratio = cylinder_measure_mt(g, c) / np.exp(s_f - n * p)
                assert lo * (1 - 1e-9) <= ratio <= up * (1 + 1e-9)


TINY_RATIO = st.floats(np.log(1e-300), np.log(0.999)).map(np.exp)
# the full box: log-uniform down to the smallest subnormal, or uniform
FULL_BOX_RATIO = st.one_of(st.floats(np.log(5e-324), np.log(0.999)).map(np.exp),
                           st.floats(1e-3, 0.999, exclude_max=True))


def draw_tiny_ratio_system(data, ratio=TINY_RATIO):
    """(spec, s): d in 2..6, ratios from ``ratio`` (log-uniform down to 1e-300
    by default), s in (0, 2)."""
    d = data.draw(st.integers(2, 6), label="d")
    n_diag = data.draw(st.integers(1, d - 1), label="n_diag")
    maps = []
    for k in range(d):
        a, b = (float(data.draw(ratio)) for _ in range(2))
        tx = data.draw(st.floats(0.0, 1.0)) * (1.0 - a)
        ty = data.draw(st.floats(0.0, 1.0)) * (1.0 - b)
        maps.append((diag if k < n_diag else anti)(a, b, tx, ty))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        spec = make_spec(maps)
    return spec, data.draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), label="s")


with warnings.catch_warnings():
    warnings.simplefilter("ignore", DegenerateSystemWarning)
    # square maps of unequal sizes: every word's rectangle is a square
    SQUARE_MAPS = make_spec([diag(0.3, 0.3, 0.0, 0.0), diag(1e-200, 1e-200, 0.5, 0.0),
                             anti(0.2, 0.2, 0.5, 0.5)])
    # at its root, level 5's smallest ratio is -log 2 to within 1e-16 (a 3000-digit
    # evaluation of the closed form), and the enumeration reads it 1.08e-12 lower
    ULP_RATIO_MAPS = make_spec([
        diag(np.exp(-1.0), np.exp(-1.0), 0.0, 0.0),
        anti(np.exp(-1.0), 8.75651076269652e-27, 0.0, 0.0),
        anti(1.990299484539727e-58, np.exp(-1.0), 0.0, 0.0),
        anti(np.exp(-1.0), 2.031092662734811e-42, 0.0, 0.0),
        anti(2.0769322043867094e-128, 8.76141754643084e-298, 0.0, 0.0),
        anti(0.8824969025845953, 0.8824969025845953, 0.0, 0.0)])
    # full-box system 140: its root clamps to 2, and at s = 2 - 1e-12 the worst upper
    # submultiplicativity ratio is 1 to about 1e-18
    FULL_BOX_140 = parse_ifs(json.dumps(list(full_box_draw(141))[140]))


@st.composite
def tiny_ratio_systems(draw):
    """draw_tiny_ratio_system as a strategy of (spec, s), so that @example can name one."""
    return draw_tiny_ratio_system(SimpleNamespace(draw=lambda strategy, label=None: draw(strategy)))


class TestKaenmakiCylinder:
    def test_uniform_is_bernoulli(self, uniform2):
        nu = kaenmaki_measure(uniform2, 1.0)
        for w in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert np.exp(nu.log_cylinder(w)) == pytest.approx(0.25, abs=1e-13)

    def test_normalization(self, ex1):
        nu = kaenmaki_measure(ex1, affinity_dimension(ex1))
        total = np.exp(nu.log_cylinder((1,))) + np.exp(nu.log_cylinder((2,)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_additive_over_extensions(self, ex1):
        nu = kaenmaki_measure(ex1, 0.8)
        for w in [(1,), (2, 1), (1, 2, 2)]:
            parent = np.exp(nu.log_cylinder(w))
            kids = sum(np.exp(nu.log_cylinder(w + (i,))) for i in (1, 2))
            assert kids == pytest.approx(parent, abs=1e-14)

    def test_envelope_exhaustive(self, ex1):
        sstar = affinity_dimension(ex1)
        nu = kaenmaki_measure(ex1, sstar)
        lo, up = np.exp(nu.log_envelope())
        p = pressure(ex1, sstar)
        for n in (4, 8, 10):
            log_phi, log_nu = level_log_measures(ex1, sstar, n)
            ratio = np.exp(log_nu - log_phi + n * p)
            assert (ratio >= lo * (1 - 1e-9)).all()
            assert (ratio <= up * (1 + 1e-9)).all()

    def test_nan_chain_data_give_nan_without_a_warning(self, ex1):
        # the suite turns RuntimeWarning into an error: np.logaddexp warns on NaN
        nu = kaenmaki_measure(ex1, 0.9)
        rows = dataclasses.replace(nu, m1=dataclasses.replace(
            nu.m1, log_rows=np.full_like(nu.m1.log_rows, np.nan)))
        assert np.isnan(rows.log_cylinder_batch(np.array([[1, 2, 1], [2, 2, 2]]))).all()
        # the envelope reads the one chain's eigenvectors, not log_rows: NaN in all of
        # log_right, or only where m2 = m1 o sigma starts (m1's shifted half)
        for where in (slice(None), ex1.d):
            log_right = nu.m1.log_right.copy()
            log_right[where] = np.nan
            right = dataclasses.replace(nu, m1=dataclasses.replace(nu.m1, log_right=log_right))
            assert np.isnan(right.log_envelope()).all(), where

    def test_envelope_finite_down_to_tiny_ratios(self):
        # the normalized right vector underflows on some of these draws; the
        # envelope comes from the log eigenvectors
        rng = np.random.default_rng(900)
        for _ in range(300):
            a1, b1, a2, b2 = np.exp(rng.uniform(np.log(1e-300), np.log(0.5), 4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSystemWarning)
                spec = make_spec([diag(a1, b1, 0.0, 0.0), anti(a2, b2, 0.0, 0.0)])
            for s in (0.3, 1.0, 1.7):
                lo, up = np.exp(kaenmaki_measure(spec, s).log_envelope())
                assert np.isfinite([lo, up]).all() and lo <= up, (a1, b1, a2, b2, s)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_level_measures_finite_down_to_tiny_ratios(self, data):
        # a chain step that underflowed to 0.0 in linear space used to read as log 1
        spec, s = draw_tiny_ratio_system(data)
        for n in range(1, data.draw(st.integers(1, 4), label="n") + 1):
            log_phi, log_nu = level_log_measures(spec, s, n)
            assert np.isfinite(log_phi).all() and np.isfinite(log_nu).all()
            assert abs(np.logaddexp.reduce(log_nu)) <= 1e-12

    def test_probability_all_levels(self, ex1):
        for n in range(1, 9):
            _, log_nu = level_log_measures(ex1, 1.1, n)
            assert np.exp(log_nu).sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self, ex1):
        # summing the measure over allowed one-symbol prefixes reproduces it
        g = gibbs_markov(ex1, 0.9)
        row_class = transition_matrix(2, 2)
        for c in [(1,), (2, 4), (1, 2, 3)]:
            target = cylinder_measure_mt(g, coded_word(c, row_class))
            ext = sum(cylinder_measure_mt(g, coded_word((i,) + c, row_class))
                      for i in range(1, 5) if dense_transition(2, 2)[i - 1, c[0] - 1])
            assert ext == pytest.approx(target, abs=1e-12)


# (a, b) pairs for _logaddexp: finite, -inf and NaN operands in either order
LOGADDEXP_PAIRS = st.lists(st.tuples(
    st.one_of(
        # a larger operand and a gap below it: equal, subnormal or up to 1e3
        st.tuples(st.floats(-1e5, 0.0), st.one_of(
            st.just(0.0), st.floats(0.0, 1e3),
            st.floats(0.0, np.finfo(float).smallest_normal, allow_subnormal=True)))
        .map(lambda hg: (hg[0], hg[0] - hg[1])),
        st.tuples(st.sampled_from([-np.inf, np.nan]), st.floats(-1e5, 0.0)),
        st.tuples(st.sampled_from([-np.inf, np.nan]), st.sampled_from([-np.inf, np.nan]))),
    st.booleans()).map(lambda pair_swap: pair_swap[0][::-1] if pair_swap[1] else pair_swap[0]),
    min_size=1, max_size=70)


class TestLevelBlocks:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_blocks_match_per_word_oracle(self, data):
        spec, s = draw_tiny_ratio_system(data)
        n = data.draw(st.integers(1, 7), label="n")
        # small blocks split the prefix half into runs that need not divide it
        block = data.draw(st.sampled_from([1, 7, 100, thermo.LEVEL_BLOCK]), label="block")
        words = all_words(spec.d, n)
        want_nu = kaenmaki_measure(spec, s).log_cylinder_batch(words)
        log_p, log_q, *_ = signature_arrays(words, spec)
        log_a1, log_a2 = np.maximum(log_p, log_q), np.minimum(log_p, log_q)
        want_phi = s * log_a1 if s < 1.0 else log_a1 + (s - 1.0) * log_a2
        w = np.stack([_weight_vector(spec, s), weight_vector_two(spec, s)])
        # the Birkhoff sums of each potential along the lift started unshifted and shifted
        coded = tau_arrays(words, spec) - 1
        want_sums = [w_t[(coded + spec.d * e) % (2 * spec.d)].sum(1) for e in (0, 1) for w_t in w]
        levels = level_table(spec, n, w)
        with mock.patch.object(thermo, "LEVEL_BLOCK", block):
            sizes = [(len(phi), len(nu)) for phi, nu in level_log_blocks(spec, s, n)]
            log_phi, log_nu = level_log_measures(spec, s, n)
            ref_phi, ref_nu = level_log_measures_reference(spec, s, n)
            extremes = level_ratio_extremes_reference(spec, s, n)
            halves = levels[n - n // 2], levels[n // 2]
            larger = np.concatenate([m for _, m in thermo._lifted_blocks(s, *halves, np.maximum)])
        sums = list(levels[n][5].transpose(1, 0, 2).reshape(4, -1))  # start parity major
        assert all(a == b for a, b in sizes) and sum(a for a, _ in sizes) == spec.d ** n
        for got, want in ((log_phi, want_phi), (log_nu, want_nu), (ref_nu, want_nu),
                          *zip(sums, want_sums), (larger, np.maximum(*want_sums[:2]))):
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
        x = ref_nu - ref_phi
        assert extremes == (x.min(), x.max())

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(system=tiny_ratio_systems(), at_root=st.booleans(), n=st.integers(1, 8),
           block=st.sampled_from([1, 7, 100, thermo.LEVEL_BLOCK]))
    # full-box system 127 at s = 1.7, n = 6: log nu near -1e-6 where log phi is near
    # -3135, so a log nu formed as log phi + R_e(D) - nP loses about 1e-12 to the
    # cancellation, past the bound; sums of log probabilities cancel nothing
    @example(system=(make_spec([diag(2.0760103391928798e-47, 2.1129663221968493e-267,
                                     0.520687481769238, 0.7898445020877963),
                                anti(0.16399246390200525, 6.6266100132503e-267,
                                     0.6207892849476218, 0.509303084753167)]), 1.7),
             at_root=False, n=6, block=thermo.LEVEL_BLOCK)
    @example(system=(uniform_spec(3, 1e-150, n_anti=2), 1.9), at_root=False, n=7, block=7)
    def test_closed_form_matches_chain_products(self, system, at_root, n, block):
        # the one-walk blocks against the chain products of the stationary law and
        # the rows (two walks, the first letter's own table), s on both pieces and at
        # the root: log phi bitwise, log nu to 1e-12 relative, block for block
        spec, s = system
        if at_root and (root := affinity_dimension(spec)) < 2.0:
            s = root
        with mock.patch.object(thermo, "LEVEL_BLOCK", block):
            got, want = (list(blocks(spec, s, n))
                         for blocks in (level_log_blocks, level_log_blocks_reference))
        assert [len(phi) for phi, _ in got] == [len(phi) for phi, _ in want]
        (log_phi, log_nu), (ref_phi, ref_nu) = (
            [np.concatenate(p) for p in zip(*blocks)] for blocks in (got, want))
        assert np.array_equal(log_phi.view(np.uint64), ref_phi.view(np.uint64))
        assert (np.abs(log_nu - ref_nu) <= 1e-12 * np.maximum(1.0, np.abs(ref_nu))).all()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(LOGADDEXP_PAIRS)
    @example([(0.0, 0.0), (-np.inf, -np.inf), (-1.0, -np.inf), (-np.inf, np.nan),
              (0.0, -5e-324), (-745.0, 0.0)])
    def test_logaddexp_matches_numpy(self, pairs):
        a, b = np.array(pairs).T
        with np.errstate(invalid="ignore"):  # numpy's loop compares NaN with 0
            want = np.logaddexp(a, b)
        got = thermo._logaddexp(a.copy(), b)
        nan, zero = np.isnan(want), want == -np.inf
        assert (np.isnan(got) == nan).all() and (got[zero] == -np.inf).all()
        got, want = got[~(nan | zero)], want[~(nan | zero)]
        assert (np.abs(got - want) <= np.finfo(float).eps * np.maximum(1.0, np.abs(want))).all()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(LOGADDEXP_PAIRS)
    @example([(-1.0, -np.inf), (0.0, -5e-324)])
    @example([(0.0, 0.0), (-np.inf, -np.inf), (-1.0, -np.inf), (-np.inf, np.nan)])
    def test_logaddexp_unmasked_path_keeps_the_floats(self, pairs):
        # the masked formula throughout, against _logaddexp on the pairs and on
        # their finite pairs alone (no -inf max: the unmasked subtraction)
        a, b = np.array(pairs).T
        hi = np.maximum(a, b)
        want = np.minimum(a, b)
        np.subtract(want, hi, out=want, where=hi != -np.inf)
        want = np.log1p(np.exp(want)) + hi
        for part in (slice(None), np.isfinite(a) & np.isfinite(b)):
            got = thermo._logaddexp(a[part].copy(), b[part])
            assert np.array_equal(got, want[part], equal_nan=True)

    def test_extremes_in_constant_memory(self, ex1):
        # 2^20 words: one float array of the whole level is 8 MB
        kaenmaki_measure(ex1, 0.9)
        tracemalloc.start()
        try:
            lo, hi = level_log_ratio_extremes(ex1, 0.9, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite([lo, hi]).all() and lo <= hi
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_phi_identity_in_constant_memory(self):
        # levels 1..8 at d = 5: level 8 alone is 390625 words, 3 MB per float array
        spec = grid_spec(5, 2, seed=5)
        tracemalloc.start()
        try:
            worst, ok = thermo.phi_identity_check(spec, 0.7, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok and worst <= 1e-12
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_nan_ratio_makes_extremes_nan(self, ex1):
        # one NaN side in either half level of n = 5, both from the one walk to level
        # 3: a prefix's log p, or the log q of a suffix of odd parity, which sorts
        # last and is read as a parity class's end; np.minimum and np.maximum keep
        # the NaN where min(inf, nan) drops it
        for half in (3, 2):
            calls = []

            def with_nan(spec, k):
                levels = level_table(spec, k)
                log_p, log_q, odd, *_ = levels[half]
                if half == 3:
                    log_p[2] = np.nan
                else:
                    log_q[np.flatnonzero(odd)[-1]] = np.nan
                calls.append(k)
                return levels

            with mock.patch.object(thermo, "level_table", with_nan):
                extremes = level_log_ratio_extremes(ex1, 0.9, 5)
            assert calls == [3] and np.isnan(extremes).all(), (half, extremes)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(system=tiny_ratio_systems(), at_root=st.booleans(), n=st.integers(1, 8))
    # a == b on every map: D = 0 on every word, so every search lands on a tie
    @example(system=(SQUARE_MAPS, 0.8), at_root=False, n=5)
    @example(system=(ULP_RATIO_MAPS, 1.0), at_root=True, n=5)
    @example(system=(uniform_spec(2, 1 / 3), 1.3), at_root=True, n=1)
    @example(system=(uniform_spec(4, 1 / 2, n_anti=2), 0.6), at_root=False, n=6)
    @example(system=(uniform_spec(3, 1e-150, n_anti=2), 1.9), at_root=False, n=7)
    def test_extremes_match_enumeration(self, system, at_root, n):
        # the search over half levels against every word of the level, s on
        # both pieces and at the root; n = 1 pairs each prefix with the empty
        # suffix, whose odd parity class is empty
        spec, s = system
        if at_root and (root := affinity_dimension(spec)) < 2.0:
            s = root
        got = level_log_ratio_extremes(spec, s, n)
        want = level_ratio_extremes_reference(spec, s, n)
        log_phi, log_nu = level_log_measures_reference(spec, s, n)
        x = log_nu - log_phi
        assert np.isfinite(want).all() and want == (x.min(), x.max())
        # the reference subtracts two sums of up to n logs of tiny ratios, each held
        # to 1e-12 max(1, |.|) of its per-word oracle: where |log phi| is in the
        # thousands it is itself off by about 1e-12 from the exact ratio
        for g, i in zip(got, (x.argmin(), x.argmax())):
            assert abs(g - x[i]) <= 1e-12 * max(1.0, abs(x[i]), abs(log_phi[i])), (got, want)


class TestSvf:
    def test_ex1_values(self, ex1):
        assert svf_phi(ex1, 1.0, (1, 2)) == pytest.approx(1 / 12, rel=1e-13)
        assert svf_phi(ex1, 1.5, (1, 2)) == pytest.approx(1 / 60, rel=1e-13)
        assert svf_phi(ex1, 0.5, (1,)) == pytest.approx((1 / 3) ** 0.5, rel=1e-13)

    def test_key_identity_exhaustive(self, ex1):
        for s in (0.5, 1.0, 1.5):
            w1 = _weight_vector(ex1, s)
            w2 = weight_vector_two(ex1, s)
            for n in range(1, 9):
                words = all_words(2, n)
                lp, lq, *_ = signature_arrays(words, ex1)
                coded = tau_arrays(words, ex1) - 1
                sb1 = w1[coded].sum(axis=1)
                sb2 = w2[coded].sum(axis=1)
                via_b = np.maximum(sb1, sb2)
                la1, la2 = np.maximum(lp, lq), np.minimum(lp, lq)
                via_a = s * la1 if s < 1 else la1 + (s - 1) * la2
                assert np.abs(via_a - via_b).max() <= 1e-12


@st.composite
def full_box_maps(draw):
    """d from 2 to 40, one to d - 1 diagonal maps, every ratio from BOX_RATIO."""
    d = draw(st.integers(2, 40))
    n_diag = draw(st.integers(1, d - 1))
    return [(diag if k < n_diag else anti)(draw(BOX_RATIO), draw(BOX_RATIO), 0.0, 0.0)
            for k in range(d)]


# within 3e-14 of the root after 16 evaluations, where rounding leaves P(s) near
# 8e-19 > 0, so Newton's method creeps on by two ulps per step; it would take
# 149 evaluations without the cap of 48
CREEPING_NEWTON = [diag(1.0000000000000237e-300, 5.357207450089087e-29, 0.0, 0.0),
                   diag(0.999, 0.0011134741874682698, 0.0, 0.0),
                   anti(1.4566247725899988e-178, 5.149576125170737e-68, 0.0, 0.0)]


class TestAffinity:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(maps=full_box_maps())
    @example(maps=[diag(0.5, 0.5, 0.0, 0.0), anti(0.5, 0.5, 0.5, 0.5)])  # P(1) = 0
    @example(maps=[diag(1 / 3, 1 / 5, 0.0, 0.0), anti(1 / 4, 1 / 5, 0.5, 0.5)])  # in (0, 1)
    @example(maps=[diag(0.45, 0.3, 0.0, 0.0), diag(0.3, 0.45, 0.0, 0.0),
                   anti(0.4, 0.35, 0.0, 0.0)])  # in (1, 2)
    @example(maps=[diag(0.5, 0.5, 0.0, 0.0)] * 3 + [anti(0.5, 0.5, 0.5, 0.5)])  # exactly 2
    @example(maps=[diag(0.9, 0.85, 0.0, 0.0), anti(0.9, 0.85, 0.05, 0.1)])  # clamped
    @example(maps=[diag(1e-200, 1e-150, 0.0, 0.0), anti(1e-180, 0.5, 0.5, 0.5)])  # |dP/ds| ~ 400
    @example(maps=CREEPING_NEWTON)
    def test_newton_matches_bisection_property(self, maps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSystemWarning)
            spec = make_spec(maps)
        detail = affinity_dimension_detail(spec)
        root, clamped = bisection_root(spec)
        assert detail.clamped == clamped
        assert abs(detail.value - root) <= 1e-12
        assert len(detail.trace) <= 48
        by_s = sorted(detail.trace)
        assert all(v2 <= v1 + 1e-12 for (_, v1), (_, v2) in zip(by_s, by_s[1:]))

    @pytest.mark.parametrize("maps", [
        [diag(1 / 3, 1 / 5, 0.0, 0.0), anti(1 / 4, 1 / 5, 0.5, 0.5)], NAMED_TINY, D7_GRID],
        ids=["ex1", "named-tiny", "d7-grid"])
    def test_newton_evaluations_bounded(self, maps):
        # a bisection to 1e-13 takes 48 evaluations on each; Newton takes 5 to 8
        assert len(affinity_dimension_detail(make_spec(maps)).trace) <= 16

    def test_uniform_closed_form(self, uniform2):
        assert affinity_dimension(uniform2) == pytest.approx(np.log(2) / np.log(3), abs=1e-9)

    def test_exact_two_not_clamped(self, uniform4):
        detail = affinity_dimension_detail(uniform4)
        assert detail.value == 2.0 and not detail.clamped

    def test_clamped_when_positive_at_two(self):
        spec = make_spec([diag(0.9, 0.85, 0.0, 0.0), anti(0.9, 0.85, 0.05, 0.1)])
        detail = affinity_dimension_detail(spec)
        assert detail.value == 2.0 and detail.clamped

    def test_root_check_relative_to_slope(self):
        # |dP/ds| is near 400: |P(s*)| passes only relative to the slope, and
        # the root agrees with bisection on the 50-digit pressure
        a1, b1, a2, b2 = 1e-200, 1e-150, 1e-180, 0.5
        detail = affinity_dimension_detail(
            make_spec([diag(a1, b1, 0.0, 0.0), anti(a2, b2, 0.5, 0.5)]))
        lo, hi = 1e-9, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if decimal_log_root(a1, b1, a2, b2, mid) > 0 else (lo, mid)
        assert not detail.clamped
        assert abs(detail.value - 0.5 * (lo + hi)) <= 1e-12

    def test_bruteforce_root_agrees(self, ex1):
        # sign-change location of the depth-12 enumeration vs the library root
        sstar = affinity_dimension(ex1)
        lo, hi = 0.2, 1.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if subadditive_pressure_bruteforce(ex1, mid, 12) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - sstar) <= 0.02


class TestLyapunovEntropy:
    def test_uniform_equal_exponents(self, uniform2):
        chi1, chi2 = lyapunov_exponents(uniform2, 1.0)
        assert chi1 == pytest.approx(np.log(3), abs=1e-12)
        assert chi2 == pytest.approx(np.log(3), abs=1e-12)

    def test_uniform_entropy(self, uniform2):
        for s in (0.5, 1.0, 1.5):
            assert entropy(uniform2, s) == pytest.approx(np.log(2), abs=1e-12)

    def test_order_on_random_specs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            spec = random_spec(rng)
            s = float(rng.uniform(0.2, 1.8))
            chi1, chi2 = lyapunov_exponents(spec, s)
            assert chi1 <= chi2 + 1e-12
            h = entropy(spec, s)
            assert -1e-12 <= h <= np.log(spec.d) + 1e-9

    def test_exponents_are_the_s1_potentials_integrated(self):
        # at s = 1 each weight is its side log exactly (log a1 + 0 * log a2)
        for cfg in full_box_draw(100):
            spec = parse_ifs(json.dumps(cfg))
            pi = gibbs_markov(spec, 0.9).stationary
            assert lyapunov_exponents(spec, 0.9) == tuple(
                float(-(pi @ w)) for w in (_weight_vector(spec, 1.0), weight_vector_two(spec, 1.0)))

    def test_entropy_symmetric_in_t(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            spec = random_spec(rng)
            s = float(rng.uniform(0.2, 1.8))
            two = gibbs_markov_two(spec, s)  # the second potential's own solve
            h2 = max(two.log_pressure - float(two.stationary @ two.weights), 0.0)
            assert abs(entropy(spec, s) - h2) <= 1e-10

    def test_ex1_chain_oracle(self, ex1):
        # ergodic averages along long sampled trajectories
        chi1, chi2 = lyapunov_exponents(ex1, 1.0)
        h = entropy(ex1, 1.0)
        samples = sample_symbolic(ex1, 1.0, count=2, depth=50000, seed=55)
        lp, lq, *_ = signature_arrays(samples.words, ex1)
        est1 = float(np.mean(-np.maximum(lp, lq) / samples.depth))
        est2 = float(np.mean(-np.minimum(lp, lq) / samples.depth))
        assert abs(est1 - chi1) <= 1e-2
        assert abs(est2 - chi2) <= 1e-2
        log_nu = kaenmaki_measure(ex1, 1.0).log_cylinder_batch(samples.words)
        assert abs(float(np.mean(-log_nu / samples.depth)) - h) <= 1e-2


class TestQuasiBernoulli:
    def test_paper_family_values(self):
        spec = make_spec([diag(0.5, 0.25, 0.0, 0.0), anti(1 / 3, 1 / 3, 0.55, 0.55)])
        assert quasi_bernoulli_ratio(spec, 1.0, 1, 2, 2) == pytest.approx(0.25, abs=1e-12)
        assert quasi_bernoulli_ratio(spec, 1.0, 1, 2, 4) == pytest.approx(1 / 16, abs=1e-12)

    def test_strictly_decreasing(self):
        spec = make_spec([diag(0.5, 0.25, 0.0, 0.0), anti(1 / 3, 1 / 3, 0.55, 0.55)])
        for s in (0.6, 1.0, 1.4):
            ratios = [quasi_bernoulli_ratio(spec, s, 1, 2, n) for n in range(1, 11)]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_closed_form_below_one(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a, b = sorted(rng.uniform(0.15, 0.45, 2))
            if abs(a - b) < 0.02:
                continue
            c = float(rng.uniform(0.15, 0.45))
            spec = make_spec([diag(b, a, 0.0, 0.0), anti(c, c, 0.5, 0.5)])
            s = float(rng.uniform(0.1, 1.0 - 1e-9))
            n = int(rng.integers(1, 6))
            expected = (min(a, b) / max(a, b)) ** (n * s)
            assert quasi_bernoulli_ratio(spec, s, 1, 2, n) == \
                pytest.approx(expected, rel=1e-10)

    def test_log_closed_form_down_to_tiny_ratios(self):
        # min(1, (a/b)^n max(1, A/B))^min(s, 2-s) for a < b, in logs; the
        # ratio itself underflows to 0.0 on most of these draws
        rng = np.random.default_rng(47)
        for _ in range(100):
            a, b, big_a, big_b = np.exp(rng.uniform(np.log(1e-300), np.log(0.5), 4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSystemWarning)
                spec = make_spec([diag(a, b, 0.0, 0.0), anti(big_a, big_b, 0.5, 0.5)])
            if a > b:
                a, b, big_a, big_b = b, a, big_b, big_a
            s = float(rng.uniform(0.05, 1.95))
            for n in (1, 2, 4):
                want = min(s, 2.0 - s) * min(0.0, n * np.log(a / b)
                                             + max(0.0, np.log(big_a / big_b)))
                got = log_quasi_bernoulli_ratio(spec, s, 1, 2, n)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, big_a, big_b, s, n)
                assert quasi_bernoulli_ratio(spec, s, 1, 2, n) == np.exp(got)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_closed_form_matches_three_phi_oracle_on_full_box(self, data):
        # the three-phi route is a difference of logs near -1e4 at these ratios
        spec, s = draw_tiny_ratio_system(data, FULL_BOX_RATIO)
        i = next((k + 1 for k, m in enumerate(spec.maps) if not m.anti and m.a != m.b), None)
        assume(i is not None)
        j, n = spec.l, data.draw(st.integers(1, 8), label="n")
        got = log_quasi_bernoulli_ratio(spec, s, i, j, n)
        u, v = (i,) * n + (j,), (i,) * n
        log_phi = log_svf_phi(spec, s, u + v)
        want = log_phi - log_svf_phi(spec, s, u) - log_svf_phi(spec, s, v)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(log_phi)), (got, want)
        la, lb, l_big_a, l_big_b = np.log([spec.a[i - 1], spec.b[i - 1],
                                          spec.a[j - 1], spec.b[j - 1]])
        if la > lb:
            la, lb, l_big_a, l_big_b = lb, la, l_big_b, l_big_a
        if n * (lb - la) <= l_big_a - l_big_b:
            assert got == 0.0
        logs = [log_quasi_bernoulli_ratio(spec, s, i, j, m) for m in range(1, 5)]
        assert _comparability_decays(logs), logs

    def test_bad_kinds(self, ex1, uniform2):
        with pytest.raises(BadMapKinds):
            quasi_bernoulli_ratio(ex1, 1.0, 2, 1, 2)  # kinds swapped
        with pytest.raises(BadMapKinds):
            quasi_bernoulli_ratio(uniform2, 1.0, 1, 2, 2)  # a == b degenerate


class TestSubmultiplicativity:
    def test_uniform_is_exactly_bernoulli(self, uniform2):
        wu, wl = np.exp(submultiplicativity_check(uniform2, 1.0, 6))
        assert wu == pytest.approx(1.0, abs=1e-12)
        assert wl == pytest.approx(1.0, abs=1e-12)

    def test_ex1_upper_bounded_and_stable(self, ex1):
        sstar = affinity_dimension(ex1)
        lo, up = np.exp(kaenmaki_measure(ex1, sstar).log_envelope())
        wu6, _ = np.exp(submultiplicativity_check(ex1, sstar, 6))
        wu8, wl8 = np.exp(submultiplicativity_check(ex1, sstar, 8))
        assert wu8 <= up / lo ** 2 * (1 + 1e-9)
        assert wu6 <= wu8 <= wu6 * 1.10  # grows with the pair set, but slowly
        assert wl8 < wu8

    def test_keeps_only_log_nu_per_level(self):
        # levels 1..8 at d = 5: level 8 alone is 390625 words, 3 MB per float array
        spec = grid_spec(5, 2, seed=5)
        tracemalloc.start()
        try:
            log_wu, log_wl = submultiplicativity_check(spec, 0.7, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
        # the values against the pair grid: test_corners_match_pair_grid's first example
        assert np.isfinite([log_wu, log_wl]).all() and log_wl <= log_wu

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(system=tiny_ratio_systems(), s_at=st.sampled_from(["drawn", "root", "near two"]),
           max_len=st.integers(2, 8))
    @example(system=(grid_spec(5, 2, seed=5), 0.7), s_at="drawn", max_len=8)
    # a == b on every map: D = 0 on every word, so all four corners coincide
    @example(system=(SQUARE_MAPS, 0.8), s_at="drawn", max_len=8)
    @example(system=(ULP_RATIO_MAPS, 1.0), s_at="root", max_len=6)
    @example(system=(uniform_spec(3, 1e-150, n_anti=2), 1.9), s_at="drawn", max_len=7)
    @example(system=(FULL_BOX_140, 1.0), s_at="root", max_len=4)
    def test_corners_match_pair_grid(self, system, s_at, max_len):
        # the corners of each level's D range against every pair of words, s drawn on
        # both pieces, at the root (clamped below 2 as verify does) and at 2 - 1e-12;
        # the pair grid's log nu are sums of up to max_len chain steps, each about
        # 1e-12 off where |log nu| is in the thousands, hence the bound's last term
        spec, s = system
        if s_at == "root":
            s = min(affinity_dimension(spec), 2.0 - 1e-12)
        elif s_at == "near two":
            s = 2.0 - 1e-12
        while spec.d ** max_len > 5 ** 8:
            max_len -= 1
        got = submultiplicativity_check(spec, s, max_len)
        *want, largest = submultiplicativity_reference(spec, s, max_len)
        assert np.isfinite(want).all()
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w), largest), (got, want)

    def test_nan_ratio_makes_both_nan(self, ex1):
        # NaN in m1's row of symbol 1, which m2 reads as its row of symbol 1 + d: the
        # words whose lift steps into either have NaN mass, the others do not
        nu = kaenmaki_measure(ex1, 0.9)
        log_rows = nu.m1.log_rows.copy()
        log_rows[0, 0] = np.nan
        bad = dataclasses.replace(nu, m1=dataclasses.replace(nu.m1, log_rows=log_rows))
        # the ratios read beta1 at odd parity only where u, v or uv is odd: the
        # pairs of even words keep finite ratios
        betas = nu.log_betas()
        betas[0, 1] = np.nan
        with mock.patch.object(thermo, "kaenmaki_measure", lambda spec, s: bad), \
                mock.patch.object(thermo.KaenmakiMeasure, "log_betas", lambda self: betas.copy()):
            _, log_nu = level_log_measures(ex1, 0.9, 3)
            extremes = submultiplicativity_check(ex1, 0.9, 4)
        assert np.isnan(log_nu).any() and not np.isnan(log_nu).all()
        assert np.isnan(extremes).all(), extremes

    def test_lower_decays_along_sandwich_family(self, ex1):
        sstar = affinity_dimension(ex1)
        nu = kaenmaki_measure(ex1, sstar)

        def family_ratio(n):
            w = (1,) * n + (2,) + (1,) * n
            return np.exp(nu.log_cylinder(w) - nu.log_cylinder((1,) * n + (2,))
                          - nu.log_cylinder((1,) * n))

        assert family_ratio(4) < family_ratio(2)


class TestSummary:
    def test_fields_coherent(self, ex1):
        s = affinity_dimension(ex1)
        summary = thermo_summary(ex1, s)
        assert summary.chi1 <= summary.chi2
        assert abs(summary.pressure) <= 1e-12
        assert summary.affinity_dim == pytest.approx(s, abs=0)
        assert summary.entropy == pytest.approx(s * summary.chi1, rel=1e-10)
