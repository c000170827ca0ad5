import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_words,
    anti,
    coded_word,
    compose_loop,
    dense_transition,
    diag,
    random_spec,
    rho_symbol,
    signature_rows_reference,
)
from kaenmaki import check_mixing, make_spec, transition_matrix
from kaenmaki.coding import encode_tau, product_signature, signature_arrays, tau_arrays
from kaenmaki.errors import BadShape, DegenerateSystemWarning


def dummy_spec(d, l):
    """Any valid spec with the requested (d, l); ratios are irrelevant here."""
    maps = [diag(0.3, 0.2, 0.01 * k, 0.01 * k) for k in range(l - 1)]
    maps += [anti(0.3, 0.2, 0.5, 0.5 - 0.01 * k) for k in range(d - l + 1)]
    return make_spec(maps)


def expand_rows(row_class):
    """The 2d x 2d 0/1 matrix whose row i allows j exactly when row_class[i-1] == (j > d)."""
    d = len(row_class) // 2
    return (np.asarray(row_class)[:, None] == (np.arange(1, 2 * d + 1) > d)[None, :]) \
        .astype(np.int64)


class TestTransitionMatrix:
    def test_d2_l2_exact(self):
        row_class = transition_matrix(2, 2)
        assert row_class.tolist() == [0, 1, 1, 0]
        assert not row_class.flags.writeable
        assert expand_rows(row_class).tolist() == [
            [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]]

    def test_d3_l2(self):
        tm = expand_rows(transition_matrix(3, 2))
        for row in (1, 5, 6):
            assert tm[row - 1].tolist() == [1, 1, 1, 0, 0, 0]
        for row in (2, 3, 4):
            assert tm[row - 1].tolist() == [0, 0, 0, 1, 1, 1]

    def test_matches_dense_oracle(self):
        for d in range(2, 41):
            for l in range(2, d + 1):
                assert (expand_rows(transition_matrix(d, l)) == dense_transition(d, l)).all()

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            transition_matrix(2, 1)
        with pytest.raises(BadShape):
            transition_matrix(2, 3)

    def test_row_sums(self):
        for d in range(2, 7):
            for l in range(2, d + 1):
                tm = expand_rows(transition_matrix(d, l))
                assert (tm.sum(axis=1) == d).all()

    def test_involution_symmetry(self):
        # the shift-by-d involution maps the matrix to itself
        for d in range(2, 7):
            for l in range(2, d + 1):
                tm = expand_rows(transition_matrix(d, l))
                n = 2 * d
                perm = np.array([rho_symbol(i, d) - 1 for i in range(1, n + 1)])
                assert (tm[np.ix_(perm, perm)] == tm).all()


class TestMixing:
    def test_all_valid_pairs_mix(self):
        for d in range(2, 7):
            for l in range(2, d + 1):
                assert check_mixing(transition_matrix(d, l))

    def test_identity_does_not_mix(self):
        # each state is followed by its own half only: the chain never leaves it
        assert not check_mixing(np.array([0, 0, 1, 1]))

    def test_matches_dense_square(self):
        # every valid shape against T^2 > 0 on the dense matrix, d <= 40
        for d in range(2, 41):
            for l in range(2, d + 1):
                T = dense_transition(d, l)
                assert check_mixing(transition_matrix(d, l)) == bool(((T @ T) > 0).all())

    def test_row_class_vectors_match_dense_square(self):
        # every 0/1 vector of length 2d, d <= 4, mixing or not
        for d in range(1, 5):
            for bits in range(2 ** (2 * d)):
                row_class = np.array([(bits >> k) & 1 for k in range(2 * d)])
                T = expand_rows(row_class)
                assert check_mixing(row_class) == bool(((T @ T) > 0).all()), row_class


class TestCodedWord:
    def test_admissibility_matches_dense_oracle(self):
        for d, l in [(2, 2), (3, 2), (3, 3), (4, 3)]:
            T = dense_transition(d, l)
            row_class = transition_matrix(d, l)
            for w in all_words(2 * d, 3):
                want = bool(T[w[0] - 1, w[1] - 1] and T[w[1] - 1, w[2] - 1])
                assert coded_word(w, row_class).admissible == want


class TestTauOmega:
    def test_tau_example(self):
        spec = dummy_spec(2, 2)
        assert encode_tau((1, 2, 2, 1), spec) == (1, 2, 4, 1)

    def test_diagonal_only_word_unshifted(self):
        spec = dummy_spec(3, 3)
        assert encode_tau((1, 2, 1, 2, 1), spec) == (1, 2, 1, 2, 1)

    def test_single_letter_never_shifted(self):
        spec = dummy_spec(2, 2)
        assert encode_tau((2,), spec) == (2,)

    def test_tau_admissible_exhaustive(self):
        # every lift is admissible and starts in the unshifted half
        for d, l in [(2, 2), (3, 2), (3, 3)]:
            spec = dummy_spec(d, l)
            tm = dense_transition(d, l)
            for n in range(1, 11):
                words = all_words(d, n)
                coded = tau_arrays(words, spec)
                assert (coded[:, 0] <= d).all()
                ok = tm[coded[:, :-1] - 1, coded[:, 1:] - 1]
                assert ok.all() if n > 1 else True

    def test_omega_admissible_starts_high(self):
        # the complementary lift (tau shifted by d mod 2d) is admissible too
        spec = dummy_spec(2, 2)
        tm = dense_transition(2, 2)
        for n in range(1, 9):
            omega = rho_symbol(tau_arrays(all_words(2, n), spec), spec.d)
            assert (omega[:, 0] > spec.d).all()
            assert tm[omega[:, :-1] - 1, omega[:, 1:] - 1].all()


class TestDecode:
    def test_roundtrip_exhaustive(self):
        for d, l in [(2, 2), (3, 2), (3, 3)]:
            spec = dummy_spec(d, l)
            for n in range(1, 9):
                words = all_words(d, n)
                coded = tau_arrays(words, spec)
                decoded = (coded - 1) % d + 1
                assert (decoded == words).all()


class TestProductSignature:
    def test_ex1_example(self, ex1):
        log_p, log_q, parity = product_signature((1, 2), ex1)
        assert parity == 1
        assert np.exp(log_p) == pytest.approx(1 / 12, rel=1e-15)
        assert np.exp(log_q) == pytest.approx(1 / 25, rel=1e-15)
        assert np.exp(max(log_p, log_q)) == pytest.approx(1 / 12, rel=1e-15)
        assert np.exp(min(log_p, log_q)) == pytest.approx(1 / 25, rel=1e-15)

    def test_diagonal_powers(self, ex1):
        log_p, log_q, parity = product_signature((1,) * 6, ex1)
        assert parity == 0
        assert log_p == pytest.approx(6 * np.log(1 / 3), rel=1e-14)
        assert log_q == pytest.approx(6 * np.log(1 / 5), rel=1e-14)

    def test_sandwich_family(self):
        # i^2 j i^2 with ratios (1/2, 1/4) and (1/3, 1/3): both entries 1/192
        spec = make_spec([diag(0.5, 0.25, 0.0, 0.0), anti(1 / 3, 1 / 3, 0.55, 0.55)])
        log_p, log_q, parity = product_signature((1, 1, 2, 1, 1), spec)
        assert parity == 1
        assert np.exp(log_p) == pytest.approx(1 / 192, rel=1e-13)
        assert np.exp(log_q) == pytest.approx(1 / 192, rel=1e-13)

    def test_parity_counts_anti_letters(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            spec = random_spec(rng)
            n = int(rng.integers(1, 12))
            w = tuple(int(x) for x in rng.integers(1, spec.d + 1, n))
            _, _, parity = product_signature(w, spec)
            assert parity == sum(1 for i in w if i >= spec.l) % 2

    @settings(max_examples=60, derandomize=True)
    @given(st.data())
    def test_matches_dense_product(self, data):
        # independent oracle: multiply the actual 2x2 matrices and take the SVD
        seed = data.draw(st.integers(0, 10 ** 6))
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        n = int(rng.integers(1, 21))
        w = [int(x) for x in rng.integers(1, spec.d + 1, n)]
        prod = np.eye(2)
        for i in w:
            m = spec.map(i)
            mat = np.array([[0.0, m.a], [m.b, 0.0]]) if m.anti else np.diag([m.a, m.b])
            prod = prod @ mat
        sv = np.linalg.svd(prod, compute_uv=False)
        log_p, log_q, _ = product_signature(w, spec)
        assert np.exp(max(log_p, log_q)) == pytest.approx(sv[0], rel=1e-12)
        assert np.exp(min(log_p, log_q)) == pytest.approx(sv[1], rel=1e-12)

    def test_vectorized_matches_scalar(self, ex1):
        rng = np.random.default_rng(19)
        for spec, words in [(ex1, all_words(2, 7)), (random_spec(rng, 3), all_words(3, 5))]:
            lp, lq, par, x, y = signature_arrays(words, spec)
            for k in range(len(words)):
                want = compose_loop(spec, words[k])
                assert lp[k] == pytest.approx(want[0], rel=1e-14)
                assert lq[k] == pytest.approx(want[1], rel=1e-14)
                assert bool(par[k]) == want[2]
                assert (x[k], y[k]) == want[3:]  # same expression, same order
            assert product_signature(words[-1], spec) == (lp[-1], lq[-1], par[-1])


def box_spec(rng, d):
    """d maps with ratios over the whole box (log-uniform down to 1e-300 or
    uniform, with equal odds) and translations anywhere inside the square."""
    n_diag = int(rng.integers(1, d))
    ratios = np.where(rng.random((d, 2)) < 0.5,
                      np.exp(rng.uniform(np.log(1e-300), np.log(0.999), (d, 2))),
                      rng.uniform(1e-3, 0.999, (d, 2)))
    maps = []
    for k, (a, b) in enumerate(ratios.tolist()):
        fx, fy = rng.random(2).tolist()
        maps.append((diag if k < n_diag else anti)(a, b, fx * (1.0 - a), fy * (1.0 - b)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        return make_spec(maps)


class TestSuffixTable:
    """signature_arrays composes the last k columns once per suffix (d^k <= N)."""

    @staticmethod
    def assert_bitwise_reference(words, spec):
        got, want = signature_arrays(words, spec), signature_rows_reference(words, spec)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            if g.dtype == np.float64:
                g, w = g.view(np.uint64), w.view(np.uint64)
            assert np.array_equal(g, w)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_row_by_row_pass(self, data):
        d = data.draw(st.integers(2, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        spec = box_spec(rng, d)
        k = data.draw(st.integers(0, int(np.log(20000) / np.log(d))))
        n_rows = max(0, d ** k + data.draw(st.sampled_from([-1, 0, 1])))
        n_cols = data.draw(st.integers(0, k + 3))  # n < k, n = k, and the (N, 0) batch
        dtype = data.draw(st.sampled_from(
            [np.uint16, np.int64, np.uint64] + ([np.uint8] if 2 * d <= 255 else [])))
        order = data.draw(st.sampled_from("CF"))
        words = np.asarray(rng.integers(1, d + 1, (n_rows, n_cols)), dtype=dtype, order=order)
        self.assert_bitwise_reference(words, spec)

    @pytest.mark.parametrize("d, n_rows, n_cols", [
        (2, 1, 30), (200, 1, 3), (3, 9, 0), (3, 9, 2), (3, 26, 2), (3, 28, 3),
        (2, 1024, 10), (2, 1025, 10), (130, 131, 4), (200, 40000, 2)])
    def test_corner_batches(self, d, n_rows, n_cols):
        rng = np.random.default_rng(d * n_rows + n_cols)
        spec = box_spec(rng, d)
        words = rng.integers(1, d + 1, (n_rows, n_cols)).astype(np.min_scalar_type(2 * d))
        self.assert_bitwise_reference(words, spec)
