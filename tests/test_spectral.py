import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kseq import spectral
from kseq.precision import working
from kseq.spectral import (
    CharPoly,
    SpectralError,
    chain_trace,
    char_roots,
    eigen_cut_for,
    eigen_product_log,
    eigen_sum,
    primary_root,
    spectral_chain,
    transition_matrix,
    transition_tail_product,
)
from kseq.asymptotics import f_k
from kseq.transfer import _product_steps, z_of


def unit_root(k, j):
    return mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * j / k)


def test_primary_root_quadratic_case():
    with working(50):
        lam = primary_root(2, mpmath.mpf(1) / 2)
        assert abs(lam - (1 + mpmath.sqrt(3))) < mpmath.mpf("1e-60")


def test_primary_root_large_z_trend():
    with working(40):
        for k in (2, 3, 4):
            prev = None
            for z in (1e3, 1e6, 1e9):
                ratio = primary_root(k, z, 40) * mpmath.mpf(z) ** (mpmath.mpf(1) / k)
                gap = abs(ratio - 1)
                if prev is not None:
                    assert gap < prev
                prev = gap
            assert prev < 1e-2


def test_primary_root_small_z_trend():
    with working(40):
        for k in (2, 3):
            prev = None
            for z in (1e-2, 1e-4, 1e-6):
                ratio = primary_root(k, z, 40) * mpmath.mpf(z)
                gap = abs(ratio - 1)
                if prev is not None:
                    assert gap < prev
                prev = gap
            assert prev < 1e-4


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=2, max_value=8),
    log_z=st.floats(min_value=-330, max_value=330),
    digits=st.sampled_from((15, 50, 100)),
)
def test_primary_root_residual_and_sign_change(k, log_z, digits):
    # beyond 1e+-290 the double-precision seed gives way to the cold seed
    with working(digits):
        z = mpmath.mpf(10) ** log_z
        root = primary_root(k, z, digits)
        poly = CharPoly(k, z)
        assert abs(poly.value(root)) <= mpmath.mpf(10) ** -digits * poly.magnitude(root)
        delta = mpmath.mpf(10) ** -(digits - 5)
        assert poly.value(root * (1 - delta)) < 0 < poly.value(root * (1 + delta))


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=2, max_value=8),
    log_z=st.floats(min_value=-300, max_value=300),
    digits=st.sampled_from((15, 50, 100)),
)
def test_char_poly_positive_at_bracket_end(k, log_z, digits):
    # primary_root's bracket [0, 2(1 + w)] holds x_1 with no search for hi
    with working(digits):
        poly = CharPoly(k, mpmath.mpf(10) ** log_z)
        assert poly.value(2 * (1 + poly.w)) > 0


def test_primary_root_step_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_ROOT_MAX_STEPS", 1)
    with pytest.raises(SpectralError, match="bracket width"):
        primary_root(3, mpmath.mpf("0.37"))


def test_primary_root_chain_evaluation_budget(monkeypatch):
    # from a double-precision seed Newton needs three evaluations per root; a
    # seed good to a few percent needs 7 to 12, and bisecting from a stale
    # bracket after Newton has converged over 100
    calls = 0
    value = CharPoly.value

    def counted(self, x):
        nonlocal calls
        calls += 1
        return value(self, x)

    monkeypatch.setattr(CharPoly, "value", counted)
    for k, s in ((2, 0.05), (5, 0.2)):
        calls = 0
        cut = eigen_cut_for(k, s, 1e-12)
        eigen_sum(k, s, 1, cut)
        assert calls <= 5 * cut, (k, s, calls / cut)


@settings(deadline=None, max_examples=25)
@given(
    k=st.integers(min_value=2, max_value=8),
    s=st.floats(min_value=0.05, max_value=0.3),
    m=st.sampled_from((2, 3, 4)),
    n=st.integers(min_value=1, max_value=40),
)
def test_root_table_is_bit_identical_to_fresh_solves(k, s, m, n):
    with working(50):
        coarse = m * mpmath.mpf(s)  # exact, so (j m) s and j (m s) are one key
    table = {}
    shared = (
        eigen_sum(k, coarse, 1, n, roots=table),
        eigen_sum(k, s, 1, m * n, roots=table),
        transition_tail_product(k, s, 2, m * n, roots=table),
    )
    # the fine chains at n s = 1..m n (and m n + 1) added no second root
    # for the coarse chain's products j m s
    assert len(table) == m * n + 1
    fresh = (
        eigen_sum(k, coarse, 1, n),
        eigen_sum(k, s, 1, m * n),
        transition_tail_product(k, s, 2, m * n),
    )
    assert shared[0]._mpf_ == fresh[0]._mpf_
    assert shared[1]._mpf_ == fresh[1]._mpf_
    assert shared[2] == fresh[2]


def test_root_table_keys_on_k_and_digits():
    table = {}
    first = eigen_sum(2, 0.1, 1, 12, roots=table)
    assert eigen_sum(3, 0.1, 1, 12, roots=table)._mpf_ == eigen_sum(3, 0.1, 1, 12)._mpf_
    assert eigen_sum(2, 0.1, 1, 12, 30, roots=table)._mpf_ == eigen_sum(2, 0.1, 1, 12, 30)._mpf_
    assert eigen_sum(2, 0.1, 1, 12, roots=table)._mpf_ == first._mpf_
    assert len(table) == 3 * 12


def test_char_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        CharPoly(1, mpmath.mpf(1))
    with pytest.raises(ValueError):
        CharPoly(2, mpmath.mpf(0))


def test_char_roots_residuals_and_vieta():
    with working(50):
        for k in (2, 3, 4, 5):
            for z in ("0.003", "0.4", "1.7", "800"):
                point = char_roots(k, mpmath.mpf(z))
                assert max(point.residuals()) < mpmath.mpf("1e-42")
                w = 1 / point.z
                assert abs(mpmath.fsum(point.roots) - w) < w * mpmath.mpf("1e-40")
                sign = (-1) ** (k + 1)
                assert abs(mpmath.fprod(point.roots) - sign * w) < w * mpmath.mpf("1e-40")


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=2, max_value=8),
    digits=st.sampled_from((15, 30, 50, 100)),
    data=st.data(),
)
def test_char_roots_tiny_to_large_z(k, digits, data):
    # down to z = 10^-(digits+40), where x_1 ~ 1/z and the other roots sit
    # near the unit circle
    log_z = data.draw(st.floats(min_value=-(digits + 40), max_value=6))
    with working(digits):
        z = mpmath.mpf(10) ** log_z
        point = char_roots(k, z, digits)
        assert max(point.residuals()) <= mpmath.mpf(10) ** -(digits - 8)
        assert point.roots[0] == primary_root(k, z, digits)
        w = 1 / point.z
        tol = w * mpmath.mpf(10) ** -(digits - 10)
        assert abs(mpmath.fsum(point.roots) - w) <= tol
        assert abs(mpmath.fprod(point.roots) - (-1) ** (k + 1) * w) <= tol
        # label j >= 1 sits in the sector of e^{2 pi i j / k}
        for j in range(1, k):
            d = abs(mpmath.arg(point.roots[j]) - 2 * mpmath.pi * j / k) % (2 * mpmath.pi)
            assert min(d, 2 * mpmath.pi - d) < mpmath.pi / k


def test_char_roots_second_order_asymptotics():
    # x_j = w_j z^{-1/k} (1 + w_j z^{-1/k}/k + O(z^{-2/k})) at large z
    with working(50):
        k, z = 3, mpmath.mpf(1000)
        point = char_roots(k, z)
        r = z ** (-mpmath.mpf(1) / k)
        for j, root in enumerate(point.roots):
            w = unit_root(k, j)
            predicted = w * r * (1 + w * r / k)
            assert abs(root - predicted) < 10 * abs(root) * r**2


def test_labeling_small_z():
    # x_1 ~ 1/z, the others sit near the non-unit k-th roots of unity
    with working(40):
        k = 4
        point = char_roots(k, mpmath.mpf("0.001"), 40)
        assert abs(point.roots[0] - 1000) < 10
        for j in range(1, k):
            assert abs(point.roots[j] - unit_root(k, j)) < mpmath.mpf("0.01")


def test_eigendecomposition_reconstructs_transfer_matrix():
    with working(50):
        for k in (2, 3, 4):
            for z in ("0.05", "2.3", "40"):
                point = char_roots(k, mpmath.mpf(z))
                recon = point.reconstruct_m()
                scale = max(1, point.z)
                for i in range(k):
                    for j in range(k):
                        target = 1 if i == 0 else (point.z if j == i - 1 else 0)
                        assert abs(recon[i, j] - target) < scale * mpmath.mpf("1e-40")


def test_transition_identity_at_same_point():
    with working(40):
        point = char_roots(3, mpmath.mpf("0.8"), 40)
        t = transition_matrix(point, point, 40)
        for i in range(3):
            for j in range(3):
                target = 1 if i == j else 0
                assert abs(t[i, j] - target) < mpmath.mpf("1e-38")


def test_transition_closed_form_vs_direct_inversion():
    with working(50):
        prev = None
        for n, point in spectral_chain(3, 0.02, 40, 44):
            if prev is not None:
                transition_matrix(prev, point, validate=True)
            prev = point


def test_transition_near_identity_scale():
    # max |T - I| = O(s + 1/n): the ratio stays bounded over the grid
    with working(40):
        ratios = []
        for k, s, n in [(2, 0.01, 100), (2, 0.05, 30), (3, 0.02, 60), (4, 0.01, 200)]:
            points = dict(spectral_chain(k, s, n, n + 1, 40))
            t = transition_matrix(points[n], points[n + 1], 40)
            dev = max(
                abs(t[i, j] - (1 if i == j else 0))
                for i in range(k)
                for j in range(k)
            )
            ratios.append(dev / (s + 1 / n))
        assert max(ratios) < 2


def test_transition_lagrange_row_interpretation():
    # row i of T evaluates at mu_j^{-1} the polynomial with p(x_l^{-1}) = delta_{l,i}
    with working(40):
        k = 3
        pts = dict(spectral_chain(k, 0.1, 7, 8, 40))
        t = transition_matrix(pts[7], pts[8], 40)
        lam = pts[8].roots
        mu = pts[7].roots
        for i in range(k):
            for j in range(k):
                val = mpmath.mpc(1)
                for m in range(k):
                    if m != i:
                        val *= (1 / mu[j] - 1 / lam[m]) / (1 / lam[i] - 1 / lam[m])
                assert abs(val - t[i, j]) < mpmath.mpf("1e-35")


def test_label_continuation_no_swaps():
    with working(40):
        count = 0
        for n, point in spectral_chain(4, 0.05, 2, 30, 40):
            count += 1
        assert count == 29


def test_lambda1_decreasing_in_z():
    # x_1 falls as z grows; z = k puts x_1 at exactly 1
    with working(40):
        for k in (2, 3):
            roots = [primary_root(k, mpmath.mpf(z), 40) for z in ("0.01", "0.5", "3", "100")]
            assert all(b < a for a, b in zip(roots, roots[1:]))
            assert abs(primary_root(k, mpmath.mpf(k), 40) - 1) < mpmath.mpf("1e-38")


@settings(deadline=None, max_examples=100)
@given(
    k=st.sampled_from((2, 3, 5, 8)),
    s=st.sampled_from(("0.3", "0.05", "0.01")),
    n=st.sampled_from((2, 10, 100, 400)),
    digits=st.sampled_from((15, 50, 100)),
)
def test_two_root_entry11_matches_lagrange_form(k, s, n, digits):
    # the product over n..n is the single factor T(n)^{1,1} from the primary
    # roots alone; the k x k Lagrange form from all labeled roots must agree
    with working(digits):
        s = mpmath.mpf(s)
        points = dict(spectral_chain(k, s, n, n + 1, digits))
        lagrange = transition_matrix(points[n], points[n + 1], digits)[0, 0].real
        two_root = mpmath.exp(transition_tail_product(k, s, n, n, digits).log_product)
        assert abs(two_root - lagrange) <= mpmath.mpf(10) ** -(digits - 10)


def test_chain_trace_reads_entry11_from_the_primary_roots(monkeypatch):
    # the trace's T^{1,1} column is the two-root formula transition_tail_product
    # sums, not the full k x k matrix, which production no longer builds
    def no_matrix(*args, **kwargs):
        raise AssertionError("chain_trace built the full transition matrix")

    monkeypatch.setattr(spectral, "transition_matrix", no_matrix)
    k, s, n_start, n_end = 3, mpmath.mpf("0.05"), 20, 26
    rows = chain_trace(k, s, n_start, n_end, 40)
    assert [row[0] for row in rows] == list(range(n_start, n_end + 1))
    assert len(rows[-1]) == 1 + 2 * k
    with working(40):
        for row in rows[:-1]:
            n = row[0]
            single = transition_tail_product(k, s, n, n, 40).log_product
            assert abs(mpmath.log(row[-1]) - single) < mpmath.mpf("1e-35")


def test_transition_matrix_is_the_matrix():
    with working(40):
        points = dict(spectral_chain(2, 0.1, 7, 8, 40))
        t = transition_matrix(points[7], points[8], 40)
        assert isinstance(t, mpmath.matrix) and (t.rows, t.cols) == (2, 2)


def test_transition_tail_single_factor_limit():
    with working(40):
        s = mpmath.mpf("0.05")
        prev_t11 = None
        for n in (200, 400, 800):
            pts = dict(spectral_chain(2, s, n, n + 1, 40))
            t11 = transition_matrix(pts[n], pts[n + 1], 40)[0, 0].real
            gap = abs(t11 - 1)
            if prev_t11 is not None:
                assert gap < prev_t11
            prev_t11 = gap
        assert prev_t11 < 1e-4


def test_transition_tail_product_prediction_improves():
    with working(40):
        k = 2
        residuals = []
        for s in ("0.05", "0.02"):
            s = mpmath.mpf(s)
            N = max(2, int(mpmath.floor(s ** (-mpmath.mpf(3) / 7))))
            M = int(35 / s)
            res = transition_tail_product(k, s, N, M, 40)
            residuals.append(abs(res.residual))
        assert residuals[1] < residuals[0]


def test_eigen_terms_match_fk():
    # per-term identity x_1(n) q^n = f_k(e^{-ns})
    with working(50):
        s = mpmath.mpf("0.07")
        for k in (2, 3):
            for n in (1, 5, 20):
                lam = primary_root(k, z_of(n, s), 50)
                lhs = lam * mpmath.exp(-n * s)
                rhs = f_k(mpmath.exp(-n * s), k, 50)
                assert abs(lhs - rhs) < mpmath.mpf("1e-45")
                assert lhs < 1  # log of each f_k factor is negative


def test_eigen_product_tail_bound_is_conservative():
    with working(40):
        k, s = 2, mpmath.mpf("0.05")
        cut = eigen_cut_for(k, s, mpmath.mpf("1e-9"), 40)
        res = eigen_product_log(k, s, cut, 40)
        actual_tail = eigen_sum(k, s, cut + 1, cut + int(40 / s), 40)
        assert res.tail_bound < mpmath.mpf("1e-9")
        assert abs(actual_tail) <= res.tail_bound


def test_eigen_product_requires_usable_cut():
    with pytest.raises(ValueError):
        eigen_product_log(2, 0.01, 50)


def test_domination_of_primary_eigencoordinate():
    # |w(n)_i| / |w(n)_1| stays within C (n^{-(k+1)/k} s^{-1/k} + s) once the
    # run-up is past; one C works across the grid
    with working(40):
        cs = []
        for k in (2, 3):
            for s in ("0.05", "0.02"):
                s = mpmath.mpf(s)
                checkpoints = {int(2 * float(s) ** -0.6), int(1 / float(s)), int(3 / float(s))}
                top = max(checkpoints)
                for n, (_, _, ratios) in zip(range(1, top + 1), _product_steps(k, s)):
                    if n in checkpoints:
                        point = char_roots(k, z_of(n + 1, s, 40), 40)
                        vec = mpmath.matrix([mpmath.mpf(1)] + ratios)
                        w = mpmath.lu_solve(point.A, vec)
                        envelope = (n + 1) ** (-(k + 1) / mpmath.mpf(k)) * s ** (
                            -mpmath.mpf(1) / k
                        ) + s
                        ratio = max(abs(w[i]) for i in range(1, k)) / abs(w[0])
                        cs.append(ratio / envelope)
        assert max(cs) < 3


def test_eigenvalue_ratio_decay():
    # |x_i / x_1| <= exp(-c (ns)^{1/k}) with a stable positive c for ns <= 1
    with working(40):
        fitted = []
        for k in (2, 3, 4):
            s = mpmath.mpf("0.01")
            for n in (5, 20, 60, 100):
                point = char_roots(k, z_of(n, s, 40), 40)
                lam1 = abs(point.roots[0])
                worst = max(abs(point.roots[j]) for j in range(1, k))
                c = -mpmath.log(worst / lam1) / (n * s) ** (mpmath.mpf(1) / k)
                fitted.append(c)
        assert min(fitted) > mpmath.mpf("0.3")


def test_reconstruction_matches_m_matrix_module():
    # A D A^{-1} at z(n) equals the transfer matrix built from its definition
    with working(40):
        for k, n, s in ((2, 3, 0.2), (3, 7, 0.05), (4, 2, 0.4)):
            z = z_of(n, s, 40)
            recon = char_roots(k, z, 40).reconstruct_m()
            m = mpmath.matrix(k, k)
            for j in range(k):
                m[0, j] = 1
            for i in range(1, k):
                m[i, i - 1] = z
            scale = max(1, abs(m[1, 0]))
            for i in range(k):
                for j in range(k):
                    assert abs(recon[i, j] - m[i, j]) < scale * mpmath.mpf("1e-30")
