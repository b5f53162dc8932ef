import mpmath

from kseq.precision import LogValue, working
from kseq.transfer import iterate_product, z_of


def test_round_trip():
    # LogValue keeps an mpf bit for bit, even one finer than the context
    with working(80):
        x = -mpmath.mpf(13) / 4 + mpmath.mpf(1) / 3
    with working(50):
        assert LogValue(x).log()._mpf_ == x._mpf_


def test_huge_magnitudes_never_overflow():
    # numeric state vectors carry magnitudes far past the double range, and
    # one step of m(N) still holds among them: v_1(N) = z(N) v_0(N - 1)
    with working(50):
        k, s, N = 2, mpmath.mpf("0.001"), 4000
        prev = iterate_product(k, N - 1, s=s).entries[0]
        cur = iterate_product(k, N, s=s).entries
        assert 1000 < cur[0] < mpmath.inf
        want = mpmath.log(z_of(N, s)) + prev
        assert abs(cur[1] - want) < abs(want) * mpmath.mpf("1e-40")


def test_working_precision_contract():
    """Operations keep at least d-5 digits: rerun at doubled precision."""
    def chain(digits):
        with working(digits):
            acc = mpmath.mpf(1)
            for n in range(1, 400):
                acc = acc * mpmath.exp(mpmath.mpf(1) / n) / (1 + mpmath.mpf(1) / n**2)
            return acc

    d = 30
    lo, hi = chain(d), chain(2 * d)
    with working(2 * d):
        rel = abs(lo - hi) / hi
        assert rel < mpmath.mpf(10) ** (-(d - 5))
