import hashlib
import math

import mpmath
import pytest

from kseq.asymptotics import f_k
from kseq.cli import RunConfig
from kseq.counting import Constraint
from kseq.precision import LogValue, _float_newton, _newton_in_bracket, working
from kseq.probability import ModelParams
from kseq.spectral import primary_root
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


def test_record_classes_behave_as_dataclasses():
    # init: positional, keyword, defaults, then __post_init__'s validation
    c = Constraint(3, r=2)
    assert (c.k, c.r, c.min_part_bound) == (3, 2, 0)
    assert Constraint(3, 2, 0) == c == Constraint(min_part_bound=0, k=3, r=2)
    for bad in ({"k": 1}, {"k": 2, "r": 0}, {"k": 2, "min_part_bound": -1}):
        with pytest.raises(ValueError):
            Constraint(**bad)
    with pytest.raises(ValueError, match="seed"):
        ModelParams(2, 0.5, 10**4, 2**128)
    for args, kwargs in (((), {}), ((2, 1, 0, 4), {}), ((2,), {"k": 2}), ((2,), {"q": 1})):
        with pytest.raises(TypeError):
            Constraint(*args, **kwargs)
    # repr, eq and hash of a frozen class
    assert repr(c) == "Constraint(k=3, r=2, min_part_bound=0)"
    assert repr(ModelParams(2, 0.5, 1000, 7)) == (
        "ModelParams(k=2, s=0.5, trials=1000, seed=7, trunc_eps=0.0001)")
    assert c != Constraint(3) and c != (3, 2, 0)
    assert hash(c) == hash(Constraint(3, 2)) == hash((3, 2, 0))
    assert len({c, Constraint(3, 2), Constraint(3)}) == 2
    with pytest.raises(AttributeError):
        c.k = 4
    with pytest.raises(AttributeError):
        del c.r
    # every record class is frozen, RunConfig included; vars() gives the
    # fields, as the artifact's config block reads them
    cfg = RunConfig(precision=30, seed=5)
    assert vars(cfg) == {"precision": 30, "tol": 1e-10, "out_dir": "out",
                         "out_format": "json", "seed": 5}
    assert cfg == RunConfig(30, seed=5) and hash(cfg) == hash(RunConfig(30, seed=5))
    with pytest.raises(AttributeError):
        cfg.seed = 6


# sha256 of the _mpf_ tuples of the 1,740 solves below.  Like tests/golden/,
# it belongs to the platform: the double-precision seeds come from float **
SOLVER_DIGEST = "4a989cfdeae7488a598132df68f352b0903d63ca858f955f1b3b24b62e4fe7ba"


def test_root_solver_bits_pinned():
    # every root of the bracketed Newton keeps its bits: primary_root over
    # z = 10^e, e = -300..300 in steps of 7, and f_k at y = i/60, for
    # k = 2, 3, 5, 8 and 15, 50, 100 digits
    digest, solves = hashlib.sha256(), 0
    for k in (2, 3, 5, 8):
        for digits in (15, 50, 100):
            roots = [primary_root(k, mpmath.mpf(f"1e{e}"), digits) for e in range(-300, 301, 7)]
            for i in range(1, 60):
                with working(digits):
                    y = mpmath.mpf(i) / 60
                roots.append(f_k(y, k, digits))
            for root in roots:
                digest.update(repr(root._mpf_).encode())
            solves += len(roots)
    assert solves == 1740
    assert digest.hexdigest() == SOLVER_DIGEST


class _Unconverged(Exception):
    pass


@pytest.mark.parametrize("number", [float, mpmath.mpf], ids=["float", "mpf"])
def test_newton_in_bracket_contract(number):
    eps = 1e-10 if number is float else None
    with working(30):
        # an exact zero is the answer, with no derivative taken
        def no_derivative(x):
            raise AssertionError("dfn called at an exact zero")

        half = number(1) / 2
        assert _newton_in_bracket(lambda x: x - half, no_derivative, number(0), number(1),
                                  half, 5, _Unconverged, eps) is half
        # with no slope every step bisects the sign bracket (0, 0.9): after
        # 3 steps x = 0.3375 in the bracket (0.225, 0.45), and fail gets both
        third, nine = number(1) / 3, number(9) / 10
        with pytest.raises(_Unconverged) as err:
            _newton_in_bracket(lambda x: x - third, lambda x: 0 * x, number(0), nine,
                               nine, 3, _Unconverged, eps)
        assert err.value.args == ((nine / 4 + nine / 2) / 2, nine / 2 - nine / 4)
        assert all(type(v) is number for v in err.value.args)


def test_float_newton_none_cases():
    calls = 0

    def counted(u):
        nonlocal calls
        calls += 1
        return u - 1 / 3

    # an overflow in fn
    assert _float_newton(lambda u: math.exp(u) - 2, math.exp, 0.0, 2000.0, 1000.0) is None
    # the 60-step cap: bisecting (0, 1e300) needs about 1,000 steps to 1e-10
    assert _float_newton(counted, lambda u: 0.0, 0.0, 1e300, 1e299) is None
    assert calls == 60
    # a converged step onto the bracket's edge: a root not inside (lo, hi)
    args = (lambda u: u - 1.0, lambda u: 1.0, 0.0, 1.0, 1.0 - 1e-12)
    assert _newton_in_bracket(*args, 60, _Unconverged, 1e-10) == 1.0
    assert _float_newton(*args) is None
    # and a root inside is returned
    assert abs(_float_newton(lambda u: u * u - 2, lambda u: 2 * u, 0.0, 2.0, 1.0)
               - math.sqrt(2)) < 1e-15
