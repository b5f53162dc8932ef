import mpmath
import pytest

from kseq.cli import RunConfig
from kseq.counting import Constraint
from kseq.precision import LogValue, working
from kseq.probability import ModelParams
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
