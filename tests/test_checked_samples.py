"""Results whose finiteness is already established skip GridFunction's
finiteness pass, and multiplier_preimage takes |g| once. Every public way
to build a GridFunction still refuses non-finite samples, and the
preimage report's sup norm and ideal test are those of its candidate."""

import numpy as np
import pytest

from opeq.linalg import InputError
from opeq.module_model import GridFunction, in_ideal_M, multiplier_preimage
from test_grid_slices import GRIDS, _bits, _functions, _multipliers

N = 64


def _refuses(call):
    with pytest.raises(InputError, match="^samples must be finite$"):
        call()


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]
)
def test_user_samples_must_be_finite(bad):
    samples = np.ones(N + 1, dtype=np.complex128)
    samples[N // 2] = bad
    _refuses(lambda: GridFunction(samples))
    _refuses(lambda: GridFunction.constant(bad, N))


def test_constant_checks_its_grid_before_its_value():
    with pytest.raises(InputError, match="power of two"):
        GridFunction.constant(np.nan, N + 1)


def test_vectorized_samples_that_overflow_are_refused():
    def steep(x):
        with np.errstate(over="ignore"):
            return np.exp(1000.0 * x)

    _refuses(lambda: GridFunction.from_samples_of(steep, N))


def test_arithmetic_that_overflows_is_refused():
    big = GridFunction.constant(1e200, N)
    near_max = GridFunction.constant(1e308, N)
    with np.errstate(over="ignore"):
        _refuses(lambda: big * big)
        _refuses(lambda: big * 1e200)
        _refuses(lambda: near_max + near_max)
        _refuses(lambda: near_max - (-1.0 * near_max))


def test_checked_constructors_keep_the_grid_and_dtype():
    for gf in (
        GridFunction.coordinate(N),
        GridFunction.constant(2, N),
        GridFunction.coordinate(N).conj(),
    ):
        assert gf.samples.dtype == np.complex128 and gf.n == N
    assert GridFunction.constant(2, N).samples.tobytes() == np.full(N + 1, 2.0 + 0j).tobytes()


@pytest.mark.parametrize("n", GRIDS)
def test_preimage_report_reads_its_candidate(n):
    targets = dict(_functions(n, n + 1), constant=np.ones(n + 1, dtype=np.complex128))
    for mult_label, mult in _multipliers(n).items():
        m = GridFunction(mult)
        for label, target in targets.items():
            rep = multiplier_preimage(GridFunction(target), m, require_ideal=True)
            where = (mult_label, label)
            assert _bits(rep.candidate_sup) == _bits(rep.candidate.sup()), where
            assert rep.ideal_ok == in_ideal_M(rep.candidate), where
            plain = multiplier_preimage(GridFunction(target), m, require_ideal=False)
            assert plain.ideal_ok is None and plain.candidate_sup == rep.candidate_sup, where
