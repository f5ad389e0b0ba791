import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict.profiles import HorizonSpec, ProfileKind, cubic_decay

from oracles import generate_profile


@pytest.mark.parametrize(
    "horizon_ms,expected_n",
    [(125, 26), (250, 51), (375, 76), (500, 101), (625, 126)],
)
def test_horizon_sample_counts_at_5ms(horizon_ms, expected_n):
    spec = HorizonSpec.from_duration(horizon_ms, 0.005)
    assert spec.n_samples == expected_n


def test_horizon_rejects_incompatible_duration():
    with pytest.raises(ValueError):
        HorizonSpec.from_duration(123.0, 0.005)
    with pytest.raises(ValueError):
        HorizonSpec.from_duration(0.0, 0.005)  # a single sample is not a horizon
    with pytest.raises(ValueError):
        HorizonSpec(horizon_ms=125, dt=-0.005, n_samples=26)


def test_profile_kind_parsing():
    assert ProfileKind.parse(" Zero ") is ProfileKind.ZERO
    assert ProfileKind.parse("oracle") is ProfileKind.ORACLE
    with pytest.raises(ValueError):
        ProfileKind.parse("ballistic")


# The profile definitions themselves, checked on the plain-Python reference
# that the sweep kernel's predictions are compared against.


def test_zero_profile_is_all_zero():
    out = generate_profile(ProfileKind.ZERO, [1.0, -2.0, 3.0], 26)
    assert len(out) == 26
    assert_array_equal(out, np.zeros((26, 3)))


def test_const_profile_repeats_first_sample():
    u1 = [0.3, -0.1, 0.2]
    out = generate_profile(ProfileKind.CONST, u1, 26)
    assert len(out) == 26
    for row in out:
        assert_array_equal(row, u1)


def test_cubic_profile_boundary_and_midpoint():
    out = generate_profile(ProfileKind.CUBIC, [1.0, 0.0, 0.0], 51)
    assert_array_equal(out[0], [1.0, 0.0, 0.0])
    assert_array_equal(out[50], np.zeros(3))
    # s = 0.5 -> 1 - 3/4 + 1/4 = 1/2 exactly
    assert_array_equal(out[25], [0.5, 0.0, 0.0])
    # the sweep's cubic weights are the reference's, sample for sample
    assert_allclose(cubic_decay(51), [row[0] for row in out], rtol=0, atol=1e-15)


def test_cubic_decay_is_monotone_from_one_to_zero():
    w = cubic_decay(101)
    assert w[0] == 1.0
    assert w[-1] == 0.0
    assert np.all(np.diff(w) <= 0.0)
    assert np.all(np.diff(w)[1:-1] < 0.0)


@pytest.mark.parametrize("n", [26, 126, 501])
def test_cubic_decay_flat_at_both_ends(n):
    # zero analytic slope at the ends: first differences shrink as 1/(n-1)^2
    w = cubic_decay(n)
    bound = 4.0 / (n - 1) ** 2
    assert abs(w[1] - w[0]) <= bound
    assert abs(w[-1] - w[-2]) <= bound


def test_profiles_scale_linearly_in_u1():
    u1 = np.array([0.4, -0.8, 1.2])
    for kind in (ProfileKind.ZERO, ProfileKind.CONST, ProfileKind.CUBIC):
        base = generate_profile(kind, u1, 26)
        scaled = generate_profile(kind, 2.0 * u1, 26)
        assert_allclose(scaled, 2.0 * np.asarray(base), rtol=0, atol=0)


def test_profiles_act_per_axis():
    for kind in (ProfileKind.CONST, ProfileKind.CUBIC):
        out = np.asarray(generate_profile(kind, [0.7, 0.0, 0.0], 26))
        assert_array_equal(out[:, 1], np.zeros(26))
        assert_array_equal(out[:, 2], np.zeros(26))


def test_profiles_coincide_for_zero_u1():
    zero = generate_profile(ProfileKind.ZERO, [0.0] * 3, 26)
    const = generate_profile(ProfileKind.CONST, [0.0] * 3, 26)
    cubic = generate_profile(ProfileKind.CUBIC, [0.0] * 3, 26)
    assert_array_equal(zero, const)
    assert_array_equal(zero, cubic)


def test_oracle_profile_returns_measured_future():
    future = np.arange(26 * 3, dtype=float).reshape(26, 3).tolist()
    out = generate_profile(ProfileKind.ORACLE, [0.0] * 3, 26, future)
    assert_array_equal(out, future)
    out[0][0] = 99.0  # the caller's data must not alias
    assert future[0][0] == 0.0
