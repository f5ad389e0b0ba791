import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict.dynamics import grf_to_acceleration, zoh_update
from compredict.profiles import HorizonSpec
from compredict.synth import SyntheticSpec, make_trial

from oracles import brute_force_trajectory, convolution_position


def zoh_matrices(dt):
    """The matrices of one zoh_update, x[k+1] = A x[k] + B u[k] with
    x = [px, vx, py, vy, pz, vz], read off by updating unit states and
    unit inputs."""
    a, b = np.empty((6, 6)), np.empty((6, 3))
    for j, x in enumerate(np.eye(6)):
        a[0::2, j], a[1::2, j] = zoh_update(x[0::2], x[1::2], np.zeros(3), dt)
    for j, u in enumerate(np.eye(3)):
        b[0::2, j], b[1::2, j] = zoh_update(np.zeros(3), np.zeros(3), u, dt)
    return a, b


def run_updates(p1, v1, inputs, dt):
    """Positions and velocities at every sample, (len(inputs) + 1, 3) each,
    from repeated zoh_update calls starting at (p1, v1)."""
    ps, vs = [np.asarray(p1, dtype=float)], [np.asarray(v1, dtype=float)]
    for u in inputs:
        p, v = zoh_update(ps[-1], vs[-1], np.asarray(u, dtype=float), dt)
        ps.append(p)
        vs.append(v)
    return np.array(ps), np.array(vs)


def test_discretize_5ms_matrices():
    a, b = zoh_matrices(0.005)
    expected_a = np.eye(6)
    for axis in range(3):
        expected_a[2 * axis, 2 * axis + 1] = 0.005
    assert_array_equal(a, expected_a)
    expected_b = np.zeros((6, 3))
    for axis in range(3):
        expected_b[2 * axis, axis] = 1.25e-5
        expected_b[2 * axis + 1, axis] = 0.005
    assert_array_equal(b, expected_b)


@pytest.mark.parametrize("dt", [0.005, 0.01, 0.2, 1.0, 3.7e-4])
def test_input_matrix_position_entry_is_half_dt_squared(dt):
    p, v = zoh_update(0.0, 0.0, 1.0, dt)
    assert p == 0.5 * dt * dt
    assert v == dt


def test_discretize_semigroup_doubling():
    # stepping twice at dt equals one step at 2*dt, also under a held input
    a_small, _ = zoh_matrices(0.005)
    assert_array_equal(a_small @ a_small, zoh_matrices(0.010)[0])
    p, v, u = np.random.default_rng(3).normal(size=(3, 3))
    twice = zoh_update(*zoh_update(p, v, u, 0.005), u, 0.005)
    assert_allclose(twice, zoh_update(p, v, u, 0.010), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_discretize_rejects_bad_dt(dt):
    # a horizon is discretized at the sample period, which must be positive and finite
    with pytest.raises(ValueError):
        HorizonSpec.from_duration(125, dt)


def test_quiet_standing_gives_zero_acceleration():
    mass = 70.0
    accel = grf_to_acceleration(np.array([0.0, mass * 9.81, 0.0]), mass)
    assert_allclose(accel, np.zeros(3), atol=1e-12)
    # with a power-of-two mass the cancellation is exact
    accel = grf_to_acceleration(np.array([0.0, 64.0 * 9.81, 0.0]), 64.0)
    assert_array_equal(accel, np.zeros(3))


def test_flight_phase_is_free_fall():
    accel = grf_to_acceleration(np.zeros(3), 70.0, g=9.81)
    assert_array_equal(accel, np.array([0.0, -9.81, 0.0]))


def test_grf_conversion_example():
    accel = grf_to_acceleration(np.array([10.0, 700.0, -5.0]), 70.0, g=9.81)
    assert_allclose(accel, [10.0 / 70.0, (700.0 - 70.0 * 9.81) / 70.0, -5.0 / 70.0], rtol=1e-12)
    assert_allclose(accel, [0.14285714285714285, 0.19, -0.07142857142857142], rtol=1e-12)


def test_grf_conversion_vectorized_matches_rowwise():
    rows = np.array([[10.0, 700.0, -5.0], [0.0, 686.7, 0.0], [3.0, 0.0, 2.0]])
    batch = grf_to_acceleration(rows, 70.0)
    for row, expected in zip(rows, batch):
        assert_array_equal(grf_to_acceleration(row, 70.0), expected)


def test_grf_conversion_rejects_bad_mass():
    with pytest.raises(ValueError):
        grf_to_acceleration(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        grf_to_acceleration(np.zeros(3), -5.0)


def test_step_equilibrium_and_constant_velocity():
    p, v = zoh_update(np.zeros(3), np.zeros(3), np.zeros(3), 0.005)
    assert_array_equal(p, np.zeros(3))
    assert_array_equal(v, np.zeros(3))

    gliding = np.array([1.0, 0.0, 0.0])
    p, v = zoh_update(np.zeros(3), gliding, np.zeros(3), 0.005)
    assert_array_equal(p, np.array([0.005, 0.0, 0.0]))
    assert_array_equal(v, gliding)


def test_step_single_zoh_kick():
    p, v = zoh_update(np.zeros(3), np.zeros(3), np.array([2.0, 0.0, 0.0]), 0.005)
    assert_allclose(p[0], 2.5e-5, rtol=1e-15)
    assert_allclose(v[0], 0.01, rtol=1e-15)


def test_step_matches_matrix_form():
    a, b = zoh_matrices(0.005)
    position, velocity = np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -3.0])
    u = np.array([0.5, -1.5, 2.5])
    p, v = zoh_update(position, velocity, u, 0.005)
    x = np.empty(6)
    x[0::2], x[1::2] = position, velocity
    via_matrices = a @ x + b @ u
    assert_allclose(p, via_matrices[0::2], rtol=1e-14)
    assert_allclose(v, via_matrices[1::2], rtol=1e-14)


def test_propagate_ballistic_line_with_zero_input():
    dt = 0.005
    p1, v1 = np.array([0.2, 0.0, -0.1]), np.array([0.5, -1.0, 2.0])
    spec = SyntheticSpec(kind="constant_acceleration", duration=30 * dt, dt=dt, accel=0.0,
                         initial_position=p1, initial_velocity=v1)
    trial = make_trial(spec)
    assert trial.n_samples == 31
    for k, position in enumerate(trial.positions, start=1):
        assert_allclose(position, p1 + (k - 1) * dt * v1, rtol=1e-13, atol=1e-15)


def test_propagate_constant_input_closed_form():
    dt = 0.005
    c = 1.7
    trial = make_trial(SyntheticSpec(kind="constant_acceleration", duration=50 * dt, dt=dt, accel=c))
    assert trial.n_samples == 51
    for k, position in enumerate(trial.positions, start=1):
        assert_allclose(position[0], 0.5 * (k - 1) ** 2 * dt * dt * c, rtol=1e-12, atol=0)


def test_propagate_matches_brute_force_and_convolution_sum():
    dt = 0.004
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(40, 3))
    p1, v1 = np.array([0.3, -0.2, 0.15]), np.array([0.9, 0.1, -0.4])
    positions, velocities = run_updates(p1, v1, inputs, dt)
    # a synthetic trial's reference is the same update driven by its stored inputs
    trial = make_trial(SyntheticSpec(kind="sinusoid", duration=40 * dt, dt=dt, amplitude=1.5))
    for axis in range(3):
        ps, vs = brute_force_trajectory(p1[axis], v1[axis], list(inputs[:, axis]), dt)
        assert_array_equal(positions[:, axis], ps)
        assert_array_equal(velocities[:, axis], vs)
        closed = convolution_position(p1[axis], v1[axis], list(inputs[:, axis]), dt)
        assert_allclose(positions[-1, axis], closed, rtol=1e-12)
        ps, vs = brute_force_trajectory(
            trial.positions[0, axis], trial.velocities[0, axis], list(trial.accel_inputs[:-1, axis]), dt
        )
        assert_array_equal(trial.positions[:, axis], ps)
        assert_array_equal(trial.velocities[:, axis], vs)


def test_powers_of_a_stay_nilpotent_structured():
    # column j of A^k is unit state j after k zero-input updates: the
    # identity plus k*dt coupling each position to its own velocity
    dt = 0.005
    p, v = np.eye(6)[:, 0::2], np.eye(6)[:, 1::2]  # row j holds unit state j
    power = np.empty((6, 6))
    for k in range(1, 201):
        p, v = zoh_update(p, v, np.zeros(3), dt)
        power[0::2], power[1::2] = p.T, v.T
        expected = np.eye(6)
        for axis in range(3):
            expected[2 * axis, 2 * axis + 1] = k * dt
        assert_allclose(power, expected, rtol=1e-12, atol=1e-15)


def test_axes_are_decoupled():
    ref = run_updates(np.zeros(3), np.zeros(3), [np.zeros(3)] * 10, 0.005)
    out = run_updates([1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [np.array([3.0, 0.0, 0.0])] * 10, 0.005)
    for a, b in zip(ref, out):
        assert_array_equal(a[:, 1:], b[:, 1:])


def test_propagation_is_linear():
    dt = 0.005
    rng = np.random.default_rng(11)
    u1 = rng.normal(size=(25, 3))
    u2 = rng.normal(size=(25, 3))
    p1, v1, p2, v2 = rng.normal(size=(4, 3))
    combined = run_updates(p1 + p2, v1 + v2, u1 + u2, dt)
    out1 = run_updates(p1, v1, u1, dt)
    out2 = run_updates(p2, v2, u2, dt)
    for c, a, b in zip(combined, out1, out2):
        assert_allclose(c, a + b, rtol=1e-12, atol=1e-15)
