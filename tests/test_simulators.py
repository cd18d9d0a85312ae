import zlib

import numpy as np
import pytest
from scipy.stats import ttest_ind

from simcal.errors import ContractError, DivergedTrajectoryError
from simcal.simulators import (
    CartPole,
    GenerativeModel,
    LotkaVolterra,
    ParamField,
    Pendulum,
    builtin_controller,
    cartpole_step,
    get_model,
    rollout,
)
from simcal.trajstats import compute_stats


def textbook_cartpole_step(state, force, length, masspole, masscart=1.0, dt=0.02, g=9.8):
    """Independent re-derivation of the classic cart-pole update."""
    x, xd, th, thd = state
    total = masscart + masspole
    temp = (force + masspole * length * thd * thd * np.sin(th)) / total
    thacc = (g * np.sin(th) - np.cos(th) * temp) / (
        length * (4.0 / 3.0 - masspole * np.cos(th) ** 2 / total)
    )
    xacc = temp - masspole * length * thacc * np.cos(th) / total
    return np.array([x + dt * xd, xd + dt * xacc, th + dt * thd, thd + dt * thacc])


def test_cartpole_equilibrium_fixed_point():
    state = np.zeros(4)
    nxt = cartpole_step(state, 0.0, length=0.5, masspole=0.1)
    np.testing.assert_allclose(nxt, state)


def test_cartpole_mirror_symmetry():
    rng = np.random.default_rng(0)
    state = rng.normal(0, 0.3, 4)
    a = cartpole_step(state, 3.0, length=0.7, masspole=0.4)
    b = cartpole_step(-state, -3.0, length=0.7, masspole=0.4)
    np.testing.assert_allclose(a, -b, atol=1e-12)


def test_cartpole_matches_independent_implementation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        state = rng.normal(0, 0.2, 4)
        force = rng.uniform(-10, 10)
        ours = cartpole_step(state, force, length=1.1, masspole=0.6)
        ref = textbook_cartpole_step(state, force, 1.1, 0.6)
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def rollout_one(model, theta, ctrl, seed, **kwargs):
    """One episode as a one-row batch; raises for a failed row."""
    batch = rollout(model, [theta], ctrl, seed=[seed], **kwargs)
    batch.check()
    return batch


def test_rollout_from_equilibrium_constant():
    model = CartPole()
    ctrl = builtin_controller("sinusoid", seed=0, amplitude=0.0)
    traj = rollout_one(model, [0.5, 0.1], ctrl, horizon=50, seed=0,
                       initial_state=np.zeros(4))
    np.testing.assert_allclose(traj.states, 0.0)


def test_rollout_determinism():
    model = get_model("pendulum")
    ctrl = builtin_controller("random_uniform", seed=3)
    a = rollout_one(model, [0.05], ctrl, horizon=100, seed=5)
    b = rollout_one(model, [0.05], ctrl, horizon=100, seed=5)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.actions, b.actions)


def test_rollout_bounds_checked():
    model = get_model("cartpole")
    ctrl = builtin_controller("random_uniform", seed=0)
    with pytest.raises(ContractError):
        rollout_one(model, [50.0, 0.5], ctrl, seed=0)
    with pytest.raises(ContractError):
        rollout_one(model, [0.5, 0.5], ctrl, horizon=500, seed=0)
    with pytest.raises(ContractError):  # one theta vector, not a batch
        rollout(model, [0.5, 0.5], ctrl, seed=[0])
    with pytest.raises(ContractError, match="expected 2 parameters"):
        rollout(model, np.full((3, 3), 0.5), ctrl, seed=[0, 1, 2])


def test_cartpole_termination():
    model = CartPole()
    ctrl = builtin_controller("random_uniform", seed=1)
    tipped = np.array([0.0, 0.0, 0.25, 0.0])  # beyond the 12-degree threshold
    traj = rollout_one(model, [0.5, 0.1], ctrl, horizon=200, seed=0,
                       initial_state=tipped)
    assert traj.terminated_early
    assert traj.length < 200


def test_pendulum_energy_drift_shrinks_with_dt():
    model = Pendulum()

    def drift(dt):
        ctrl = builtin_controller("sinusoid", seed=0, amplitude=0.0)
        traj = rollout_one(model, [dt], ctrl, horizon=200, seed=2)
        cos_t, sin_t, om = traj.states[0].T
        # pendulum energy about the pivot, unforced rollout
        energy = 0.5 * (1.0 / 3.0) * om ** 2 - 0.5 * 9.8 * cos_t
        return np.max(np.abs(energy - energy[0])) / traj.length

    assert drift(0.01) < drift(0.1)


def test_lotka_volterra_zero_rates_constant():
    model = LotkaVolterra()
    ctrl = builtin_controller("sinusoid", seed=0, amplitude=0.0)
    states = rollout_one(model, [0.0, 0.0, 0.0, 0.0], ctrl, horizon=100,
                         seed=0).states[0]
    np.testing.assert_allclose(
        states, np.tile(states[0], (states.shape[0], 1)),
        atol=1e-12)


def test_lotka_volterra_stays_positive_and_finite():
    model = LotkaVolterra()
    ctrl = builtin_controller("random_uniform", seed=4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform(0.01, 1.0, 4)
        traj = rollout_one(model, theta, ctrl, horizon=200, seed=int(rng.integers(1e6)))
        assert np.all(np.isfinite(traj.states))
        assert np.all(traj.states > 0)


def test_controller_deterministic_sequence():
    ctrl = builtin_controller("random_uniform", seed=9)
    a1 = ctrl.plan([4], 20, 1)
    a2 = ctrl.plan([4], 20, 1)
    np.testing.assert_array_equal(a1, a2)


def test_bang_bang_keeps_cartpole_alive():
    model = CartPole()
    ctrl = builtin_controller("bang_bang_energy", seed=0)
    traj = rollout_one(model, [0.5, 0.1], ctrl, horizon=200, seed=3)
    assert traj.length >= 50


def test_sinusoid_bounded():
    ctrl = builtin_controller("sinusoid", seed=0, amplitude=0.4)
    acts = np.array([ctrl.act(np.zeros((1, 3)), t, Pendulum())
                     for t in range(100)])
    assert np.max(np.abs(acts)) <= 0.4 + 1e-12


def test_bang_bang_zero_sign_pushes_positive():
    ctrl = builtin_controller("bang_bang_energy", seed=0, amplitude=0.5)
    states = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, -0.1, 0.2],
                       [0.0, 0.0, -0.1, 0.0]])
    np.testing.assert_array_equal(ctrl.act(states, 0, CartPole()),
                                  [[0.5], [0.5], [-0.5]])
    np.testing.assert_array_equal(
        ctrl.act(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -2.0]]), 0, Pendulum()),
        [[0.5], [-0.5]])


def test_bang_bang_defaults_to_a_square_wave():
    """A model without its own push gets the square wave of period 50,
    whatever its state width; 3 wide is not read as the pendulum."""

    class Drift(GenerativeModel):
        name, state_dim, action_dim = "drift", 3, 1
        mutable_params = (ParamField("rate", 0.0, 1.0, prior=(0.1, 0.9), true=0.5),)

        def initial_state(self, rng):
            return np.zeros(3)

        def step(self, state, action, theta):
            return state + theta[..., :1] * action

    ctrl = builtin_controller("bang_bang_energy", seed=0, amplitude=0.5)
    states = np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 3.0]])
    for t, u in ((0, 0.5), (24, 0.5), (25, -0.5), (49, -0.5), (50, 0.5)):
        np.testing.assert_array_equal(ctrl.act(states, t, Drift()), [[u], [u]])
    batch = rollout(Drift(), [[0.5]], ctrl, horizon=60, seed=[0])
    np.testing.assert_array_equal(batch.actions[0, :, 0],
                                  np.where(np.arange(60) % 50 < 25, 0.5, -0.5))


def test_unknown_controller_rejected():
    with pytest.raises(ContractError):
        builtin_controller("pid", seed=0)


@pytest.mark.parametrize("name,low,high", [
    ("cartpole", [0.1, 0.1], [2.0, 2.0]),
    ("pendulum", [0.01], [0.3]),
    ("lotka_volterra", [0.01] * 4, [1.0] * 4),
])
def test_parameter_sensitivity(name, low, high):
    # mean statistics must differ detectably between prior-box extremes
    model = get_model(name)
    ctrl = builtin_controller("random_uniform", seed=11)
    even = 2 * np.arange(60)
    lo = compute_stats(rollout(model, [low] * 60, ctrl, seed=even))
    hi = compute_stats(rollout(model, [high] * 60, ctrl, seed=even + 1))
    pvals = np.array([
        ttest_ind(lo[:, j], hi[:, j], equal_var=False).pvalue
        for j in range(lo.shape[1])
        if lo[:, j].std() + hi[:, j].std() > 0
    ])
    assert pvals.min() < 0.01


def test_trajectories_finite_across_prior_box():
    for name, low, high in (
        ("cartpole", [0.1, 0.1], [2.0, 2.0]),
        ("pendulum", [0.01], [0.3]),
    ):
        model = get_model(name)
        ctrl = builtin_controller("random_uniform", seed=2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(low, high)
            traj = rollout_one(model, theta, ctrl, horizon=200,
                               seed=int(rng.integers(1e6)))
            assert np.all(np.isfinite(traj.states))


# -- lockstep batch against an independent per-step loop ---------------------

def reference_step(name, state, action, theta):
    """Per-episode update of each model, written out from its equations."""
    u = min(max(action[0], -1.0), 1.0)
    if name == "cartpole":
        return textbook_cartpole_step(state, 10.0 * u, theta[0], theta[1])
    if name == "pendulum":
        angle = np.arctan2(state[1], state[0])
        acc = 1.5 * 9.8 * np.sin(angle) + 3.0 * 2.0 * u
        speed = min(max(state[2] + theta[0] * acc, -8.0), 8.0)
        angle = angle + theta[0] * speed
        return np.array([np.cos(angle), np.sin(angle), speed])
    a, b, c, d = theta

    def deriv(s):
        return np.array([a * s[0] - b * s[0] * s[1] + 0.1 * u * s[0],
                         -c * s[1] + d * s[0] * s[1]])

    h = 0.01
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * h * k1)
    k3 = deriv(state + 0.5 * h * k2)
    k4 = deriv(state + h * k3)
    return state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_rollout(model, theta, kind, ctrl_seed, seed, horizon):
    """(states, actions, terminated) of one episode, one step at a time,
    with the controller's per-step draws from the episode's Generator."""
    rng = np.random.default_rng([ctrl_seed, seed])
    state = model.initial_state(
        np.random.default_rng([seed, zlib.crc32(model.name.encode())]))
    states, actions = [state], []
    for t in range(horizon):
        if kind == "random_uniform":
            action = rng.uniform(-1.0, 1.0, size=1)
        elif kind == "sinusoid":
            action = np.array([np.sin(2.0 * np.pi * t / 25.0)])
        elif model.name == "cartpole":
            action = np.array([np.sign(state[2] + 0.5 * state[3]) or 1.0])
        elif model.name == "pendulum":
            action = np.array([np.sign(state[2]) or 1.0])
        else:
            action = np.array([1.0 if t % 50 < 25 else -1.0])
        state = reference_step(model.name, state, action, theta)
        states.append(state)
        actions.append(action)
        if model.name == "cartpole" and (abs(state[0]) > 2.4
                                         or abs(state[2]) > np.pi / 15):
            return np.array(states), np.array(actions), True
    return np.array(states), np.array(actions), False


PRIOR_BOXES = {
    "cartpole": ([0.1, 0.1], [2.0, 2.0]),
    "pendulum": ([0.01], [0.3]),
    "lotka_volterra": ([0.01] * 4, [1.0] * 4),
}


@pytest.mark.parametrize("kind", ["random_uniform", "bang_bang_energy", "sinusoid"])
@pytest.mark.parametrize("name", ["cartpole", "pendulum", "lotka_volterra"])
def test_batch_matches_reference_loop(name, kind):
    model = get_model(name)
    rng = np.random.default_rng(21)
    thetas = rng.uniform(*PRIOR_BOXES[name], size=(24, len(model.param_names)))
    seeds = 1000 + np.arange(24)
    batch = rollout(model, thetas, builtin_controller(kind, seed=5),
                    horizon=120, seed=seeds)
    assert not batch.diverged.any()
    for i in range(24):
        states, actions, term = reference_rollout(model, thetas[i], kind, 5,
                                                  int(seeds[i]), 120)
        n = len(actions)
        assert batch.lengths[i] == n
        assert batch.terminated[i] == term
        np.testing.assert_allclose(batch.states[i, :n + 1], states,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batch.actions[i, :n], actions)
        # frozen after its end: the last state repeats, actions are zero
        np.testing.assert_array_equal(batch.states[i, n:],
                                      np.broadcast_to(batch.states[i, n],
                                                      batch.states[i, n:].shape))
        np.testing.assert_array_equal(batch.actions[i, n:], 0.0)
    assert batch.length == batch.lengths.sum()
    assert batch.terminated_early == batch.terminated.sum()
    if name == "cartpole" and kind == "random_uniform":
        assert batch.terminated.mean() > 0.5   # a ragged batch


def test_single_rollout_is_the_one_row_batch():
    model = get_model("cartpole")
    ctrl = builtin_controller("random_uniform", seed=2)
    thetas = np.array([[0.3, 1.7], [1.9, 0.2]])
    batch = rollout(model, thetas, ctrl, horizon=200, seed=[8, 9])
    for i in range(2):
        one = rollout_one(model, thetas[i], ctrl, horizon=200, seed=8 + i)
        n = one.length
        assert n == batch.lengths[i]
        assert one.terminated_early == batch.terminated[i]
        np.testing.assert_array_equal(one.states[0], batch.states[i, :n + 1])
        np.testing.assert_array_equal(one.actions[0], batch.actions[i, :n])


def test_diverged_row_does_not_stop_the_batch_and_out_of_limit_theta_raises():
    model = LotkaVolterra()
    ctrl = builtin_controller("sinusoid", seed=0)
    thetas = np.array([[0.5, 0.2, 0.4, 0.3], [2.0, 0.0, 0.0, 0.0],
                       [0.6, 0.2, 0.4, 0.3]])
    start = np.array([[1.0, 0.5], [9e7, 0.5], [1.0, 0.5]])
    batch = rollout(model, thetas, ctrl, horizon=200, seed=[0, 1, 2],
                    initial_state=start)
    np.testing.assert_array_equal(batch.diverged, [False, True, False])
    assert batch.lengths[0] == batch.lengths[2] == 200
    assert 0 < batch.lengths[1] < 200
    # the diverged row is frozen at its last finite state
    n = batch.lengths[1]
    assert np.all(np.abs(batch.states[1]) <= 1e8)
    np.testing.assert_array_equal(batch.states[1, n:],
                                  np.broadcast_to(batch.states[1, n],
                                                  batch.states[1, n:].shape))
    # the rows beside it step as they would alone
    alone = rollout(model, thetas[[0, 2]], ctrl, horizon=200, seed=[0, 2],
                    initial_state=start[[0, 2]])
    np.testing.assert_array_equal(batch.select([0, 2]).states, alone.states)
    with pytest.raises(DivergedTrajectoryError):
        rollout_one(model, thetas[1], ctrl, horizon=200, seed=1,
                    initial_state=start[1])
    with pytest.raises(DivergedTrajectoryError):
        batch.check()
    batch.select([0, 2]).check()
    # a theta outside the limits [0, 2] is refused before any row is stepped
    outside = thetas.copy()
    outside[2, 0] = 3.0
    with pytest.raises(ContractError, match=r"theta=\[3.0, 0.2, 0.4, 0.3\] outside"):
        rollout(model, outside, ctrl, horizon=200, seed=[0, 1, 2], initial_state=start)


def test_batch_stops_once_every_row_has_ended():
    model = CartPole()
    ctrl = builtin_controller("random_uniform", seed=1)
    tipped = np.array([0.0, 0.0, 0.25, 0.0])
    batch = rollout(model, np.array([[0.5, 0.1]] * 3), ctrl, horizon=200,
                    seed=[0, 1, 2], initial_state=tipped)
    assert batch.terminated.all()
    assert batch.states.shape[1] == batch.lengths.max() + 1 < 200


# -- random streams ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3, 123456])
def test_planned_actions_equal_per_step_draws(seed):
    ctrl = builtin_controller("random_uniform", seed=seed, amplitude=0.7)
    seeds = [seed * 100003 + n for n in range(4)]
    plan = ctrl.plan(seeds, 200, 2)
    for row, s in zip(plan, seeds):
        rng = ctrl.episode_rng(s)
        per_step = np.array([rng.uniform(-0.7, 0.7, size=2) for _ in range(200)])
        np.testing.assert_array_equal(row, per_step)
