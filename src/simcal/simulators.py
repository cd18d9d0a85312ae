"""Desk-scale black-box generative models behind one rollout interface.

Each model maps a batch of parameter vectors to a batch of state/action
trajectories via deterministic-given-seed integration. Every episode of
a call is stepped in lockstep: dynamics, termination and controllers act
on the last axis, so one time step is a few numpy operations on
``(N, D_s)`` states and ``(N, d_theta)`` parameters. Scripted
controllers stand in for trained policies: the inference method only
needs an action source that excites the dynamics, held identical between
training-set generation and "real" observation generation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DivergedTrajectoryError
from .priors import UniformBox

GRAVITY = 9.8
STATE_LIMIT = 1e8  # beyond this we call the trajectory diverged
MAX_HORIZON = 200  # steps per episode


@dataclass
class Rollouts:
    """N episodes stepped in lockstep.

    Row i holds ``lengths[i]`` steps. Past its length a row is frozen: its last state repeats
    and its actions are zero. A row that diverges is frozen at its last finite state and flagged.
    """

    thetas: np.ndarray          # (N, d_theta)
    states: np.ndarray          # (N, T+1, D_s)
    actions: np.ndarray         # (N, T, D_a)
    lengths: np.ndarray         # (N,) steps taken per row
    terminated: np.ndarray      # (N,) the termination predicate ended the row
    diverged: np.ndarray        # (N,) non-finite or beyond STATE_LIMIT

    @property
    def length(self) -> int:
        """Steps taken over the whole batch."""
        return int(self.lengths.sum())

    @property
    def terminated_early(self) -> int:
        """Rows that the termination predicate ended."""
        return int(self.terminated.sum())

    @property
    def completed(self) -> np.ndarray:
        """Rows that statistics can use: not diverged, >= 2 steps."""
        return ~self.diverged & (self.lengths >= 2)

    def select(self, rows) -> "Rollouts":
        return Rollouts(*(getattr(self, f.name)[rows] for f in fields(self)))

    def check(self) -> None:
        """Raise DivergedTrajectoryError for the first diverged row."""
        if self.diverged.any():
            i = int(np.argmax(self.diverged))
            raise DivergedTrajectoryError(
                f"state diverged at step {self.lengths[i]} for theta={self.thetas[i].tolist()}")


@dataclass(frozen=True)
class ParamField:
    """A mutable parameter: its limits, default prior interval and true value."""

    name: str
    low: float
    high: float
    prior: tuple
    true: float


class GenerativeModel:
    """Base simulator: subclasses define dynamics, termination and the
    mutable parameter schema. ``step`` and ``terminated`` act on the last
    axis, so one call serves a single state or a batch. Rollouts are pure
    functions of (theta, seed, controller)."""

    name: str = ""
    state_dim: int = 0
    action_dim: int = 0
    mutable_params: tuple = ()

    @property
    def param_names(self):
        return [p.name for p in self.mutable_params]

    @property
    def limits(self) -> UniformBox:
        """The box of every parameter's [low, high]."""
        return UniformBox([p.low for p in self.mutable_params],
                          [p.high for p in self.mutable_params])

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def step(self, state: np.ndarray, action: np.ndarray, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def terminated(self, state: np.ndarray) -> np.ndarray:
        return np.zeros(state.shape[:-1], dtype=bool)

    def push(self, states: np.ndarray, t: int) -> np.ndarray:
        """(N,) sign of the ``bang_bang_energy`` action at step ``t``; a
        zero pushes +1. This default is a square wave of period 50."""
        return np.full(states.shape[0], 1.0 if t % 50 < 25 else -1.0)


# ---------------------------------------------------------------------------
# CartPole

def cartpole_step(state, force, *, length, masspole, masscart=1.0, dt=0.02):
    """One explicit-Euler step of the classic cart-pole equations.

    state = (..., 4) rows of (x, x_dot, theta, theta_dot); force in
    newtons, broadcast against the leading axes like length and masspole.
    """
    x, x_dot, theta, theta_dot = (state[..., j] for j in range(4))
    total_mass = masscart + masspole
    pm_length = masspole * length
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    temp = (force + pm_length * theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        length * (4.0 / 3.0 - masspole * cos_t ** 2 / total_mass)
    )
    x_acc = temp - pm_length * theta_acc * cos_t / total_mass
    out = np.empty(x_acc.shape + (4,))  # x_acc reads every input
    out[..., 0] = x + dt * x_dot
    out[..., 1] = x_dot + dt * x_acc
    out[..., 2] = theta + dt * theta_dot
    out[..., 3] = theta_dot + dt * theta_acc
    return out


class CartPole(GenerativeModel):
    """Pole balancing on a cart; mutable pole length and pole mass."""

    name = "cartpole"
    state_dim = 4
    action_dim = 1
    mutable_params = (
        ParamField("length", 0.01, 10.0, prior=(0.1, 2.0), true=1.2),
        ParamField("masspole", 0.01, 10.0, prior=(0.1, 2.0), true=0.6),
    )
    force_mag = 10.0
    dt = 0.02
    x_threshold = 2.4
    theta_threshold = 12.0 * np.pi / 180.0

    def initial_state(self, rng):
        return rng.uniform(-0.05, 0.05, size=4)

    def step(self, state, action, theta):
        force = self.force_mag * np.clip(action[..., 0], -1.0, 1.0)
        return cartpole_step(state, force, length=theta[..., 0],
                             masspole=theta[..., 1], dt=self.dt)

    def terminated(self, state):
        return ((np.abs(state[..., 0]) > self.x_threshold)
                | (np.abs(state[..., 2]) > self.theta_threshold))

    def push(self, states, t):  # toward the lean
        return np.sign(states[:, 2] + 0.5 * states[:, 3])


# ---------------------------------------------------------------------------
# Pendulum

class Pendulum(GenerativeModel):
    """Torque-actuated pendulum; the integration step dt is the mutable
    parameter (mass and length fixed at 1). State is (cos th, sin th,
    th_dot) so statistics see no angle-wrap jumps; th_dot is clamped to
    +-8 to keep coarse-dt rollouts finite."""

    name = "pendulum"
    state_dim = 3
    action_dim = 1
    mutable_params = (ParamField("dt", 0.001, 0.5, prior=(0.01, 0.3), true=0.12),)
    max_speed = 8.0
    max_torque = 2.0
    mass = 1.0
    length = 1.0

    def initial_state(self, rng):
        angle = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(-1.0, 1.0)
        return np.array([np.cos(angle), np.sin(angle), speed])

    def step(self, state, action, theta):
        dt = theta[..., 0]
        cos_t, sin_t, speed = state[..., 0], state[..., 1], state[..., 2]
        angle = np.arctan2(sin_t, cos_t)
        torque = self.max_torque * np.clip(action[..., 0], -1.0, 1.0)
        acc = (3.0 * GRAVITY / (2.0 * self.length) * np.sin(angle)
               + 3.0 * torque / (self.mass * self.length ** 2))
        speed = np.clip(speed + dt * acc, -self.max_speed, self.max_speed)
        angle = angle + dt * speed
        out = np.empty(angle.shape + (3,))  # angle reads every input
        out[..., 0], out[..., 1], out[..., 2] = np.cos(angle), np.sin(angle), speed
        return out

    def push(self, states, t):  # pump energy with the swing
        return np.sign(states[:, 2])


# ---------------------------------------------------------------------------
# Lotka-Volterra

class LotkaVolterra(GenerativeModel):
    """Predator-prey dynamics with four mutable rate constants and a
    small multiplicative forcing on prey growth as the action channel.
    Integrated with fixed-step RK4 (dt = 0.01): Euler is unstable for
    stiff rate combinations."""

    name = "lotka_volterra"
    state_dim = 2
    action_dim = 1
    mutable_params = (
        ParamField("prey_growth", 0.0, 2.0, prior=(0.01, 1.0), true=0.6),
        ParamField("predation", 0.0, 2.0, prior=(0.01, 1.0), true=0.25),
        ParamField("predator_death", 0.0, 2.0, prior=(0.01, 1.0), true=0.5),
        ParamField("predator_growth", 0.0, 2.0, prior=(0.01, 1.0), true=0.3),
    )
    dt = 0.01
    init_prey = 1.0
    init_predator = 0.5
    forcing_gain = 0.1

    def initial_state(self, rng):
        return np.array([self.init_prey, self.init_predator])

    def _deriv(self, state, u, theta):
        prey, pred = state[..., 0], state[..., 1]
        a, b, c, d = (theta[..., j] for j in range(4))
        dprey = a * prey - b * prey * pred + self.forcing_gain * u * prey
        out = np.empty(dprey.shape + (2,))  # dprey reads every input
        out[..., 0], out[..., 1] = dprey, -c * pred + d * prey * pred
        return out

    def step(self, state, action, theta):
        u = np.clip(action[..., 0], -1.0, 1.0)
        h = self.dt
        k1 = self._deriv(state, u, theta)
        k2 = self._deriv(state + 0.5 * h * k1, u, theta)
        k3 = self._deriv(state + 0.5 * h * k2, u, theta)
        k4 = self._deriv(state + h * k3, u, theta)
        return state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


# ---------------------------------------------------------------------------
# Controllers

CONTROLLER_KINDS = ("random_uniform", "bang_bang_energy", "sinusoid")


@dataclass(frozen=True)
class ScriptedController:
    """Deterministic-given-seed action source shared by every model.

    Actions live in [-amplitude, amplitude]^D_a; the per-episode RNG
    mixes the controller seed with the rollout seed.
    """

    kind: str
    seed: int
    amplitude: float = 1.0

    def episode_rng(self, episode_seed: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, episode_seed])

    def plan(self, seeds, horizon: int, action_dim: int) -> np.ndarray | None:
        """(N, horizon, D_a) open-loop actions of ``random_uniform``,
        each row drawn up front from its own episode's Generator; None
        for the feedback kinds."""
        if self.kind != "random_uniform":
            return None
        return np.array([
            self.episode_rng(int(s)).uniform(-self.amplitude, self.amplitude,
                                             size=(horizon, action_dim))
            for s in seeds
        ]).reshape(len(seeds), horizon, action_dim)

    def act(self, states: np.ndarray, t: int, model: GenerativeModel,
            plan: np.ndarray | None = None) -> np.ndarray:
        """(N, D_a) actions at step ``t`` for the (N, D_s) ``states``."""
        if self.kind == "random_uniform":
            return plan[:, t]
        if self.kind == "sinusoid":
            u = np.full(states.shape[0], np.sin(2.0 * np.pi * t / 25.0))
        else:  # bang_bang_energy
            u = model.push(states, t)
            u[u == 0] = 1.0
        return np.repeat((self.amplitude * u)[:, None], model.action_dim, axis=1)


def builtin_controller(kind: str, seed: int, amplitude: float = 1.0) -> ScriptedController:
    if kind not in CONTROLLER_KINDS:
        raise ContractError(f"unknown controller kind {kind!r}")
    return ScriptedController(kind=kind, seed=seed, amplitude=amplitude)


# ---------------------------------------------------------------------------
# Rollout

def rollout(
    model: GenerativeModel,
    thetas,
    controller: ScriptedController,
    horizon: int = MAX_HORIZON,
    *,
    seed,
    initial_state: np.ndarray | None = None,
) -> Rollouts:
    """Integrate the model under the controller's actions: one episode
    per row of the ``(N, d_theta)`` thetas and of the N ``seed`` values,
    every episode in lockstep.

    A theta outside ``model.limits`` raises ContractError. Diverged rows are
    flagged in the returned Rollouts and do not stop the others; ``Rollouts.check``
    raises for them. Each row stops at ``horizon`` (at most MAX_HORIZON steps)
    or the model's termination predicate, whichever comes first.
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise ContractError(f"horizon must be in [1, {MAX_HORIZON}]")
    thetas = np.asarray(thetas, dtype=float)
    seeds = np.asarray(seed)
    if thetas.ndim != 2 or seeds.shape != thetas.shape[:1]:
        raise ContractError(f"expected (N, d_theta) thetas and N seeds, got "
                            f"shapes {thetas.shape} and {seeds.shape}")
    inside = model.limits.contains(thetas)
    if not inside.all():
        raise ContractError(f"theta={thetas[~inside][0].tolist()} outside the {model.name} limits")
    n = thetas.shape[0]
    if initial_state is None:
        salt = zlib.crc32(model.name.encode())
        state = np.array([
            model.initial_state(np.random.default_rng([int(s), salt]))
            for s in seeds
        ]).reshape(n, model.state_dim)
    else:
        state = np.broadcast_to(np.asarray(initial_state, dtype=float),
                                (n, model.state_dim))
    plan = controller.plan(seeds, horizon, model.action_dim)

    states = np.empty((n, horizon + 1, model.state_dim))
    states[:, 0] = state
    actions = np.zeros((n, horizon, model.action_dim))
    lengths = np.zeros(n, dtype=int)
    terminated = np.zeros(n, dtype=bool)
    diverged = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    steps = 0
    # Frozen rows are stepped too and their results discarded, so
    # overflow in them is silenced.
    with np.errstate(all="ignore"):
        for t in range(horizon):
            if not alive.any():
                break
            action = controller.act(state, t, model, plan)
            nxt = model.step(state, action, thetas)
            # NaN and +-inf both fail the comparison
            ok = np.all(np.abs(nxt) <= STATE_LIMIT, axis=-1)
            diverged |= alive & ~ok
            alive &= ok
            state = np.where(alive[:, None], nxt, state)
            actions[:, t] = np.where(alive[:, None], action, 0.0)
            lengths += alive
            ended = alive & model.terminated(state)
            terminated |= ended
            alive &= ~ended
            steps = t + 1
            states[:, steps] = state
    return Rollouts(
        thetas=thetas, states=states[:, :steps + 1], actions=actions[:, :steps],
        lengths=lengths, terminated=terminated, diverged=diverged,
    )


MODELS = {
    "cartpole": CartPole,
    "pendulum": Pendulum,
    "lotka_volterra": LotkaVolterra,
}


def get_model(name: str) -> GenerativeModel:
    if name not in MODELS:
        raise ContractError(f"unknown benchmark {name!r}")
    return MODELS[name]()
