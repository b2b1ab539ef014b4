"""Information geometry of response distributions and entropy-drift identities.

Works on explicit finite response distributions (points in the interior of a
probability simplex).  Provides the Fisher metric, natural gradients, the
per-response entropy drift induced by a policy-gradient update, its
regularized decomposition, and the parameter-space analogue for softmax
policies with shared parameters.  Every analytic quantity here can be checked
against a central finite difference of the entropy along the corresponding
update direction; verify_drift_fd does exactly that and returns one report
per trial.  It evaluates the trials of one size together: each identity is
written once over a leading trial axis, and the functions of one trial are
its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SIMPLEX_TOL = 1e-9
#: Points with a component below this are flagged as near-vertex: the Fisher
#: metric degenerates there and finite differences lose accuracy.
NEAR_VERTEX_PROB = 1e-4

DEFAULT_FD_STEP = 1e-6
DEFAULT_REL_TOL = 1e-4
DEFAULT_ABS_TOL = 1e-8


def check_simplex(pi: np.ndarray) -> np.ndarray:
    """Validate an interior simplex point: strictly positive, sums to 1."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size < 2:
        raise ValueError("need a 1-d distribution over at least two responses")
    return _simplex_rows(pi[None])[0]


def _simplex_rows(rows: np.ndarray) -> np.ndarray:
    """check_simplex for each row of an (n, m) stack."""
    if not np.all(rows > 0.0):
        raise ValueError("distribution must be strictly positive (interior point)")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    if off.any():
        raise ValueError(f"distribution sums to {sums[off][0]!r}, not 1")
    return rows


def random_interior_simplex(m: int, rng: np.random.Generator, min_prob: float = NEAR_VERTEX_PROB) -> np.ndarray:
    """Symmetric Dirichlet(1) sample, resampled until all components are >= min_prob."""
    while True:
        pi = rng.dirichlet(np.ones(m))
        if pi.min() >= min_prob:
            return pi


def surprisal(pi: np.ndarray) -> np.ndarray:
    return -np.log(pi)


def entropy(pi: np.ndarray) -> float | np.ndarray:
    """Shannon entropy; of each row, as an array, for an (n, m) stack."""
    h = -(pi * np.log(pi)).sum(axis=-1)
    return h if np.ndim(h) else float(h)


def kl_divergence(pi: np.ndarray, ref: np.ndarray) -> float | np.ndarray:
    """KL(pi || ref); of each pair of rows, as an array, for (n, m) stacks."""
    kl = (pi * (np.log(pi) - np.log(ref))).sum(axis=-1)
    return kl if np.ndim(kl) else float(kl)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, m) stacks.  numpy runs each row as the
    1-d np.dot, so every value has np.dot's bits."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def natural_gradient(pi: np.ndarray, euclidean_grad: np.ndarray) -> np.ndarray:
    """Fisher-preconditioned gradient on the simplex: pi * (g - <pi, g>).

    The result is tangent (sums to 0) by construction.
    """
    pi = check_simplex(pi)
    g = np.asarray(euclidean_grad, dtype=float)
    return pi * (g - float(np.dot(pi, g)))


def _entropy_gradient(pi: np.ndarray) -> np.ndarray:
    """Natural gradient of the Shannon entropy, pi * (S - H), of each row of an (n, m) stack."""
    return pi * (surprisal(pi) - entropy(pi)[:, None])


def resp_entropy_drift(pi: np.ndarray, a: int, advantage: float) -> float:
    """First-order entropy change per unit step along the response-a update direction.

    Closed form A * (S_a - H): reinforcing a response rarer than average
    (S_a > H) raises entropy, reinforcing a more likely one lowers it.
    """
    return regularized_drift(pi, a, DriftConfig(advantage=advantage)).task_term


@dataclass
class DriftConfig:
    """Inputs of the regularized drift: advantage plus regularizer settings.

    The entropy bonus is linear in the entropy, beta * H, so its derivative
    is beta.  pi_ref defaults to uniform when a KL term is active.
    """

    advantage: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    pi_ref: np.ndarray | None = None

    def reference(self, m: int) -> np.ndarray:
        if self.pi_ref is None:
            return np.full(m, 1.0 / m)
        return check_simplex(self.pi_ref)


class _Trials(NamedTuple):
    """What a stacked pass takes besides the points: a and the DriftConfig
    coefficients of n trials as (n,) arrays, and the rows of their pi_ref
    (None when no trial has a KL term)."""

    a: np.ndarray
    advantage: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    ref: np.ndarray | None

    @classmethod
    def one(cls, a: int, cfg: DriftConfig, m: int) -> _Trials:
        """One trial's; pi_ref is read, and so checked, only when gamma is active."""
        ref = cfg.reference(m)[None] if cfg.gamma != 0.0 else None
        return cls(np.array([a]), np.array([cfg.advantage]), np.array([cfg.beta]), np.array([cfg.gamma]), ref)


@dataclass
class RegularizedDrift:
    """Decomposed drift: total = task_term + pressure_term - ref_term."""

    total: float
    task_term: float
    pressure_term: float
    ref_term: float


def regularized_drift(pi: np.ndarray, a: int, cfg: DriftConfig) -> RegularizedDrift:
    """Entropy drift under the update direction of the regularized objective.

    task_term     A * (S_a - H)                     (sign set by the advantage)
    pressure_term (beta + gamma) * Var(S)            (never negative)
    ref_term      gamma * Cov(S, S_ref)              (subtracted)
    """
    pi = check_simplex(pi)
    return RegularizedDrift(*(float(x[0]) for x in _regularized_rows(pi[None], _Trials.one(a, cfg, pi.size))))


def _regularized_rows(pi: np.ndarray, t: _Trials) -> tuple[np.ndarray, ...]:
    """regularized_drift's (total, task, pressure, ref) terms for each row of an (n, m) stack."""
    s = surprisal(pi)
    h = entropy(pi)
    centered = s - h[:, None]
    task = t.advantage * (s[np.arange(len(pi)), t.a] - h)
    pressure = (t.beta + t.gamma) * _dots(pi, centered ** 2)
    ref_term = np.zeros(len(pi))
    if t.ref is not None:
        s_ref = surprisal(t.ref)
        cov = _dots(pi, centered * (s_ref - _dots(pi, s_ref)[:, None]))
        ref_term = np.where(t.gamma != 0.0, t.gamma * cov, 0.0)
    return task + pressure - ref_term, task, pressure, ref_term


def _direction_rows(pi: np.ndarray, t: _Trials) -> np.ndarray:
    """Natural-gradient direction of the regularized objective at each row of an (n, m) stack: A * (e_a - pi) plus
    beta times the entropy gradient minus gamma times the KL-to-reference gradient, tangent by construction.  A term
    whose coefficient is 0 is left out of that row, not added as 0 * term."""
    e = np.zeros_like(pi)
    e[np.arange(len(pi)), t.a] = 1.0
    direction = t.advantage[:, None] * (e - pi)
    beta, gamma = t.beta[:, None], t.gamma[:, None]
    direction = np.where(beta != 0.0, direction + beta * _entropy_gradient(pi), direction)
    if t.ref is not None:
        log_ratio = np.log(pi) - np.log(t.ref)
        toward_ref = gamma * pi * (log_ratio - kl_divergence(pi, t.ref)[:, None])
        direction = np.where(gamma != 0.0, direction - toward_ref, direction)
    return direction


@dataclass
class ParamPolicy:
    """Softmax response policy with shared parameters: logits = features @ theta.

    features is an (m, d) matrix with d <= m; the identity matrix recovers
    the one-parameter-per-response case.  A stack of n policies of one shape
    has features (n, m, d) and theta (n, d); each method then returns one
    row per policy.
    """

    features: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        shape = self.features.shape
        if len(shape) not in (2, 3) or shape[:-2] + shape[-1:] != self.theta.shape:
            raise ValueError("features must be (m, d) with d matching theta")

    def probs(self) -> np.ndarray:
        z = np.matmul(self.features, self.theta[..., None])[..., 0]
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        return p / p.sum(axis=-1, keepdims=True)

    def scores(self) -> np.ndarray:
        """Score matrix G with rows G_b = d log pi_b / d theta = M_b - E_pi[M]."""
        return self.features - np.matmul(self.probs()[..., None, :], self.features)

    def kernel(self) -> np.ndarray:
        """Score kernel K(b, c) = <G_b, G_c>."""
        g = self.scores()
        return np.matmul(g, np.swapaxes(g, -1, -2))


def param_entropy_gradient(policy: ParamPolicy) -> np.ndarray:
    """d H / d theta = sum_b pi_b (S_b - H) G_b."""
    return _param_entropy_gradient(policy.probs()[None], policy.scores()[None])[0]


def _param_entropy_gradient(pi: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.matmul(_entropy_gradient(pi)[:, None, :], g)[:, 0]


def _param_gradient_rows(pi: np.ndarray, g: np.ndarray, t: _Trials) -> np.ndarray:
    """d / d theta of the regularized objective for response a, for each policy
    of a stack, from its probabilities (n, m) and score matrices (n, m, d)."""
    grad = t.advantage[:, None] * g[np.arange(len(pi)), t.a]
    beta, gamma = t.beta[:, None], t.gamma[:, None]
    grad = np.where(beta != 0.0, grad + beta * _param_entropy_gradient(pi, g), grad)
    if t.ref is not None:
        away = gamma * np.matmul((pi * (surprisal(t.ref) - surprisal(pi)))[:, None, :], g)[:, 0]
        grad = np.where(gamma != 0.0, grad - away, grad)
    return grad


@dataclass
class ParamDrift:
    """Parameter-space drift decomposition.

    task_term bundles the advantage-driven part (diagonal kernel piece plus
    the cross-response kernel sum b_ker); total = task_term
    + (beta + gamma) * v_theta - gamma * c_theta.
    """

    total: float
    task_term: float
    b_ker: float
    v_theta: float
    c_theta: float


def parametrized_drift(policy: ParamPolicy, a: int, cfg: DriftConfig) -> ParamDrift:
    """Entropy drift in parameter space: <dH/dtheta, d(objective)/dtheta>.

    With shared parameters the kernel K couples responses, so reinforcing one
    response drags the probabilities of kernel-similar responses along; the
    b_ker term collects exactly that coupling.
    """
    pi = policy.probs()
    terms = _param_drift_rows(pi[None], policy.kernel()[None], _Trials.one(a, cfg, pi.size))
    return ParamDrift(*(float(x[0]) for x in terms))


def _param_drift_rows(pi: np.ndarray, kernel: np.ndarray, t: _Trials) -> tuple[np.ndarray, ...]:
    """parametrized_drift's (total, task, b_ker, v_theta, c_theta) for each
    policy of a stack, from its probabilities (n, m) and kernels (n, m, m)."""
    rows = np.arange(len(pi))
    s = surprisal(pi)
    h = entropy(pi)[:, None]
    weights = pi * (h - s)
    own = weights[rows, t.a] * kernel[rows, t.a, t.a]
    # One np.dot per row: kernel[:, a] is a strided column, which BLAS sums in
    # another order than a contiguous row, so a stacked row-dot moves last bits.
    b_ker = np.array([np.dot(w, k[:, j]) for w, k, j in zip(weights, kernel, t.a)]) - own
    task = -t.advantage * (own + b_ker)
    centered = pi * (s - h)
    pulled = np.matmul(centered[:, None, :], kernel)[:, 0]
    v_theta = _dots(pulled, centered)
    c_theta = np.zeros(len(pi))
    if t.ref is not None:
        s_ref = surprisal(t.ref)
        c_theta = np.where(t.gamma != 0.0, _dots(pulled, pi * (s_ref - _dots(pi, s_ref)[:, None])), 0.0)
    total = task + (t.beta + t.gamma) * v_theta - t.gamma * c_theta
    return total, task, b_ker, v_theta, c_theta


@dataclass
class DriftReport:
    """One verification trial: analytic drift vs finite difference of the entropy."""

    kind: str
    analytic: float
    finite_difference: float
    abs_error: float
    rel_error: float
    fd_step: float
    min_prob: float
    near_vertex: bool
    ok: bool


def _retract(pi: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Move in the simplex plane and renormalize; clips to stay positive.  Row by row for a stack."""
    q = np.clip(pi + step, 1e-300, None)
    return q / q.sum(axis=-1, keepdims=True)


def _fd_entropy_simplex(pi: np.ndarray, direction: np.ndarray, h: float) -> float | np.ndarray:
    return (entropy(_retract(pi, h * direction)) - entropy(_retract(pi, -h * direction))) / (2.0 * h)


def _fd_entropy_param(policy: ParamPolicy, direction: np.ndarray, h: float) -> float | np.ndarray:
    up = ParamPolicy(policy.features, policy.theta + h * direction)
    down = ParamPolicy(policy.features, policy.theta - h * direction)
    return (entropy(up.probs()) - entropy(down.probs())) / (2.0 * h)


def _draw_trial(kind: str, m: int, rng: np.random.Generator) -> tuple:
    """One trial's inputs, in the generator's order: (point, a, advantage, beta,
    gamma, pi_ref).  point is (pi,) on the simplex kinds and (features, theta)
    for parametrized; resp has no regularizer."""
    advantage = float(rng.uniform(-2.0, 2.0))
    if kind == "parametrized":
        d = int(rng.integers(2, m + 1))
        point = (rng.normal(size=(m, d)), 0.5 * rng.normal(size=d))
    else:
        point = (random_interior_simplex(m, rng),)
    a = int(rng.integers(m))
    if kind == "resp":
        return point, a, advantage, 0.0, 0.0, None
    return (point, a, advantage, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.1)),
            random_interior_simplex(m, rng))


def _evaluate(kind: str, draws: list[tuple], fd_step: float) -> tuple[np.ndarray, ...]:
    """(analytic, finite difference, min prob) of trials of one size, in one stacked pass."""
    points, a, advantage, beta, gamma, refs = zip(*draws)
    t = _Trials(*map(np.array, (a, advantage, beta, gamma)), None if kind == "resp" else _simplex_rows(np.stack(refs)))
    if kind == "parametrized":
        policy = ParamPolicy(*(np.stack(x) for x in zip(*points)))
        pi = policy.probs()
        analytic = _param_drift_rows(pi, policy.kernel(), t)[0]
        fd = _fd_entropy_param(policy, _param_gradient_rows(pi, policy.scores(), t), fd_step)
    else:
        pi = _simplex_rows(np.stack([p for p, in points]))
        total, task = _regularized_rows(pi, t)[:2]
        analytic = task if kind == "resp" else total
        fd = _fd_entropy_simplex(pi, _direction_rows(pi, t), fd_step)
    return analytic, fd, pi.min(axis=1)


def verify_drift_fd(
    kind: str,
    trials: int,
    rng: np.random.Generator,
    fd_step: float = DEFAULT_FD_STEP,
    tol_rel: float = DEFAULT_REL_TOL,
    tol_abs: float = DEFAULT_ABS_TOL,
    min_size: int = 3,
    max_size: int = 10,
) -> list[DriftReport]:
    """Monte-Carlo verification of a drift identity against central finite differences.

    kind is one of "resp" (plain advantage update), "regularized" (entropy
    bonus and KL-to-reference active) or "parametrized" (shared-parameter
    softmax in theta space).  Each trial draws a random interior
    configuration; near-vertex points are avoided by construction and would
    be flagged in the report rather than asserted.  The inputs are drawn
    trial by trial; the trials of one size (m, and d for parametrized) are
    then evaluated together, and the reports come back in draw order.
    """
    if kind not in ("resp", "regularized", "parametrized"):
        raise ValueError(f"unknown verification kind {kind!r}")
    if trials < 0 or not 2 <= min_size <= max_size:
        raise ValueError(f"need trials >= 0 and 2 <= min_size <= max_size, got trials={trials}, "
                         f"min_size={min_size}, max_size={max_size}")
    draws = [_draw_trial(kind, int(rng.integers(min_size, max_size + 1)), rng) for _ in range(trials)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (point, *_) in enumerate(draws):
        groups.setdefault(point[0].shape, []).append(i)
    analytic, fd, min_prob = np.empty(trials), np.empty(trials), np.empty(trials)
    for idx in groups.values():
        analytic[idx], fd[idx], min_prob[idx] = _evaluate(kind, [draws[i] for i in idx], fd_step)
    abs_err = np.abs(analytic - fd)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.where(analytic != 0.0, abs_err / np.abs(analytic), np.inf)
    ok = (abs_err <= tol_abs) | (rel_err <= tol_rel)
    columns = (analytic, fd, abs_err, rel_err, min_prob, min_prob < NEAR_VERTEX_PROB, ok)
    return [DriftReport(kind, *row[:4], fd_step, *row[4:]) for row in zip(*(c.tolist() for c in columns))]
