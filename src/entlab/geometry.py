"""Information geometry of response distributions and entropy-drift identities.

Works on explicit finite response distributions (points in the interior of a
probability simplex).  Provides the Fisher metric, natural gradients, the
per-response entropy drift induced by a policy-gradient update, its
regularized decomposition, and the parameter-space analogue for softmax
policies with shared parameters.  Every analytic quantity here can be checked
against a central finite difference of the entropy along the corresponding
update direction; verify_drift_fd does exactly that and returns one report
per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if not np.all(pi > 0.0):
        raise ValueError("distribution must be strictly positive (interior point)")
    if abs(pi.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"distribution sums to {pi.sum()!r}, not 1")
    return pi


def random_interior_simplex(m: int, rng: np.random.Generator, min_prob: float = NEAR_VERTEX_PROB) -> np.ndarray:
    """Symmetric Dirichlet(1) sample, resampled until all components are >= min_prob."""
    while True:
        pi = rng.dirichlet(np.ones(m))
        if pi.min() >= min_prob:
            return pi


def surprisal(pi: np.ndarray) -> np.ndarray:
    return -np.log(pi)


def entropy(pi: np.ndarray) -> float:
    return float(-(pi * np.log(pi)).sum())


def kl_divergence(pi: np.ndarray, ref: np.ndarray) -> float:
    return float((pi * (np.log(pi) - np.log(ref))).sum())


def natural_gradient(pi: np.ndarray, euclidean_grad: np.ndarray) -> np.ndarray:
    """Fisher-preconditioned gradient on the simplex: pi * (g - <pi, g>).

    The result is tangent (sums to 0) by construction.
    """
    pi = check_simplex(pi)
    g = np.asarray(euclidean_grad, dtype=float)
    return pi * (g - float(np.dot(pi, g)))


def entropy_natural_gradient(pi: np.ndarray) -> np.ndarray:
    """Natural gradient of the Shannon entropy: pi * (S - H)."""
    pi = check_simplex(pi)
    s = surprisal(pi)
    return pi * (s - entropy(pi))


def score_direction(pi: np.ndarray, a: int, advantage: float) -> np.ndarray:
    """Natural gradient of the advantage-weighted log-likelihood: A * (e_a - pi)."""
    pi = check_simplex(pi)
    e = np.zeros_like(pi)
    e[a] = 1.0
    return advantage * (e - pi)


def resp_entropy_drift(pi: np.ndarray, a: int, advantage: float) -> float:
    """First-order entropy change per unit step along the response-a update direction.

    Closed form A * (S_a - H): reinforcing a response rarer than average
    (S_a > H) raises entropy, reinforcing a more likely one lowers it.
    """
    pi = check_simplex(pi)
    s = surprisal(pi)
    return advantage * (float(s[a]) - entropy(pi))


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
    s = surprisal(pi)
    h = entropy(pi)
    var_s = float(np.dot(pi, (s - h) ** 2))
    task = cfg.advantage * (float(s[a]) - h)
    pressure = (cfg.beta + cfg.gamma) * var_s
    if cfg.gamma != 0.0:
        s_ref = surprisal(cfg.reference(pi.size))
        s_ref_mean = float(np.dot(pi, s_ref))
        ref = cfg.gamma * float(np.dot(pi, (s - h) * (s_ref - s_ref_mean)))
    else:
        ref = 0.0
    return RegularizedDrift(total=task + pressure - ref, task_term=task,
                            pressure_term=pressure, ref_term=ref)


def objective_direction(pi: np.ndarray, a: int, cfg: DriftConfig) -> np.ndarray:
    """Natural-gradient direction of the full regularized objective at pi.

    Advantage-weighted score plus beta times the entropy gradient
    minus gamma times the KL-to-reference gradient.  Tangent by construction.
    """
    pi = check_simplex(pi)
    direction = score_direction(pi, a, cfg.advantage)
    if cfg.beta != 0.0:
        direction = direction + cfg.beta * entropy_natural_gradient(pi)
    if cfg.gamma != 0.0:
        ref = cfg.reference(pi.size)
        log_ratio = np.log(pi) - np.log(ref)
        direction = direction - cfg.gamma * pi * (log_ratio - kl_divergence(pi, ref))
    return direction


@dataclass
class ParamPolicy:
    """Softmax response policy with shared parameters: logits = features @ theta.

    features is an (m, d) matrix with d <= m; the identity matrix recovers
    the one-parameter-per-response case.
    """

    features: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.features.ndim != 2 or self.features.shape[1] != self.theta.size:
            raise ValueError("features must be (m, d) with d matching theta")

    def probs(self) -> np.ndarray:
        z = self.features @ self.theta
        z = z - z.max()
        p = np.exp(z)
        return p / p.sum()

    def scores(self) -> np.ndarray:
        """Score matrix G with rows G_b = d log pi_b / d theta = M_b - E_pi[M]."""
        pi = self.probs()
        return self.features - pi @ self.features

    def kernel(self) -> np.ndarray:
        """Score kernel K(b, c) = <G_b, G_c>."""
        g = self.scores()
        return g @ g.T


def param_entropy_gradient(policy: ParamPolicy) -> np.ndarray:
    """d H / d theta = sum_b pi_b (S_b - H) G_b."""
    pi = policy.probs()
    s = surprisal(pi)
    h = entropy(pi)
    return (pi * (s - h)) @ policy.scores()


def param_objective_gradient(policy: ParamPolicy, a: int, cfg: DriftConfig) -> np.ndarray:
    """d / d theta of the regularized objective for response a."""
    pi = policy.probs()
    g = policy.scores()
    grad = cfg.advantage * g[a]
    if cfg.beta != 0.0:
        grad = grad + cfg.beta * param_entropy_gradient(policy)
    if cfg.gamma != 0.0:
        s = surprisal(pi)
        s_ref = surprisal(cfg.reference(pi.size))
        grad = grad - cfg.gamma * ((pi * (s_ref - s)) @ g)
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
    s = surprisal(pi)
    h = entropy(pi)
    kernel = policy.kernel()
    weights = pi * (h - s)

    b_ker = float(np.dot(weights, kernel[:, a])) - float(weights[a] * kernel[a, a])
    task = -cfg.advantage * (float(weights[a] * kernel[a, a]) + b_ker)

    centered = pi * (s - h)
    v_theta = float(centered @ kernel @ centered)

    if cfg.gamma != 0.0:
        s_ref = surprisal(cfg.reference(pi.size))
        ref_centered = pi * (s_ref - float(np.dot(pi, s_ref)))
        c_theta = float(centered @ kernel @ ref_centered)
    else:
        c_theta = 0.0

    total = task + (cfg.beta + cfg.gamma) * v_theta - cfg.gamma * c_theta
    return ParamDrift(total=total, task_term=task, b_ker=b_ker, v_theta=v_theta, c_theta=c_theta)


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
    """Move in the simplex plane and renormalize; clips to stay positive."""
    q = np.clip(pi + step, 1e-300, None)
    return q / q.sum()


def _fd_entropy_simplex(pi: np.ndarray, direction: np.ndarray, h: float) -> float:
    return (entropy(_retract(pi, h * direction)) - entropy(_retract(pi, -h * direction))) / (2.0 * h)


def _fd_entropy_param(policy: ParamPolicy, direction: np.ndarray, h: float) -> float:
    up = ParamPolicy(policy.features, policy.theta + h * direction)
    down = ParamPolicy(policy.features, policy.theta - h * direction)
    return (entropy(up.probs()) - entropy(down.probs())) / (2.0 * h)


def _report(kind: str, analytic: float, fd: float, fd_step: float, min_prob: float,
            tol_rel: float, tol_abs: float) -> DriftReport:
    abs_err = abs(analytic - fd)
    rel_err = abs_err / abs(analytic) if analytic != 0.0 else float("inf")
    near_vertex = min_prob < NEAR_VERTEX_PROB
    ok = (abs_err <= tol_abs) or (rel_err <= tol_rel)
    return DriftReport(kind=kind, analytic=analytic, finite_difference=fd,
                       abs_error=abs_err, rel_error=rel_err, fd_step=fd_step,
                       min_prob=min_prob, near_vertex=near_vertex, ok=ok)


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
    be flagged in the report rather than asserted.
    """
    if kind not in ("resp", "regularized", "parametrized"):
        raise ValueError(f"unknown verification kind {kind!r}")
    reports: list[DriftReport] = []
    for _ in range(trials):
        m = int(rng.integers(min_size, max_size + 1))
        advantage = float(rng.uniform(-2.0, 2.0))
        if kind == "resp":
            pi = random_interior_simplex(m, rng)
            a = int(rng.integers(m))
            analytic = resp_entropy_drift(pi, a, advantage)
            fd = _fd_entropy_simplex(pi, score_direction(pi, a, advantage), fd_step)
            min_prob = float(pi.min())
        elif kind == "regularized":
            pi = random_interior_simplex(m, rng)
            a = int(rng.integers(m))
            cfg = DriftConfig(
                advantage=advantage,
                beta=float(rng.uniform(0.0, 1.0)),
                gamma=float(rng.uniform(0.0, 0.1)),
                pi_ref=random_interior_simplex(m, rng),
            )
            analytic = regularized_drift(pi, a, cfg).total
            fd = _fd_entropy_simplex(pi, objective_direction(pi, a, cfg), fd_step)
            min_prob = float(pi.min())
        else:
            d = int(rng.integers(2, m + 1))
            policy = ParamPolicy(features=rng.normal(size=(m, d)),
                                 theta=0.5 * rng.normal(size=d))
            a = int(rng.integers(m))
            cfg = DriftConfig(
                advantage=advantage,
                beta=float(rng.uniform(0.0, 1.0)),
                gamma=float(rng.uniform(0.0, 0.1)),
                pi_ref=random_interior_simplex(m, rng),
            )
            analytic = parametrized_drift(policy, a, cfg).total
            fd = _fd_entropy_param(policy, param_objective_gradient(policy, a, cfg), fd_step)
            min_prob = float(policy.probs().min())
        reports.append(_report(kind, analytic, fd, fd_step, min_prob, tol_rel, tol_abs))
    return reports
