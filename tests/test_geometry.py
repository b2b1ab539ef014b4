"""Tests for the simplex geometry and the entropy drift identities."""

from __future__ import annotations

import math

import geometry_reference as reference
import numpy as np
import pytest

from entlab import geometry
from entlab.geometry import (
    DriftConfig,
    ParamDrift,
    ParamPolicy,
    RegularizedDrift,
    check_simplex,
    entropy,
    kl_divergence,
    natural_gradient,
    param_entropy_gradient,
    parametrized_drift,
    random_interior_simplex,
    regularized_drift,
    resp_entropy_drift,
    surprisal,
    verify_drift_fd,
)


def test_check_simplex_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_simplex(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        check_simplex(np.array([1.2, -0.2]))
    out = check_simplex(np.array([0.25, 0.75]))
    assert out.sum() == pytest.approx(1.0)


def test_random_interior_simplex_respects_floor():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pi = random_interior_simplex(5, rng, min_prob=1e-3)
        assert pi.min() >= 1e-3
        assert pi.sum() == pytest.approx(1.0)


def test_entropy_surprisal_kl_basics():
    pi = np.array([0.5, 0.25, 0.25])
    np.testing.assert_allclose(surprisal(pi), -np.log(pi))
    assert entropy(pi) == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(4))
    assert kl_divergence(pi, pi) == pytest.approx(0.0, abs=1e-12)
    ref = np.array([1 / 3, 1 / 3, 1 / 3])
    assert kl_divergence(pi, ref) > 0.0


#: Components of a tangent vector must sum to 0 within this.
TANGENT_TOL = 1e-9


def fisher_rao_inner(pi: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Fisher metric <u, v>_pi = sum_a u_a v_a / pi_a on tangent vectors (components sum to 0): the reference
    for natural_gradient's defining identity, <natural_gradient(pi, g), u>_pi = g . u for every tangent u."""
    pi = check_simplex(pi)
    for vec in (u, v):
        if abs(float(np.sum(vec))) > TANGENT_TOL:
            raise ValueError("tangent vectors must have components summing to 0")
    return float(np.sum(u * v / pi))


def test_fisher_inner_two_point_example():
    pi = np.array([0.5, 0.5])
    u = np.array([1.0, -1.0])
    assert fisher_rao_inner(pi, u, u) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        fisher_rao_inner(pi, np.array([1.0, 0.0]), u)


def test_natural_gradient_is_tangent_and_metric_dual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pi = random_interior_simplex(6, rng)
        g = rng.normal(size=6)
        v = natural_gradient(pi, g)
        assert abs(v.sum()) < 1e-12
        # duality: <nat(g), u>_F = g . u for any tangent u
        u = rng.normal(size=6)
        u -= u.mean()
        assert fisher_rao_inner(pi, v, u) == pytest.approx(float(np.dot(g, u)), abs=1e-9)


def _entropy_gradient(pi):
    """The natural gradient of the entropy at one point: the stacked pass over a stack of one row."""
    return geometry._entropy_gradient(check_simplex(pi)[None])[0]


def _direction(pi, a, cfg):
    """The regularized objective's natural-gradient direction at one point: the stacked pass over one row."""
    pi = check_simplex(pi)
    return geometry._direction_rows(pi[None], geometry._Trials.one(a, cfg, pi.size))[0]


def _param_gradient(policy, a, cfg):
    """d / d theta of the regularized objective for one policy: the stacked pass over a stack of one."""
    pi = policy.probs()
    return geometry._param_gradient_rows(pi[None], policy.scores()[None], geometry._Trials.one(a, cfg, pi.size))[0]


def test_entropy_natural_gradient_worked_values():
    pi = np.array([0.5, 0.3, 0.2])
    for got in (_entropy_gradient(pi), reference.entropy_natural_gradient(pi)):
        np.testing.assert_allclose(got, [-0.168255, 0.052300, 0.115955], atol=1e-5)
        assert abs(got.sum()) < 1e-12


def test_score_direction_shape():
    pi = np.array([0.2, 0.3, 0.5])
    for d in (_direction(pi, 1, DriftConfig(advantage=2.0)), reference.score_direction(pi, 1, 2.0)):
        np.testing.assert_allclose(d, 2.0 * (np.array([0.0, 1.0, 0.0]) - pi))
        assert abs(d.sum()) < 1e-12


def test_drift_routes_agree():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(3, 9))
        pi = random_interior_simplex(m, rng)
        a = int(rng.integers(m))
        adv = float(rng.uniform(-2.0, 2.0))
        closed = resp_entropy_drift(pi, a, adv)
        inner = fisher_rao_inner(pi, _entropy_gradient(pi), _direction(pi, a, DriftConfig(advantage=adv)))
        assert abs(closed - inner) < 1e-12


def test_drift_sign_follows_relative_surprisal():
    pi = np.array([0.7, 0.2, 0.1])
    # reinforcing the likely response lowers entropy, the rare one raises it
    assert resp_entropy_drift(pi, 0, 1.0) < 0.0
    assert resp_entropy_drift(pi, 2, 1.0) > 0.0
    # a negative advantage flips both
    assert resp_entropy_drift(pi, 0, -1.0) > 0.0
    assert resp_entropy_drift(pi, 2, -1.0) < 0.0


def test_regularized_drift_reduces_to_plain_task_term():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pi = random_interior_simplex(5, rng)
        a = int(rng.integers(5))
        adv = float(rng.uniform(-2.0, 2.0))
        out = regularized_drift(pi, a, DriftConfig(advantage=adv))
        assert out.pressure_term == 0.0 and out.ref_term == 0.0
        assert out.total == pytest.approx(resp_entropy_drift(pi, a, adv))


def test_regularized_pressure_term_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(3, 9))
        pi = random_interior_simplex(m, rng)
        cfg = DriftConfig(
            advantage=float(rng.uniform(-2.0, 2.0)),
            beta=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.0, 0.1)),
            pi_ref=random_interior_simplex(m, rng),
        )
        out = regularized_drift(pi, int(rng.integers(m)), cfg)
        assert out.pressure_term >= 0.0
        assert out.total == pytest.approx(out.task_term + out.pressure_term - out.ref_term)


def test_objective_direction_is_tangent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(3, 7))
        pi = random_interior_simplex(m, rng)
        cfg = DriftConfig(advantage=1.3, beta=0.4, gamma=0.05,
                          pi_ref=random_interior_simplex(m, rng))
        d = _direction(pi, int(rng.integers(m)), cfg)
        assert abs(d.sum()) < 1e-10


def test_param_drift_is_theta_space_inner_product():
    """The decomposition total equals <dH/dtheta, dJ/dtheta> exactly; with
    identity features that pairing is the pi-weighted form
    A * (pi_a (S_a - H) - sum_b pi_b^2 (S_b - H)), which differs from the
    simplex Fisher drift A (S_a - H): shared-parameter updates are not
    natural-gradient updates, and the kernel terms carry the difference."""
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(3, 6))
        theta = 0.7 * rng.normal(size=m)
        policy = ParamPolicy(features=np.eye(m), theta=theta)
        pi = policy.probs()
        s = surprisal(pi)
        h = entropy(pi)
        a = int(rng.integers(m))
        cfg = DriftConfig(advantage=float(rng.uniform(-2.0, 2.0)))
        drift = parametrized_drift(policy, a, cfg)
        want = float(np.dot(param_entropy_gradient(policy), _param_gradient(policy, a, cfg)))
        assert drift.total == pytest.approx(want, rel=1e-9)
        closed = cfg.advantage * (pi[a] * (s[a] - h) - float(np.dot(pi**2, s - h)))
        assert drift.total == pytest.approx(closed, rel=1e-9)


def test_param_v_theta_is_square_norm_of_entropy_gradient():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(3, 8))
        d = int(rng.integers(2, m + 1))
        policy = ParamPolicy(features=rng.normal(size=(m, d)), theta=0.5 * rng.normal(size=d))
        drift = parametrized_drift(policy, 0, DriftConfig(beta=0.3))
        grad = param_entropy_gradient(policy)
        assert drift.v_theta == pytest.approx(float(np.dot(grad, grad)), abs=1e-10)


def test_param_policy_validation():
    with pytest.raises(ValueError):
        ParamPolicy(features=np.zeros((3, 2)), theta=np.zeros(3))


@pytest.mark.parametrize("kind,trials", [("resp", 300), ("regularized", 200), ("parametrized", 100)])
def test_drift_matches_finite_differences(kind, trials):
    rng = np.random.default_rng(11)
    reports = verify_drift_fd(kind, trials, rng)
    bad = [r for r in reports if not r.ok]
    assert not bad, f"{len(bad)} of {trials} {kind} trials outside tolerance; worst rel {max(r.rel_error for r in bad):.3e}"


def test_verify_drift_fd_rejects_unknown_kind():
    with pytest.raises(ValueError):
        verify_drift_fd("entropy", 1, np.random.default_rng(0))


@pytest.mark.parametrize("trials,min_size,max_size", [(-1, 3, 10), (5, 1, 10), (5, 0, 10), (5, 6, 5)])
@pytest.mark.parametrize("kind", ["resp", "regularized", "parametrized"])
def test_verify_drift_fd_refuses_bad_sizes_before_any_draw(kind, trials, min_size, max_size):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="min_size"):
        verify_drift_fd(kind, trials, rng, min_size=min_size, max_size=max_size)
    assert rng.bit_generator.state == state


def _bits(x):
    """x's type, shape and bytes, field by field for a dataclass, so that 0.0 and -0.0 differ."""
    if hasattr(x, "__dict__"):
        return [_bits(v) for v in vars(x).values()]
    return type(x), np.shape(x), np.asarray(x).tobytes()


def _same(got, want):
    return _bits(got) == _bits(want)


#: (seed, trials, keyword arguments): one size group (min_size == max_size), the smallest size, and
#: a step and tolerances off their defaults, besides the defaults at 1, 7 and 800 trials.
VERIFY_CASES = [
    (0, 800, {}),
    (1, 7, {}),
    (7, 1, {}),
    (3, 0, {}),
    (5, 120, {"min_size": 6, "max_size": 6}),
    (9, 120, {"min_size": 2, "max_size": 2}),
    (4, 200, {"min_size": 2}),
    (6, 200, {"fd_step": 1e-4, "tol_rel": 1e-3, "tol_abs": 1e-6}),
]


@pytest.mark.parametrize("seed,trials,kwargs", VERIFY_CASES)
@pytest.mark.parametrize("kind", ["resp", "regularized", "parametrized"])
def test_stacked_verify_is_the_per_trial_loop(kind, seed, trials, kwargs):
    """The size groups give every report of the per-trial reference, bit for bit and in order, and leave
    the generator where the reference leaves it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify_drift_fd(kind, trials, rng, **kwargs)
    want = reference.verify_drift_fd(kind, trials, ref_rng, **kwargs)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _configs(rng, m):
    """Regularizer settings that reach every branch: each coefficient off and on, pi_ref absent, given,
    ignored (gamma 0) and refused (gamma on), and a zero advantage, whose score direction holds -0.0."""
    adv = float(rng.uniform(-2.0, 2.0))
    return [DriftConfig(advantage=adv), DriftConfig(advantage=adv, beta=0.7), DriftConfig(advantage=adv, gamma=0.05),
            DriftConfig(advantage=adv, beta=0.3, gamma=0.08, pi_ref=random_interior_simplex(m, rng)),
            DriftConfig(advantage=0.0), DriftConfig(advantage=0.0, beta=0.2),
            DriftConfig(advantage=-1.0, pi_ref=np.array([2.0, -1.0])),
            DriftConfig(advantage=1.0, gamma=0.1, pi_ref=np.array([0.5, 0.6]))]


#: The reference's one-trial functions that geometry keeps only as stacked passes, as those passes over one row.
ONE_ROW = {"entropy_natural_gradient": _entropy_gradient, "objective_direction": _direction,
           "score_direction": lambda pi, a, advantage: _direction(pi, a, DriftConfig(advantage=advantage)),
           "param_objective_gradient": _param_gradient}


def _one_trial(name):
    return ONE_ROW[name] if name in ONE_ROW else getattr(geometry, name)


def test_one_trial_functions_are_the_scalar_formulas():
    """Each function of one trial, and each stacked pass over one row (ONE_ROW), returns the scalar formula's
    value with its bits and type, signed zeros included."""
    rng = np.random.default_rng(21)
    for _ in range(60):
        m = int(rng.integers(2, 11))
        pi = random_interior_simplex(m, rng)
        a = int(rng.integers(m))
        direction = rng.normal(size=m)
        direction -= direction.mean()
        cases = [(f, (pi,)) for f in ("entropy", "surprisal", "entropy_natural_gradient", "check_simplex")]
        cases += [("kl_divergence", (pi, random_interior_simplex(m, rng))),
                  ("score_direction", (pi, a, float(rng.uniform(-2.0, 2.0)))),
                  ("resp_entropy_drift", (pi, a, float(rng.uniform(-2.0, 2.0)))),
                  ("_fd_entropy_simplex", (pi, direction, 1e-6))]
        d = int(rng.integers(2, m + 1))
        features, theta = rng.normal(size=(m, d)), 0.5 * rng.normal(size=d)
        policy, ref_policy = ParamPolicy(features, theta), reference.ParamPolicy(features, theta)
        for name in ("probs", "scores", "kernel"):
            assert _same(getattr(policy, name)(), getattr(ref_policy, name)()), name
        assert _same(geometry.param_entropy_gradient(policy), reference.param_entropy_gradient(ref_policy))
        step = rng.normal(size=d)
        got = geometry._fd_entropy_param(policy, step, 1e-6)
        assert _same(got, reference._fd_entropy_param(ref_policy, step, 1e-6))
        for cfg in _configs(rng, m):
            cases += [(f, (pi, a, cfg)) for f in ("regularized_drift", "objective_direction")]
            for f in ("parametrized_drift", "param_objective_gradient"):
                try:
                    want = getattr(reference, f)(ref_policy, a, cfg)
                except ValueError:
                    with pytest.raises(ValueError):
                        _one_trial(f)(policy, a, cfg)
                    continue
                assert _same(_one_trial(f)(policy, a, cfg), want), f
        for name, args in cases:
            try:
                want = getattr(reference, name)(*args)
            except ValueError:
                with pytest.raises(ValueError):
                    _one_trial(name)(*args)
                continue
            assert _same(_one_trial(name)(*args), want), name


def test_stacked_rows_leave_out_each_rows_inactive_terms():
    """One stack holds rows with beta or gamma at 0 (their pi_ref given but unused) beside rows where they are
    active, and zero advantages; every row is the scalar formula's value, bit for bit."""
    rng = np.random.default_rng(17)
    n, m, d = 12, 5, 3
    pi = np.stack([random_interior_simplex(m, rng) for _ in range(n)])
    ref = np.stack([random_interior_simplex(m, rng) for _ in range(n)])
    a = rng.integers(m, size=n)
    advantage = np.array([0.0, 1.5, -0.7, 0.0, 2.0, -1.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0])
    beta = np.array([0.0, 0.4, 0.0, 0.3, 0.0, 0.9, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0])
    gamma = np.array([0.0, 0.0, 0.05, 0.05, 0.0, 0.02, 0.07, 0.0, 0.0, 0.0, 0.0, 0.0])
    t = geometry._Trials(a, advantage, beta, gamma, ref)
    cfgs = [DriftConfig(float(advantage[i]), float(beta[i]), float(gamma[i]), ref[i]) for i in range(n)]
    policy = ParamPolicy(rng.normal(size=(n, m, d)), 0.5 * rng.normal(size=(n, d)))
    regularized = geometry._regularized_rows(pi, t)
    direction = geometry._direction_rows(pi, t)
    param = geometry._param_drift_rows(policy.probs(), policy.kernel(), t)
    gradient = geometry._param_gradient_rows(policy.probs(), policy.scores(), t)
    for i, cfg in enumerate(cfgs):
        one = reference.ParamPolicy(policy.features[i], policy.theta[i])
        assert _same(RegularizedDrift(*(float(x[i]) for x in regularized)), reference.regularized_drift(pi[i], a[i], cfg))
        assert _same(direction[i], reference.objective_direction(pi[i], a[i], cfg))
        assert _same(ParamDrift(*(float(x[i]) for x in param)), reference.parametrized_drift(one, a[i], cfg))
        assert _same(gradient[i], reference.param_objective_gradient(one, a[i], cfg))


@pytest.mark.parametrize("pi", [[0.5, 0.6], [1.2, -0.2], [1.0], [[0.5, 0.5]], [0.5, 0.5 + 2e-9], [0.3, 0.0, 0.7]])
def test_check_simplex_refuses_what_the_scalar_check_refused(pi):
    with pytest.raises(ValueError) as got:
        check_simplex(pi)
    with pytest.raises(ValueError) as want:
        reference.check_simplex(pi)
    assert str(got.value) == str(want.value)


def test_param_policy_stack_is_one_row_per_policy():
    rng = np.random.default_rng(8)
    features, theta = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 3))
    stack = ParamPolicy(features, theta)
    for name in ("probs", "scores", "kernel"):
        rows = getattr(stack, name)()
        for i in range(5):
            assert rows[i].tobytes() == getattr(ParamPolicy(features[i], theta[i]), name)().tobytes()
    with pytest.raises(ValueError):
        ParamPolicy(features, theta[:4])
