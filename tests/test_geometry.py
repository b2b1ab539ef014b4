"""Tests for the simplex geometry and the entropy drift identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entlab.geometry import (
    DriftConfig,
    ParamPolicy,
    check_simplex,
    entropy,
    entropy_natural_gradient,
    fisher_rao_inner,
    kl_divergence,
    natural_gradient,
    objective_direction,
    param_entropy_gradient,
    param_objective_gradient,
    parametrized_drift,
    random_interior_simplex,
    regularized_drift,
    resp_entropy_drift,
    score_direction,
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


def test_entropy_natural_gradient_worked_values():
    pi = np.array([0.5, 0.3, 0.2])
    got = entropy_natural_gradient(pi)
    np.testing.assert_allclose(got, [-0.168255, 0.052300, 0.115955], atol=1e-5)
    assert abs(got.sum()) < 1e-12


def test_score_direction_shape():
    pi = np.array([0.2, 0.3, 0.5])
    d = score_direction(pi, 1, 2.0)
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
        inner = fisher_rao_inner(pi, entropy_natural_gradient(pi), score_direction(pi, a, adv))
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
        d = objective_direction(pi, int(rng.integers(m)), cfg)
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
        want = float(np.dot(param_entropy_gradient(policy), param_objective_gradient(policy, a, cfg)))
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
