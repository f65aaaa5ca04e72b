import math

import numpy as np
import pytest

from mfglab import (
    LQModel,
    ModelError,
    alpha_hat,
    closed_loop_coeffs,
    cost_rate,
    drift,
    generalized_hamiltonian,
    hamiltonian_H,
    hamiltonian_H_dx,
    hamiltonian_H_dy,
)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ModelError):
        LQModel(r=0.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    with pytest.raises(ModelError):
        LQModel(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=-1.0, C=1.0)
    with pytest.raises(ModelError):
        LQModel(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=0.0)
    with pytest.raises(ModelError):
        LQModel(r=2.0, b1=0.0, b2=0.0, b3=0.0, b4=0.0, A=2.0, C=1.0)


@pytest.mark.parametrize("name", ["r", "b1", "b2", "b3", "b4", "A", "C"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite_coefficients(name, value):
    coeffs = dict(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    coeffs[name] = value
    with pytest.raises(ModelError, match="finite"):
        LQModel(**coeffs)


@pytest.mark.parametrize("b3, C", [(1e-300, 1.0), (1e-160, 1e300), (1e200, 1.0),
                                   (2.0, 1e-308)])
def test_validation_rejects_degenerate_control_gain(b3, C):
    # b3**2/(2C) underflows to 0 or overflows to inf: the root system would
    # divide by zero or turn to nan
    with pytest.raises(ModelError, match="control gain"):
        LQModel(r=2.0, b1=0.0, b2=0.0, b3=b3, b4=0.0, A=2.0, C=C)


def test_control_gain(example_model, instance_b):
    assert example_model.control_gain == 2.0
    assert instance_b.control_gain == 2.0


def test_alpha_hat_closed_form(example_model):
    # argmin_a of a*b3*y + C*a^2 is -b3*y/(2C)
    assert alpha_hat(example_model, 0.3, 1.0) == -1.0
    assert alpha_hat(example_model, -5.0, -2.0) == 2.0


def test_alpha_hat_minimizes_generalized_hamiltonian(example_model, instance_b):
    for model in (example_model, instance_b):
        for x, m, y in [(0.0, 0.0, 1.0), (1.0, -2.0, 0.5), (-1.5, 0.7, -3.0)]:
            a_star = alpha_hat(model, x, y)
            h_star = generalized_hamiltonian(model, x, m, a_star, y)
            for a in np.linspace(a_star - 4.0, a_star + 4.0, 81):
                assert generalized_hamiltonian(model, x, m, a, y) >= h_star - 1e-12


def test_alpha_hat_lipschitz_equality(example_model, instance_b):
    # for a linear minimizer the Lipschitz bound b3/(2C) in y holds with equality
    for model in (example_model, instance_b):
        lip = abs(model.b3) / (2.0 * model.C)
        for y, yp in [(0.0, 1.0), (-2.0, 3.5), (10.0, 10.0)]:
            lhs = abs(alpha_hat(model, 0.0, y) - alpha_hat(model, 0.0, yp))
            assert lhs == pytest.approx(lip * abs(y - yp), abs=1e-12)


def test_drift_dissipativity_equality(example_model, instance_b):
    # (b(x,a)-b(x',a'))(x-x') = b1 (x-x')^2 - (b3^2/2C)(y-y')(x-x') exactly
    for model in (example_model, instance_b):
        gain = model.control_gain
        for (x, y), (xp, yp) in [((1.0, 2.0), (0.0, 0.0)), ((-1.0, 0.5), (2.0, -3.0))]:
            db = drift(model, x, 0.7, alpha_hat(model, x, y)) - drift(
                model, xp, 0.7, alpha_hat(model, xp, yp)
            )
            rhs = model.b1 * (x - xp) ** 2 - gain * (y - yp) * (x - xp)
            assert db * (x - xp) == pytest.approx(rhs, abs=1e-12)


def test_hamiltonian_is_minimized_generalized_hamiltonian(example_model, instance_b):
    for model in (example_model, instance_b):
        for x, m, y in [(0.0, 0.0, 0.0), (1.0, 2.0, -1.0), (-0.5, 0.3, 2.5)]:
            a_star = alpha_hat(model, x, y)
            expected = drift(model, x, m, a_star) * y + cost_rate(model, x, m, a_star)
            assert hamiltonian_H(model, x, m, y) == pytest.approx(expected, abs=1e-12)


def test_hamiltonian_partials_match_finite_differences(instance_b):
    h = 1e-6
    for x, m, y in [(0.4, -0.2, 1.3), (-1.0, 2.0, -0.7)]:
        fd_x = (
            hamiltonian_H(instance_b, x + h, m, y)
            - hamiltonian_H(instance_b, x - h, m, y)
        ) / (2 * h)
        fd_y = (
            hamiltonian_H(instance_b, x, m, y + h)
            - hamiltonian_H(instance_b, x, m, y - h)
        ) / (2 * h)
        assert hamiltonian_H_dx(instance_b, x, m, y) == pytest.approx(fd_x, abs=1e-6)
        assert hamiltonian_H_dy(instance_b, x, m, y) == pytest.approx(fd_y, abs=1e-6)


def test_cost_rate_example_values(example_model):
    # f = A x^2 + C a^2 for the example model
    assert cost_rate(example_model, 1.0, 0.0, 0.0) == 2.0
    assert cost_rate(example_model, 0.0, 5.0, 2.0) == 4.0


def test_closed_loop_coeffs_example(example_model, example_selected):
    cx, cm = closed_loop_coeffs(example_model, example_selected)
    assert cx == pytest.approx(-2.0, abs=1e-14)
    assert cm == pytest.approx(0.0, abs=1e-14)


def test_closed_loop_discount_margin(instance_b, instance_b_selected):
    cx, cm = closed_loop_coeffs(instance_b, instance_b_selected)
    assert cx < instance_b.r / 2.0
    assert cx + cm < instance_b.r / 2.0
    assert math.isfinite(cx) and math.isfinite(cm)
