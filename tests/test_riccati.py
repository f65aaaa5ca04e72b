import numpy as np
import pytest

from mfglab import LQModel, riccati_backward
from mfglab.errors import BlowUpError, RestPointMismatchError
from mfglab.riccati import stationarity_selfcheck
from mfglab.simulate import time_grid


def test_terminal_condition_is_zero(example_model):
    path = riccati_backward(example_model, T=2.0, dt=1e-3)
    assert path.p[-1] == 0.0
    assert path.q[-1] == 0.0


def test_stationary_limit_example(example_model, example_selected):
    path = riccati_backward(example_model, T=10.0, dt=1e-3)
    assert abs(path.p[0] - 2.0 * example_selected.a1) <= 1e-6
    assert abs(path.q[0] - example_selected.a2) <= 1e-6


def test_stationary_limit_instance_b(instance_b, instance_b_selected):
    path = riccati_backward(instance_b, T=10.0, dt=1e-3)
    assert abs(path.p[0] - 2.0 * instance_b_selected.a1) <= 1e-6
    assert abs(path.q[0] - instance_b_selected.a2) <= 1e-6


def test_p_stationary_points_example(example_model):
    # stationary p solves 2 p^2 - (r - 2 b1) p... here (r-2b1)p + (g)p^2 = 2A
    # with r=2, g=2, A=2: 2p + 2p^2 = 4, roots p in {1, -2}
    g = example_model.control_gain
    for p in (1.0, -2.0):
        assert g * p * p + (example_model.r - 2 * example_model.b1) * p - 2 * example_model.A == pytest.approx(0.0, abs=1e-14)


def test_monotone_horizon_convergence(example_model, example_selected):
    errs = []
    for T in (1.0, 2.0, 3.0, 4.0):
        path = riccati_backward(example_model, T=T, dt=1e-3)
        errs.append(abs(path.p[0] - 2.0 * example_selected.a1))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_rk4_order(example_model):
    # halving dt should shrink the discretization error ~16x
    ref = riccati_backward(example_model, T=3.0, dt=1e-5).p[0]
    e1 = abs(riccati_backward(example_model, T=3.0, dt=2e-2).p[0] - ref)
    e2 = abs(riccati_backward(example_model, T=3.0, dt=1e-2).p[0] - ref)
    assert 12.0 <= e1 / e2 <= 20.0


def test_at_interpolates(example_model):
    # the path lies on the simulation time grid, and the representation
    # check reads it between nodes with np.interp
    path = riccati_backward(example_model, T=5.0, dt=1e-3)
    assert np.array_equal(path.times, time_grid(5.0, 1e-3))
    p0, q0 = (float(np.interp(0.0, path.times, c)) for c in (path.p, path.q))
    assert p0 == path.p[0] and q0 == path.q[0]
    p_mid, lo, hi = np.interp([2.0005, 2.0, 2.001], path.times, path.p)
    assert min(lo, hi) <= p_mid <= max(lo, hi)


def test_stationarity_selfcheck_passes(example_model, instance_b):
    stationarity_selfcheck(example_model)
    stationarity_selfcheck(instance_b)


def test_blow_up_detected():
    # with b4 << 0 the cross-coefficient equation has no real rest point,
    # so the backward q-flow escapes in finite time
    model = LQModel(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=-20.0, A=2.0, C=1.0)
    with pytest.raises(BlowUpError):
        riccati_backward(model, T=10.0, dt=1e-3)


def test_dt_must_resolve_horizon(example_model):
    with pytest.raises(Exception):
        riccati_backward(example_model, T=1.0, dt=0.5)


def test_horizon_must_be_whole_steps(example_model):
    # 1.0 / 0.03 is not an integer: a rounded grid would end at t = 0.99
    with pytest.raises(ValueError, match="whole number of steps"):
        riccati_backward(example_model, T=1.0, dt=0.03)
    assert riccati_backward(example_model, T=0.3, dt=0.01).times.size == 31


@pytest.mark.parametrize("coefficient", ["r", "b2", "C"])
def test_selfcheck_tolerance_scales_with_the_terms(coefficient):
    # the field's terms are about 1e35 here, so an absolute 1e-8 would call
    # their rounding a mismatch
    coeffs = dict(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    coeffs[coefficient] = 1e18
    stationarity_selfcheck(LQModel(**coeffs))


def test_selfcheck_mismatch_is_an_mfglab_error():
    # at r = 1e300 the roots of size 1e299 have terms (p*p, q*q) beyond the
    # double range, so their rest-point residual cannot be checked
    model = LQModel(r=1e300, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    with pytest.raises(RestPointMismatchError, match="rest point mismatch"):
        stationarity_selfcheck(model)
