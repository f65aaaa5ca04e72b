import decimal
import math
import time

import numpy as np
import pytest

from mfglab import (
    AmbiguousRootError,
    DegenerateA3Error,
    LQModel,
    NoAdmissibleRootError,
    NoRealRootError,
    QuadraticValue,
    eval_jet,
    is_admissible,
    master_residual,
    pa_master_residual,
    root_system_residuals,
    select_admissible,
    solve_root_system,
    solve_selected,
    square_grid,
)
from mfglab.master import _stable_quadratic_roots

EXPECTED_EXAMPLE_ROOTS = [
    (0.5, 0.0, 0.0, 0.25),
    (0.5, -3.0, 1.5, 0.25),
    (-1.0, 3.0, -1.5, -0.5),
    (-1.0, 0.0, 0.0, -0.5),
]


def coeffs(U):
    return (U.a1, U.a2, U.a3, U.a4)


def test_stable_quadratic_roots_cancellation():
    # b^2 >> 4ac triggers catastrophic cancellation in the naive formula
    roots = sorted(_stable_quadratic_roots(1.0, -1e8, 1.0))
    assert roots[0] == pytest.approx(1e-8, rel=1e-12)
    assert roots[1] == pytest.approx(1e8, rel=1e-12)


def test_stable_quadratic_roots_double_root():
    assert _stable_quadratic_roots(1.0, -2.0, 1.0) == [1.0]


def test_stable_quadratic_roots_complex_pair_is_empty():
    assert _stable_quadratic_roots(1.0, 0.0, 1.0) == []


def test_stable_quadratic_roots_survive_an_overflowing_discriminant():
    # b*b overflows to inf: 4 z^2 + 1e300 z - 2 has roots -2.5e299 and 2e-300
    small_and_large = _stable_quadratic_roots(4.0, 1e300, -2.0)
    assert small_and_large == pytest.approx([2e-300, -2.5e299], rel=1e-15)
    assert small_and_large[0] == 2e-300
    # 4ac overflows to -inf: z^2 + 1e-300 z - 1 ~ z^2 - 1
    assert _stable_quadratic_roots(1e300, 1.0, -1e300) == [1.0, -1.0]
    # b*b and 4ac both overflow (inf - inf = nan): z^2 + z + 1, no real root
    assert _stable_quadratic_roots(1e300, 1e300, 1e300) == []
    # 4ac alone overflows to +inf: a genuinely negative discriminant
    assert _stable_quadratic_roots(1e300, 1.0, 1e300) == []
    # a coefficient that overflowed leaves nothing to scale
    with pytest.raises(NoRealRootError, match="beyond the double range"):
        _stable_quadratic_roots(4.0, math.inf, -2.0)


def _decimal_roots(a, b, c):
    """Both roots of a z^2 + b z + c at 120 digits, descending."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        a, b, c = (decimal.Decimal(v) for v in (a, b, c))
        q = -(b + (b * b - 4 * a * c).sqrt().copy_sign(b)) / 2
        return sorted((float(q / a), float(c / q)), reverse=True)


@pytest.mark.parametrize("a, b, c", [
    (6e307, -5e193, -3e-62),  # c over the largest is subnormal: small root was 0.0
    (1e-30, 1e200, 1e300),  # a over the largest underflows: was NoRealRootError
    # q overflows although the roots do not: both were NoRealRootError
    (-1.7e308, 1.7e308, 1.7e308),  # q = a * 1.618 = -2.8e308, roots 1.618, -0.618
    (1.7e308, 1.7e308, -1.0),  # q = -1.7e308 - 1.7e308, roots -1, 5.9e-309
], ids=["subnormal-c", "vanishing-a", "overflowing-q", "overflowing-q-subnormal-root"])
def test_overflowing_discriminant_roots_match_decimal(a, b, c):
    # b*b overflows in each, and both roots are representable
    assert _stable_quadratic_roots(a, b, c) == pytest.approx(_decimal_roots(a, b, c),
                                                             rel=1e-15)


def test_example_root_sets(example_roots):
    assert len(example_roots) == 4
    found = {coeffs(U) for U in example_roots}
    for expected in EXPECTED_EXAMPLE_ROOTS:
        assert any(
            all(abs(g - e) <= 1e-10 for g, e in zip(got, expected)) for got in found
        ), expected


def test_root_ordering(example_roots):
    keys = [(-U.a1, -U.a2) for U in example_roots]
    assert keys == sorted(keys)


def test_roots_satisfy_root_system(example_roots, instance_b):
    model = LQModel(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    for U in example_roots:
        assert max(map(abs, root_system_residuals(model, U))) <= 1e-12
    for U in solve_root_system(instance_b):
        assert max(map(abs, root_system_residuals(instance_b, U))) <= 1e-12


def test_a4_ties_to_a1(example_roots, instance_b):
    for U in example_roots:
        assert U.a4 == pytest.approx(U.a1 / 2.0, abs=1e-14)
    for U in solve_root_system(instance_b):
        assert U.a4 == pytest.approx(U.a1 / instance_b.r, abs=1e-14)


def test_select_admissible_example(example_model, example_roots):
    U = select_admissible(example_model, example_roots)
    assert coeffs(U) == pytest.approx((0.5, 0.0, 0.0, 0.25), abs=1e-12)


def test_admissibility_flags(example_model, example_roots):
    flags = [is_admissible(example_model, U) for U in example_roots]
    assert sum(flags) == 1


def test_no_admissible_root_error(example_model):
    bad = [QuadraticValue(a1=-1.0, a2=0.0, a3=0.0, a4=-0.5)]
    with pytest.raises(NoAdmissibleRootError):
        select_admissible(example_model, bad)


def test_ambiguous_root_error(example_model):
    good = QuadraticValue(a1=0.5, a2=0.0, a3=0.0, a4=0.25)
    with pytest.raises(AmbiguousRootError):
        select_admissible(example_model, [good, good])


def test_degenerate_a3_detection():
    # b2 = 9 puts the (a1, a2) = (1/2, 3) branch exactly on the singular
    # set of the linear a3 equation
    model = LQModel(r=2.0, b1=0.0, b2=9.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
    with pytest.raises(DegenerateA3Error):
        solve_root_system(model)


def test_eval_jet_matches_quadratic_form(example_selected):
    U = example_selected
    x, m = 1.5, -0.5
    value, dx, dxx, dmu, mixed = eval_jet(U, x, m)
    assert value == pytest.approx(U.a1 * x * x + U.a2 * x * m + U.a3 * m * m + U.a4)
    assert dx == pytest.approx(2 * U.a1 * x + U.a2 * m)
    assert dxx == pytest.approx(2 * U.a1)
    assert dmu(0.7) == pytest.approx(U.a2 * x + 2 * U.a3 * m)
    assert mixed == 0.0


def test_eval_jet_finite_differences(instance_b, instance_b_selected):
    U = instance_b_selected
    h = 1e-5
    for x, m in [(0.3, -1.2), (-2.0, 0.8)]:
        _, dx, dxx, dmu, _ = eval_jet(U, x, m)
        fd_dx = (U.value(x + h, m) - U.value(x - h, m)) / (2 * h)
        fd_dxx = (U.value(x + h, m) - 2 * U.value(x, m) + U.value(x - h, m)) / h**2
        fd_dm = (U.value(x, m + h) - U.value(x, m - h)) / (2 * h)
        assert abs(dx - fd_dx) <= 1e-8
        assert abs(dxx - fd_dxx) <= 1e-4
        assert abs(dmu(0.0) - fd_dm) <= 1e-8


def test_master_residual_zero_for_all_roots(example_model, example_roots):
    grid = square_grid(-3.0, 3.0, 61)
    for U in example_roots:
        rep = master_residual(example_model, U, grid)
        assert rep.max_abs_residual <= 1e-10


def test_pa_master_residual_zero_for_selected(example_model, example_selected):
    rep = pa_master_residual(example_model, example_selected, square_grid(-3.0, 3.0, 61))
    assert rep.max_abs_residual <= 1e-10


def test_master_residual_detects_constant_shift(example_model, example_selected):
    U = example_selected
    shifted = QuadraticValue(a1=U.a1, a2=U.a2, a3=U.a3, a4=U.a4 + 0.1)
    rep = master_residual(example_model, shifted, square_grid(-3.0, 3.0, 21))
    # r * delta_a4 = 2 * 0.1 appears uniformly in the residual
    assert rep.max_abs_residual == pytest.approx(0.2, abs=1e-12)


def test_pa_residual_detects_a1_perturbation(example_model, example_selected):
    U = example_selected
    bumped = QuadraticValue(a1=U.a1 + 0.01, a2=U.a2, a3=U.a3, a4=U.a4)
    rep = pa_master_residual(example_model, bumped, square_grid(-3.0, 3.0, 21))
    assert rep.max_abs_residual > 1e-3


def test_solver_runtime(example_model):
    solve_selected(example_model)  # warm caches
    t0 = time.perf_counter()
    solve_selected(example_model)
    assert time.perf_counter() - t0 < 1e-3


def test_no_negative_zero_in_coefficients(example_roots):
    for U in example_roots:
        for c in coeffs(U):
            assert not (c == 0.0 and math.copysign(1.0, c) < 0.0)


def test_residual_report_grid_label(example_model, example_selected):
    rep = master_residual(example_model, example_selected, square_grid(-3, 3, 61))
    assert "3721" in rep.grid_spec


def test_instance_b_selected_values(instance_b, instance_b_selected):
    U = instance_b_selected
    assert U.a1 == pytest.approx(0.572841614740048, abs=1e-12)
    assert U.a2 == pytest.approx(0.18949060157379957, abs=1e-12)
    assert U.a3 == pytest.approx(0.010619355380351895, abs=1e-12)
    assert U.a4 == pytest.approx(U.a1, abs=1e-15)
    assert max(map(abs, root_system_residuals(instance_b, U))) <= 1e-12
