import math

import numpy as np
import pytest

from mfglab import (
    AffineFeedback,
    InitialLaw,
    estimate_cost,
    simulate_population,
    simulate_representative,
    w2_empirical,
)
from mfglab import _kernels, rng, simulate
from mfglab.simulate import export_flow_csv


@pytest.fixture(scope="module")
def eq_feedback(example_model, example_selected):
    return AffineFeedback.equilibrium(example_model, example_selected)


def test_initial_laws():
    assert InitialLaw.dirac(2.0).mean == 2.0
    g = InitialLaw.gaussian(1.0, 0.5)
    assert g.mean == 1.0
    e = InitialLaw.empirical([0.0, 2.0])
    assert e.mean == 1.0
    # drawing exactly as many points as the sample returns it verbatim
    assert np.array_equal(e.sample(2, seed=0), [0.0, 2.0])


def test_empirical_law_has_no_inverse_cdf():
    with pytest.raises(ValueError, match="no inverse CDF"):
        InitialLaw.empirical([0.0, 2.0]).quantile([0.5])


def test_empirical_law_starts_only_its_own_ensemble():
    # an empirical law is a fixed ensemble: it is not resampled
    with pytest.raises(ValueError, match="2 samples"):
        InitialLaw.empirical([0.0, 2.0]).sample(3, seed=0)


def test_gaussian_quantile_symmetry():
    g = InitialLaw.gaussian(0.0, 1.0)
    u = np.array([0.1, 0.25, 0.5])
    q = g.quantile(u)
    assert q[2] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(g.quantile(1.0 - u), -q)


def test_equilibrium_feedback_coefficients(example_model, eq_feedback):
    # a = -b3/(2C) * dU/dx = -(2 a1 b3/(2C)) x - (a2 b3/(2C)) m
    assert eq_feedback.fx == pytest.approx(-1.0)
    assert eq_feedback.fm == pytest.approx(0.0)


def test_population_mean_decay(example_model, eq_feedback):
    # closed-loop mean obeys dm/dt = -2m, so m(t) = e^{-2t}
    pop = simulate_population(
        example_model, eq_feedback, InitialLaw.dirac(1.0), N=20_000, T=3.0,
        dt=1e-3, seed=5,
    )
    target = np.exp(-2.0 * pop.times)
    assert np.max(np.abs(pop.means - target)) <= 0.02


def test_population_stationary_variance(example_model, eq_feedback):
    # OU with rate 2 and unit noise has stationary variance 1/4
    pop = simulate_population(
        example_model, eq_feedback, InitialLaw.dirac(0.0), N=20_000, T=6.0,
        dt=1e-3, seed=1,
    )
    assert pop.variances()[-1] == pytest.approx(0.25, abs=0.02)


def test_deterministic_ode_limit(example_model, eq_feedback, monkeypatch):
    # with the noise switched off the path solves dx/dt = -2x exactly
    monkeypatch.setattr(rng, "gaussian_block",
                        lambda seed, stream, first, rows, cols: np.zeros((rows, cols)))
    batch = simulate_representative(
        example_model, eq_feedback, x0=1.0, mean_flow=0.0, T=2.0, dt=1e-4,
        seed=0, n_paths=2, keep_states=True,
    )
    assert abs(batch.states[0, -1] - math.exp(-4.0)) <= 1e-3


def test_cost_estimates_match_value(example_model, eq_feedback):
    # closed-form costs: J(x0) = x0^2/2 + 1/4
    for x0, target in ((0.0, 0.25), (1.0, 0.75)):
        batch = simulate_representative(
            example_model, eq_feedback, x0=x0, mean_flow=0.0, T=6.0, dt=1e-3,
            seed=9, n_paths=20_000,
        )
        est = estimate_cost(example_model, batch)
        assert est.mean == pytest.approx(target, abs=0.02)
        assert est.ci95[0] < target + 0.02 and est.ci95[1] > target - 0.02
        assert 0.0 <= est.tail_bound < 0.01


def test_dt_refinement_reduces_bias(example_model, eq_feedback):
    # coarse-step cost bias shrinks as dt is refined
    def cost(dt):
        batch = simulate_representative(
            example_model, eq_feedback, x0=1.0, mean_flow=0.0, T=6.0, dt=dt,
            seed=3, n_paths=4_000,
        )
        return estimate_cost(example_model, batch).mean

    coarse = abs(cost(2e-2) - 0.75)
    fine = abs(cost(1e-3) - 0.75)
    assert fine < coarse


def test_representative_bitwise_determinism(example_model, eq_feedback):
    kwargs = dict(x0=0.5, mean_flow=0.0, T=1.0, dt=1e-2, seed=42, n_paths=64)
    a = simulate_representative(example_model, eq_feedback, **kwargs)
    b = simulate_representative(example_model, eq_feedback, **kwargs)
    assert np.array_equal(a.costs, b.costs)
    assert np.array_equal(a.terminal, b.terminal)


def test_path_offset_reproduces_single_path(example_model, eq_feedback):
    # path j of a batch equals the single path launched at offset j
    batch = simulate_representative(
        example_model, eq_feedback, x0=0.5, mean_flow=0.0, T=1.0, dt=1e-2,
        seed=7, n_paths=8,
    )
    solo = simulate_representative(
        example_model, eq_feedback, x0=0.5, mean_flow=0.0, T=1.0, dt=1e-2,
        seed=7, n_paths=1, path_offset=3,
    )
    assert batch.costs[3] == solo.costs[0]
    assert batch.terminal[3] == solo.terminal[0]


def test_population_bitwise_determinism(example_model, eq_feedback):
    a = simulate_population(
        example_model, eq_feedback, InitialLaw.dirac(1.0), N=128, T=1.0,
        dt=1e-2, seed=13,
    )
    b = simulate_population(
        example_model, eq_feedback, InitialLaw.dirac(1.0), N=128, T=1.0,
        dt=1e-2, seed=13,
    )
    assert np.array_equal(a.states, b.states)


def test_mean_flow_forms_agree(example_model, eq_feedback):
    # callable, scalar and array mean flows drive identical paths
    T, dt = 1.0, 1e-2
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)
    flows = [0.0, lambda t: np.zeros_like(np.asarray(t, dtype=float)), np.zeros_like(times)]
    outs = [
        simulate_representative(
            example_model, eq_feedback, x0=1.0, mean_flow=f, T=T, dt=dt,
            seed=2, n_paths=4,
        ).costs
        for f in flows
    ]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_w2_examples():
    assert w2_empirical([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert w2_empirical([1.0, 5.0], [1.0, 5.0]) == 0.0
    # translation by c moves W2 by exactly |c|
    a = np.array([0.3, -1.2, 0.7])
    assert w2_empirical(a, a + 2.0) == pytest.approx(2.0)


def test_export_flow_rows(example_model, eq_feedback):
    pop = simulate_population(
        example_model, eq_feedback, InitialLaw.dirac(1.0), N=64, T=0.1,
        dt=1e-2, seed=0,
    )
    rows = export_flow_csv(pop)
    assert len(rows) == pop.times.size
    t, mean, var, q05, q95 = rows[0]
    assert (t, mean, var) == (0.0, 1.0, 0.0)
    assert q05 <= mean <= q95


@pytest.mark.parametrize("keep_states", [False, True])
def test_simulate_legs_match_per_leg_kernel_runs(instance_b, instance_b_selected,
                                                  monkeypatch, keep_states):
    # reference: each leg stepped on its own by the kernel, chunk by chunk,
    # on noise drawn for that leg alone
    monkeypatch.setattr(simulate, "PATH_CHUNK", 7)
    model, U = instance_b, instance_b_selected
    eq = AffineFeedback.equilibrium(model, U)
    feedbacks = [eq, eq.with_offset(0.3), AffineFeedback(1.2 * eq.fx, 1.2 * eq.fm)]
    T, dt, seed, n_paths, stream, offset = 0.5, 1e-2, 11, 17, rng.STREAM_CHECKS, 5
    x0 = np.linspace(-1.0, 1.0, n_paths)
    flow = lambda t: 0.4 * math.exp(-t)
    legs = simulate.simulate_legs(
        model, feedbacks, x0, flow, T, dt, seed, n_paths=n_paths, keep_states=keep_states, stream=stream, path_offset=offset,
    )
    n_steps = 50
    times = dt * np.arange(n_steps + 1)
    mflow = np.array([flow(t) for t in times])
    disc = np.exp(-model.r * times[:-1])
    assert len(legs) == len(feedbacks)
    for fb, leg in zip(feedbacks, legs):
        off = np.full(n_steps, fb.offset)
        for lo, hi in ((0, 7), (7, 14), (14, 17)):
            noise = rng.gaussian_block(seed, stream, offset + lo, hi - lo, n_steps)
            states = np.empty((hi - lo, n_steps + 1)) if keep_states else np.empty((0, 0))
            c, term, dstep = _kernels.representative_kernel(
                x0[lo:hi], mflow, off, noise, dt, math.sqrt(dt), disc,
                model.b1, model.b2, model.b3, model.b4, model.A, model.C,
                fb.fx, fb.fm, states, keep_states,
            )
            assert dstep == -1
            assert np.array_equal(leg.costs[lo:hi], c)
            assert np.array_equal(leg.terminal[lo:hi], term)
            if keep_states:
                assert np.array_equal(leg.states[lo:hi], states)
        assert leg.feedback is fb
        assert (leg.states is not None) == keep_states


def test_whole_steps():
    assert simulate.whole_steps(3.0, 0.004) == 750
    # floating-point noise in the division is still a whole step count
    assert 0.3 / 0.1 != 3.0 and simulate.whole_steps(0.3, 0.1) == 3
    for T, dt in ((0.5, 0.3), (2.0, 0.003), (math.inf, 0.1), (1.0, math.nan)):
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate.whole_steps(T, dt)


def test_horizon_must_be_whole_steps(example_model, eq_feedback):
    # 0.5 / 0.3 is not an integer: a rounded grid would end at t = 0.6
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate_representative(example_model, eq_feedback, x0=0.0, mean_flow=0.0,
                                T=0.5, dt=0.3, seed=0, n_paths=2)
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate_population(example_model, eq_feedback, InitialLaw.dirac(0.0), N=2,
                            T=0.5, dt=0.3, seed=0)
    batch = simulate_representative(example_model, eq_feedback, x0=0.0, mean_flow=0.0,
                                    T=0.3, dt=0.1, seed=0, n_paths=2)
    assert batch.times.size == 4


def test_whole_steps_stop_below_2_53():
    # from 2**53 on every double is a whole number, so no ratio there can
    # read as a partial step
    assert simulate.whole_steps(2.0**53 - 1.0, 1.0) == 2**53 - 1
    for span, step in ((2.0**53, 1.0), (2.0, 1e-300), (-(2.0**60), 1.0)):
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate.whole_steps(span, step)


def test_population_draws_follow_the_particle_streams():
    law, n, seed, n_steps = InitialLaw.gaussian(0.5, 2.0), 5, 3, 4
    x0, noise = simulate.population_draws(law, n, seed, n_steps)
    assert np.array_equal(x0, law.sample(n, seed))
    for i in range(n):
        row = rng.gaussian_block(seed, rng.STREAM_POPULATION, i, 1, n_steps)[0]
        assert np.array_equal(noise[i], row)
