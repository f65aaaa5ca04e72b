import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
    AffineFeedback,
    InitialLaw,
    estimate_cost,
    simulate_population,
    simulate_representative,
    w2_empirical,
)
from mfglab import _kernels, rng, simulate
from mfglab.errors import DivergedError, MFGLabError
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
                        lambda seed, stream, first, rows, cols, first_col=0, out=None:
                        np.zeros((rows, cols)))
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
    # on noise drawn for that leg alone and scaled by sqrt(dt)
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
            noise = math.sqrt(dt) * rng.gaussian_block(seed, stream, offset + lo, hi - lo, n_steps)
            states = np.empty((hi - lo, n_steps + 1)) if keep_states else np.empty((0, 0))
            c = np.zeros(hi - lo)
            term, dstep = _kernels.representative_kernel(
                x0[lo:hi], mflow, off, noise, dt, disc,
                model.b1, model.b2, model.b3, model.b4, model.A, model.C,
                fb.fx, fb.fm, states, keep_states, c,
            )
            assert dstep == -1
            assert np.array_equal(leg.costs[lo:hi], c)
            assert np.array_equal(leg.terminal[lo:hi], term)
            if keep_states:
                assert np.array_equal(leg.states[lo:hi], states)
        assert leg.feedback is fb
        assert (leg.states is not None) == keep_states


@pytest.mark.parametrize("keep_states", [False, True])
def test_banded_chunks_equal_one_block(instance_b, instance_b_selected, monkeypatch,
                                       draw_log, keep_states):
    # chunks of 7 paths in bands of 9 steps (17 steps in the last chunk of 3
    # paths; a leg block's budget is half of BLOCK_DOUBLES) give bitwise the
    # legs of one 17-path block over the horizon
    model = instance_b
    eq = AffineFeedback.equilibrium(model, instance_b_selected)
    feedbacks = [eq, eq.with_offset(0.3), AffineFeedback(1.2 * eq.fx, 1.2 * eq.fm)]
    x0 = np.linspace(-1.0, 1.0, 17)
    args = (model, feedbacks, x0, lambda t: 0.4 * math.exp(-t), 0.5, 1e-2, 11)
    kwargs = dict(n_paths=17, keep_states=keep_states, stream=rng.STREAM_CHECKS,
                  path_offset=5)
    whole = simulate.simulate_legs(*args, **kwargs)
    monkeypatch.setattr(simulate, "PATH_CHUNK", 7)
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 2 * 7 * 9)
    drawn = len(draw_log())
    banded = simulate.simulate_legs(*args, **kwargs)
    # the log sees the draws wherever they are made, the worker's included
    bands = [call[1:5] for call in draw_log()[drawn:]]
    assert bands[:2] == [(5, 7, 0, 9), (5, 7, 9, 9)]
    assert bands[-1] == (19, 3, 34, 16) and len(bands) == 2 * 6 + 3
    for a, b in zip(whole, banded):
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.terminal, b.terminal)
        assert (a.states is None) == (b.states is None) == (not keep_states)
        if keep_states:
            assert np.array_equal(a.states, b.states)


def test_per_leg_start_points_equal_separate_runs(instance_b, instance_b_selected,
                                                   monkeypatch):
    # chunks of 7 paths in bands of 9 steps (a leg block's budget is half of
    # BLOCK_DOUBLES): legs started at their own points give bitwise the
    # batches of simulating each leg alone
    monkeypatch.setattr(simulate, "PATH_CHUNK", 7)
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 2 * 7 * 9)
    model = instance_b
    eq = AffineFeedback.equilibrium(model, instance_b_selected)
    feedbacks = [eq, eq, eq.with_offset(0.3)]
    n_paths = 17
    args = (lambda t: 0.4 * math.exp(-t), 0.5, 1e-2, 11)
    kwargs = dict(n_paths=n_paths, keep_states=True, stream=rng.STREAM_CHECKS,
                  path_offset=5)
    per_leg = np.array([[0.0], [1.0], [-0.5]])
    per_path = np.linspace(-1.0, 1.0, 3 * n_paths).reshape(3, n_paths)
    for x0 in (per_leg, per_path):
        legs = simulate.simulate_legs(model, feedbacks, x0, *args, **kwargs)
        for fb, start, leg in zip(feedbacks, x0, legs):
            solo = simulate_representative(model, fb, start, *args, **kwargs)
            assert np.array_equal(leg.costs, solo.costs)
            assert np.array_equal(leg.terminal, solo.terminal)
            assert np.array_equal(leg.states, solo.states)
            assert np.array_equal(leg.states[:, 0], np.broadcast_to(start, n_paths))


def test_simulate_legs_peak_memory_is_bounded(example_model, eq_feedback, live_noise_peak):
    # crn-verify's legs (8 legs, 8192 paths, 750 steps): two slots of 4096
    # paths x 125 steps (3.9 MiB each) are live, one stepped by the legs and
    # one filled by the noise worker, beside the legs' costs, terminal and
    # current states (0.5 MiB each)
    feedbacks = [eq_feedback.with_offset(0.1 * j) for j in range(8)]
    peak, slots = live_noise_peak(simulate.simulate_legs, example_model, feedbacks, 1.0,
                                  0.0, 3.0, 0.004, seed=3, n_paths=8192)
    assert slots == [2 * 4096 * 125 * 8]
    assert peak <= 10 * 2**20, peak / 2**20


def test_population_bands_equal_one_block(example_model, eq_feedback, monkeypatch):
    # 17 particles in bands of 9 steps, statistics over chunks of 9 rows:
    # the history, the means and the flow.csv rows of one block, bitwise
    args = (example_model, eq_feedback, InitialLaw.gaussian(0.5, 1.0), 17, 0.5, 1e-2, 4)
    whole = simulate_population(*args)
    whole_rows = export_flow_csv(whole)
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 17 * 9)
    bands = []
    real = rng.gaussian_block

    def spy(seed, stream, first_index, n_rows, n_cols, first_col=0, out=None):
        bands.append((first_col, n_cols))
        return real(seed, stream, first_index, n_rows, n_cols, first_col, out=out)

    monkeypatch.setattr(rng, "gaussian_block", spy)
    banded = simulate_population(*args)
    assert bands == [(0, 9), (9, 9), (18, 9), (27, 9), (36, 9), (45, 5)]
    assert np.array_equal(banded.states, whole.states)
    assert np.array_equal(banded.means, whole.means)
    assert export_flow_csv(banded) == whole_rows


@given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 40), st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_plan_tiles_rows_and_steps_in_even_bands(n_rows, chunk, n_steps, budget):
    plan = simulate._plan(n_rows, chunk, n_steps, budget)
    # chunk-major order: each chunk's bands run from step 0 to the horizon
    # before the next chunk starts, so the blocks tile rows x steps once
    tiles = [(lo, k0) for lo, hi, k0, k1 in plan]
    assert tiles == sorted(tiles)
    cover = np.zeros((n_rows, n_steps), dtype=int)
    for lo, hi, k0, k1 in plan:
        assert lo % chunk == 0 and hi == min(lo + chunk, n_rows)
        assert 0 <= k0 < k1 <= n_steps
        cover[lo:hi, k0:k1] += 1
    assert (cover == 1).all()
    for lo in range(0, n_rows, chunk):
        rows = min(chunk, n_rows - lo)
        widths = [k1 - k0 for lo_, hi, k0, k1 in plan if lo_ == lo]
        assert all(rows * w <= budget or w == 1 for w in widths)
        # even bands: all equal but the last, which is no longer
        assert len(set(widths[:-1])) <= 1 and widths[-1] <= widths[0]


def test_population_samples_its_initial_law_once(example_model, eq_feedback, monkeypatch):
    # 17 particles in six bands of at most 9 steps: the gaussian initial law
    # is sampled once, and the history is bitwise that of one block
    args = (example_model, eq_feedback, InitialLaw.gaussian(0.5, 1.0), 17, 0.5, 1e-2, 4)
    whole = simulate_population(*args)
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 17 * 9)
    calls = []
    real = InitialLaw.sample

    def spy(self, n, seed):
        calls.append((n, seed))
        return real(self, n, seed)

    monkeypatch.setattr(InitialLaw, "sample", spy)
    banded = simulate_population(*args)
    assert calls == [(17, 4)]
    assert np.array_equal(banded.states, whole.states)
    assert np.array_equal(banded.means, whole.means)


def test_population_divergence_in_a_later_band_names_its_step(example_model,
                                                              monkeypatch):
    # x' = 10x diverges after some 290 steps of 0.01, in the eighth band of
    # 40 steps: the banded run names the step the one-block run names
    steps = []
    for budget in (simulate.BLOCK_DOUBLES, 5 * 40):
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", budget)
        with pytest.raises(DivergedError) as info:
            simulate_population(example_model, AffineFeedback(5.0, 0.0),
                                InitialLaw.dirac(1.0), N=5, T=4.0, dt=0.01, seed=2)
        steps.append(info.value.step)
    assert steps[0] == steps[1] and 280 <= steps[0] < 320


def _no_child_left():
    # waitpid(-1) raises only when this process has no child at all,
    # running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_divergence_in_a_later_band_names_its_step(example_model, eq_feedback,
                                                   monkeypatch, draw_log):
    # x' = 10x diverges after some 290 steps of 0.01, in the eighth band of
    # 40 steps: the banded run names the step the one-block run names,
    # whether the noise worker or this process draws the bands, and the
    # worker is reaped
    feedbacks = [eq_feedback, AffineFeedback(5.0, 0.0)]
    steps = []
    for budget, can_fork in ((simulate.BLOCK_DOUBLES, True), (2 * 5 * 40, True),
                             (2 * 5 * 40, False)):
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", budget)
        monkeypatch.setattr(simulate, "_can_fork", lambda: can_fork)
        with pytest.raises(DivergedError) as info:
            simulate.simulate_legs(example_model, feedbacks, 1.0, 0.0, 4.0, 0.01,
                                   seed=2, n_paths=5)
        steps.append(info.value.step)
        _no_child_left()
    assert steps[0] == steps[1] == steps[2] and 280 <= steps[0] < 320
    assert any(call[5] for call in draw_log())


def test_simulate_legs_hold_one_noise_block_at_a_time(example_model, eq_feedback,
                                                       monkeypatch, live_noise_peak):
    # three blocks of 50 steps, two legs: the results and the kernels' work
    # buffers are small beside one block.  The legs hold one block at a
    # time: drawn here, a live peak below 1.6 blocks shows that each block
    # is released before the next one is drawn; drawn by the worker, the
    # live peak with its two one-block slots stays below 2.6 blocks
    monkeypatch.setattr(simulate, "PATH_CHUNK", 1000)
    n_steps, dt = 50, 0.01
    block_bytes = simulate.PATH_CHUNK * n_steps * 8
    feedbacks = [eq_feedback, eq_feedback.with_offset(0.2)]
    live = {}
    for can_fork in (True, False):
        monkeypatch.setattr(simulate, "_can_fork", lambda: can_fork)
        peak, slots = live_noise_peak(simulate.simulate_legs, example_model, feedbacks,
                                      0.5, 0.0, n_steps * dt, dt, seed=1,
                                      n_paths=3 * simulate.PATH_CHUNK)
        assert slots == ([2 * block_bytes] if can_fork else [])
        live[can_fork] = peak / block_bytes
    assert live[True] < 2.6 and live[False] < 1.6, live


@pytest.mark.parametrize("keep_states", [False, True])
def test_worker_blocks_equal_inline_blocks(instance_b, instance_b_selected, monkeypatch,
                                           draw_log, keep_states):
    # chunks of 7 paths in bands of 9 steps, legs started at their own
    # points, another stream and a path offset: the legs stepped over the
    # noise worker's slots are bitwise the legs of the same blocks drawn here
    monkeypatch.setattr(simulate, "PATH_CHUNK", 7)
    monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 2 * 7 * 9)
    model = instance_b
    eq = AffineFeedback.equilibrium(model, instance_b_selected)
    feedbacks = [eq, eq.with_offset(0.3), AffineFeedback(1.2 * eq.fx, 1.2 * eq.fm)]
    x0 = np.linspace(-1.0, 1.0, 3 * 17).reshape(3, 17)
    args = (model, feedbacks, x0, lambda t: 0.4 * math.exp(-t), 0.5, 1e-2, 11)
    kwargs = dict(n_paths=17, keep_states=keep_states, stream=rng.STREAM_CHECKS,
                  path_offset=5)
    forked = simulate.simulate_legs(*args, **kwargs)
    _no_child_left()
    n = len(draw_log())
    monkeypatch.setattr(simulate, "_can_fork", lambda: False)
    inline = simulate.simulate_legs(*args, **kwargs)
    calls = draw_log()
    # the same 15 blocks, drawn into the worker's slots, then drawn here
    assert n == 15 and [c[:5] for c in calls[:n]] == [c[:5] for c in calls[n:]]
    assert all(c[5] for c in calls[:n]) and not any(c[5] for c in calls[n:])
    for a, b in zip(forked, inline):
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.terminal, b.terminal)
        assert (a.states is None) == (b.states is None) == (not keep_states)
        if keep_states:
            assert np.array_equal(a.states, b.states)


def test_no_noise_worker_outlives_its_call(example_model, eq_feedback, monkeypatch):
    # three blocks of 10 paths: the worker is reaped after a whole run, and
    # after it failed, which the caller hears as an MFGLabError
    monkeypatch.setattr(simulate, "PATH_CHUNK", 10)
    args = (example_model, [eq_feedback], 0.5, 0.0, 0.5, 0.01)
    simulate.simulate_legs(*args, seed=1, n_paths=30)
    _no_child_left()
    real = rng.gaussian_block

    def failing(seed, stream, first_index, n_rows, n_cols, first_col=0, out=None):
        if out is not None:
            raise RuntimeError("a worker failure")
        return real(seed, stream, first_index, n_rows, n_cols, first_col)

    monkeypatch.setattr(rng, "gaussian_block", failing)
    with pytest.raises(MFGLabError, match="noise worker failed with exit status 1"):
        simulate.simulate_legs(*args, seed=1, n_paths=30)
    _no_child_left()


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


def test_population_follows_the_particle_streams(example_model, eq_feedback, monkeypatch):
    # particle i starts at the law's sample i and is stepped by sqrt(dt)
    # times its own stream (seed, STREAM_POPULATION, i)
    law, n, seed, n_steps, dt = InitialLaw.gaussian(0.5, 2.0), 5, 3, 4, 0.01
    stepped = []
    real = _kernels.population_kernel

    def spy(states, noise, *args):
        stepped.append(noise.copy())
        return real(states, noise, *args)

    monkeypatch.setattr(_kernels, "population_kernel", spy)
    pop = simulate_population(example_model, eq_feedback, law, n, n_steps * dt, dt, seed)
    assert np.array_equal(pop.states[0], law.sample(n, seed))
    (noise,) = stepped
    for i in range(n):
        row = rng.gaussian_block(seed, rng.STREAM_POPULATION, i, 1, n_steps)[0]
        assert np.array_equal(noise[i], math.sqrt(dt) * row)
