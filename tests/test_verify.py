from dataclasses import replace

import numpy as np
import pytest

from mfglab import rng, verify
from mfglab import (
    InitialLaw,
    MCConfig,
    flow_consistency,
    gateaux_slope,
    lipschitz_scan,
    simulate_population,
    verify_nash,
    weak_uniqueness_check,
    y_representation_check,
)
from mfglab.simulate import AffineFeedback, simulate_representative
from mfglab.verify import _paired_legs, equilibrium_mean_flow, offset_perturbation

MC_SMALL = MCConfig(T=6.0, dt=1e-3, n_paths=20_000, seed=0, x0=0.0)


def gain_perturbation(model, U, gain):
    """Equilibrium feedback with both coefficients scaled."""
    eq = AffineFeedback.equilibrium(model, U)
    return AffineFeedback(gain * eq.fx, gain * eq.fm)


def bias_replayed_flow(monkeypatch, shift):
    """Shift the population means that ``flow_consistency`` replays against."""
    real = verify.simulate_population

    def biased(*args):
        pop = real(*args)
        return replace(pop, means=pop.means + shift)

    monkeypatch.setattr(verify, "simulate_population", biased)


def test_equilibrium_mean_flow_decay(example_model, example_selected):
    flow = equilibrium_mean_flow(example_model, example_selected, m0=1.0)
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(flow(t), np.exp(-2.0 * t))


def test_verify_nash_offsets(example_model, example_selected):
    perts = [
        ("offset 0.5", offset_perturbation(example_model, example_selected, 0.5)),
        ("offset 1.0", offset_perturbation(example_model, example_selected, 1.0)),
    ]
    rep = verify_nash(example_model, example_selected, perts, MC_SMALL)
    assert rep.all_non_negative
    assert rep.base_cost.mean == pytest.approx(0.25, abs=0.01)
    # oracle: a constant offset eps costs an extra eps^2 / 2
    for row, eps in zip(rep.perturbed, (0.5, 1.0)):
        assert row.delta_mean == pytest.approx(0.5 * eps**2, rel=0.1)
        assert row.delta_ci[0] > 0.0


def test_verify_nash_zero_offset_is_exact_zero(example_model, example_selected):
    # common random numbers make the eps = 0 comparison bitwise identical
    perts = [("null", offset_perturbation(example_model, example_selected, 0.0))]
    mc = MCConfig(T=2.0, dt=1e-2, n_paths=256, seed=5, x0=0.0)
    rep = verify_nash(example_model, example_selected, perts, mc)
    assert rep.perturbed[0].delta_mean == 0.0
    assert rep.perturbed[0].delta_se == 0.0


def test_paired_legs_match_independent_runs(instance_b, instance_b_selected):
    # each leg is an ordinary representative run on the same noise streams,
    # so the deltas are the bitwise differences of independent calls
    U = instance_b_selected
    mc = MCConfig(T=1.0, dt=1e-2, n_paths=300, seed=4, x0=0.7)
    feedbacks = [offset_perturbation(instance_b, U, 0.3),
                 gain_perturbation(instance_b, U, 1.2)]
    base, legs = _paired_legs(instance_b, U, feedbacks, mc, m0=0.4)
    common = dict(x0=0.7, mean_flow=equilibrium_mean_flow(instance_b, U, 0.4),
                  T=1.0, dt=1e-2, seed=4, n_paths=300)
    ref_base = simulate_representative(
        instance_b, AffineFeedback.equilibrium(instance_b, U), **common)
    assert np.array_equal(base.costs, ref_base.costs)
    assert len(legs) == 2
    for fb, (pert, deltas) in zip(feedbacks, legs):
        ref = simulate_representative(instance_b, fb, **common)
        assert np.array_equal(pert.costs, ref.costs)
        assert np.array_equal(deltas, ref.costs - ref_base.costs)
        assert np.all(deltas != 0.0)


def test_gain_perturbation_costs_more(example_model, example_selected):
    perts = [("gain x1.5", gain_perturbation(example_model, example_selected, 1.5))]
    mc = MCConfig(T=6.0, dt=1e-3, n_paths=10_000, seed=2, x0=1.0)
    rep = verify_nash(example_model, example_selected, perts, mc)
    assert rep.perturbed[0].delta_mean > 0.0
    assert rep.all_non_negative


def test_gateaux_slopes_linear_in_epsilon(example_model, example_selected):
    mc = MCConfig(T=6.0, dt=1e-3, n_paths=10_000, seed=1, x0=0.0)
    slopes = gateaux_slope(
        example_model, example_selected, direction=1.0,
        epsilons=(0.25, 0.5, 1.0), mc=mc,
    )
    # quadratic cost: (J(eps) - J(0))/eps = eps/2 for a unit direction
    for eps, slope in slopes:
        assert slope / eps == pytest.approx(0.5, rel=0.1)
    ratio = slopes[2][1] / slopes[1][1]
    assert 1.8 <= ratio <= 2.2


def test_flow_consistency_is_exact(example_model, example_selected):
    dev = flow_consistency(
        example_model, example_selected, InitialLaw.dirac(1.0),
        N=100, seed=3, T=2.0, dt=1e-3,
    )
    assert dev <= 1e-9


def test_flow_consistency_single_particle(example_model, example_selected):
    dev = flow_consistency(
        example_model, example_selected, InitialLaw.dirac(1.0),
        N=1, seed=3, T=1.0, dt=1e-2,
    )
    assert dev <= 1e-9


def test_flow_consistency_sensitive_to_flow_bias(instance_b, instance_b_selected,
                                                  monkeypatch):
    # the identity breaks as soon as the replayed flow is biased, so a
    # passing check cannot be vacuous
    bias_replayed_flow(monkeypatch, 1e-3)
    dev = flow_consistency(
        instance_b, instance_b_selected, InitialLaw.dirac(1.0),
        N=50, seed=3, T=2.0, dt=1e-3,
    )
    assert dev > 1e-9


def test_flow_consistency_matches_single_path_replays(instance_b, instance_b_selected,
                                                       monkeypatch):
    # reference: replay each particle alone, at its own stream offset; the
    # batched replay must give the same deviation bit for bit
    law = InitialLaw.gaussian(1.0, 0.5)
    fb = AffineFeedback.equilibrium(instance_b, instance_b_selected)
    pop = simulate_population(instance_b, fb, law, 30, 1.0, 1e-2, 3)
    ref = 0.0
    for i in range(30):
        rep = simulate_representative(
            instance_b, fb, x0=pop.states[0, i], mean_flow=pop.means + 1e-3,
            T=1.0, dt=1e-2, seed=3, n_paths=1, keep_states=True,
            stream=rng.STREAM_POPULATION, path_offset=i,
        )
        ref = max(ref, float(np.max(np.abs(rep.states[0] - pop.states[:, i]))))
    bias_replayed_flow(monkeypatch, 1e-3)
    dev = flow_consistency(instance_b, instance_b_selected, law, N=30, seed=3,
                           T=1.0, dt=1e-2)
    assert dev == ref > 0.0


def test_y_representation_example(example_model, example_selected):
    pop = simulate_population(
        example_model,
        AffineFeedback.equilibrium(example_model, example_selected),
        InitialLaw.dirac(1.0), N=500, T=10.0, dt=1e-3, seed=2,
    )
    gap = y_representation_check(
        example_model, example_selected, pop.states, pop.means, pop.times
    )
    assert gap <= 1e-4


def test_y_representation_instance_b(instance_b, instance_b_selected):
    pop = simulate_population(
        instance_b,
        AffineFeedback.equilibrium(instance_b, instance_b_selected),
        InitialLaw.dirac(1.0), N=500, T=10.0, dt=1e-3, seed=2,
    )
    gap = y_representation_check(
        instance_b, instance_b_selected, pop.states, pop.means, pop.times
    )
    assert gap <= 1e-3


def test_weak_uniqueness_gaussian(example_model, example_selected):
    mc = MCConfig(T=6.0, dt=2e-3, n_paths=4_000, seed=1, x0=0.0)
    rep = weak_uniqueness_check(
        example_model, example_selected, 0.0, InitialLaw.gaussian(1.0, 0.5),
        seeds=(21, 22), mc=mc, n_particles=8_000,
    )
    assert rep.passed
    assert rep.overlap_z <= 3.0
    assert rep.ks_statistic < rep.ks_critical_1pct


def test_weak_uniqueness_dirac_same_seed_exact(example_model, example_selected):
    # a point mass with equal driving noise yields identical ensembles
    mc = MCConfig(T=2.0, dt=1e-2, n_paths=512, seed=1, x0=0.0)
    rep = weak_uniqueness_check(
        example_model, example_selected, 0.0, InitialLaw.dirac(1.0),
        seeds=(9, 9), mc=mc, n_particles=1_000,
    )
    assert rep.overlap_z == 0.0
    assert rep.ks_statistic == 0.0


def test_weak_uniqueness_rejects_shifted_law(instance_b, instance_b_selected,
                                              monkeypatch):
    # the ensemble of seed 22 is shifted by 1: no longer equal in law
    real = verify.simulate_population

    def shifted(model, fb, law0, N, T, dt, seed):
        if seed == 22:
            law0 = InitialLaw.empirical(law0.samples + 1.0)
        return real(model, fb, law0, N, T, dt, seed)

    monkeypatch.setattr(verify, "simulate_population", shifted)
    mc = MCConfig(T=6.0, dt=2e-3, n_paths=4_000, seed=1, x0=0.0)
    rep = weak_uniqueness_check(
        instance_b, instance_b_selected, 0.0, InitialLaw.gaussian(1.0, 0.5),
        seeds=(21, 22), mc=mc, n_particles=8_000,
    )
    assert not rep.passed
    assert rep.overlap_z > 5.0


def test_weak_uniqueness_rejects_empirical_law(example_model, example_selected):
    mc = MCConfig(T=1.0, dt=1e-2, n_paths=64, seed=0, x0=0.0)
    with pytest.raises(ValueError):
        weak_uniqueness_check(
            example_model, example_selected, 0.0,
            InitialLaw.empirical([0.0, 1.0]), seeds=(1, 2), mc=mc,
        )


def test_lipschitz_scan_bounded_by_gradient_coefficients(example_model, example_selected):
    probes = [
        ((x, m), (xp, mp))
        for x in (-2.0, 0.0, 2.0)
        for m in (-1.0, 1.0)
        for xp in (-1.5, 0.5)
        for mp in (-1.0, -0.5, 0.0)
    ]
    worst = lipschitz_scan(example_model, example_selected, probes)
    # dU/dx = 2 a1 x + a2 m = x for the symmetric model, so the quotient
    # |dU/dx - dU'/dx| / (|x - x'| + |m - m'|) peaks at exactly 1
    assert worst == pytest.approx(1.0, abs=1e-12)
    assert worst <= 1.0 + 1e-12


def test_lipschitz_scan_skips_coincident_pairs(example_model, example_selected):
    worst = lipschitz_scan(
        example_model, example_selected,
        [((1.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))],
    )
    assert worst == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lipschitz_scan(example_model, example_selected, [])
