import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mfglab import EXAMPLE_MODEL, rng, verify
from mfglab import (
    InitialLaw,
    RunConfig,
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

MC_SMALL = RunConfig(EXAMPLE_MODEL, InitialLaw.dirac(0.0), T=6.0, dt=1e-3, n_paths=20_000,
                     seed=0)


def named_rows(rep):
    """A check record's rows as dicts keyed by its header."""
    return [dict(zip(rep.header, row)) for row in rep.rows]


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
    rep = verify_nash(MC_SMALL, example_selected, perts)
    assert rep.passed
    # the summary line opens with the base cost: "base 0.2500, ..."
    base = float(rep.detail.split(",")[0].removeprefix("base "))
    assert base == pytest.approx(0.25, abs=0.01)
    # oracle: a constant offset eps costs an extra eps^2 / 2
    for row, eps in zip(named_rows(rep), (0.5, 1.0)):
        assert row["delta_mean"] == pytest.approx(0.5 * eps**2, rel=0.1)
        assert row["ci_lo"] > 0.0


def test_verify_nash_zero_offset_is_exact_zero(example_model, example_selected):
    # common random numbers make the eps = 0 comparison bitwise identical
    perts = [("null", offset_perturbation(example_model, example_selected, 0.0))]
    cfg = RunConfig(example_model, InitialLaw.dirac(0.0), T=2.0, dt=1e-2, n_paths=256, seed=5)
    [row] = named_rows(verify_nash(cfg, example_selected, perts))
    assert row["delta_mean"] == 0.0
    assert row["stderr"] == 0.0


def test_verify_table_and_library_share_one_record(instance_b, instance_b_selected):
    # the verify command's checks are the library calls at the table's
    # sizes: the labelled Nash offsets, the Gateaux steps 1, 1/2, 1/4 along
    # the unit offset, and weak uniqueness at most 4000 paths, seeds
    # seed + 1 and seed + 2, judged at the law's mean
    U = instance_b_selected
    cfg = RunConfig(instance_b, InitialLaw.gaussian(0.7, 0.5), T=1.0, dt=1e-2, n_paths=300,
                    seed=4)
    got = dict(verify.run_checks(cfg, U, ["nash", "gateaux", "uniqueness"]))
    offsets = [(f"offset_{eps:g}", offset_perturbation(instance_b, U, eps))
               for eps in (0.25, 0.5, 1.0)]
    assert got == {
        "nash": verify_nash(cfg, U, offsets),
        "gateaux": gateaux_slope(cfg, U, 1.0, (1.0, 0.5, 0.25)),
        "uniqueness": weak_uniqueness_check(cfg, U, 0.7, seeds=(5, 6)),
    }
    assert all(isinstance(rec, verify.CheckResult) for rec in got.values())


def test_paired_legs_match_independent_runs(instance_b, instance_b_selected):
    # each leg is an ordinary representative run on the same noise streams,
    # so the deltas are the bitwise differences of independent calls
    U = instance_b_selected
    cfg = RunConfig(instance_b, InitialLaw.dirac(0.7), T=1.0, dt=1e-2, n_paths=300, seed=4)
    feedbacks = [offset_perturbation(instance_b, U, 0.3),
                 gain_perturbation(instance_b, U, 1.2)]
    [(base, legs)] = _paired_legs(cfg, U, [feedbacks])
    common = dict(x0=0.7, mean_flow=equilibrium_mean_flow(instance_b, U, 0.7),
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


def test_paired_groups_match_each_group_alone(instance_b, instance_b_selected):
    # one plan over two groups draws each block once for both, yet each
    # group's base and per-path differences are those of the group alone
    U = instance_b_selected
    cfg = RunConfig(instance_b, InitialLaw.dirac(0.7), T=1.0, dt=1e-2, n_paths=300, seed=4)
    g1 = [offset_perturbation(instance_b, U, 0.3), gain_perturbation(instance_b, U, 1.2)]
    g2 = [gain_perturbation(instance_b, U, 0.8), offset_perturbation(instance_b, U, -0.5),
          offset_perturbation(instance_b, U, 0.1)]
    planned = _paired_legs(cfg, U, [g1, g2])
    assert len(planned) == 2
    for group, (base, legs) in zip((g1, g2), planned):
        [(ref_base, ref_legs)] = _paired_legs(cfg, U, [group])
        assert np.array_equal(base.costs, ref_base.costs)
        assert len(legs) == len(ref_legs) == len(group)
        for (pert, diff), (ref_pert, ref_diff) in zip(legs, ref_legs):
            assert pert.feedback == ref_pert.feedback
            assert np.array_equal(diff, ref_diff)


def test_gain_perturbation_costs_more(example_model, example_selected):
    perts = [("gain x1.5", gain_perturbation(example_model, example_selected, 1.5))]
    cfg = RunConfig(example_model, InitialLaw.dirac(1.0), T=6.0, dt=1e-3, n_paths=10_000,
                    seed=2)
    rep = verify_nash(cfg, example_selected, perts)
    assert named_rows(rep)[0]["delta_mean"] > 0.0
    assert rep.passed


def test_gateaux_slopes_linear_in_epsilon(example_model, example_selected):
    cfg = RunConfig(example_model, InitialLaw.dirac(0.0), T=6.0, dt=1e-3, n_paths=10_000,
                    seed=1)
    rep = gateaux_slope(cfg, example_selected, direction=1.0, epsilons=(0.25, 0.5, 1.0))
    slopes = [(row["epsilon"], row["slope"]) for row in named_rows(rep)]
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
    cfg = RunConfig(example_model, InitialLaw.gaussian(1.0, 0.5), T=6.0, dt=2e-3,
                    n_paths=4_000, seed=1)
    rep = weak_uniqueness_check(cfg, example_selected, 0.0, seeds=(21, 22), n_particles=8_000)
    assert rep.passed
    [row] = named_rows(rep)
    assert row["z"] <= 3.0
    assert row["ks"] < row["ks_crit"]


def test_weak_uniqueness_dirac_same_seed_exact(example_model, example_selected):
    # a point mass with equal driving noise yields identical ensembles
    cfg = RunConfig(example_model, InitialLaw.dirac(1.0), T=2.0, dt=1e-2, n_paths=512, seed=1)
    rep = weak_uniqueness_check(cfg, example_selected, 0.0, seeds=(9, 9), n_particles=1_000)
    [row] = named_rows(rep)
    assert row["z"] == 0.0
    assert row["ks"] == 0.0


def test_weak_uniqueness_rejects_shifted_law(instance_b, instance_b_selected,
                                              monkeypatch):
    # the ensemble of seed 22 is shifted by 1: no longer equal in law
    real = verify.simulate_population

    def shifted(model, fb, law0, N, T, dt, seed):
        if seed == 22:
            law0 = InitialLaw.empirical(law0.samples + 1.0)
        return real(model, fb, law0, N, T, dt, seed)

    monkeypatch.setattr(verify, "simulate_population", shifted)
    cfg = RunConfig(instance_b, InitialLaw.gaussian(1.0, 0.5), T=6.0, dt=2e-3,
                    n_paths=4_000, seed=1)
    rep = weak_uniqueness_check(cfg, instance_b_selected, 0.0, seeds=(21, 22),
                                n_particles=8_000)
    assert not rep.passed
    assert named_rows(rep)[0]["z"] > 5.0


def _ks_samples(kind, n_a, n_b, seed):
    gen = np.random.default_rng(seed)
    if kind == "continuous":
        return gen.normal(size=n_a), gen.normal(0.05, 1.0, size=n_b)
    if kind == "disjoint":  # statistic 1
        return gen.normal(size=n_a), gen.normal(100.0, 1.0, size=n_b)
    # few distinct values: most pooled points are ties within and across samples
    return (gen.integers(0, 7, n_a).astype(float),
            gen.integers(0, 7, n_b).astype(float))


@pytest.mark.parametrize("kind", ["continuous", "tied", "disjoint"])
@pytest.mark.parametrize("n_a, n_b", [
    (1, 1), (1, 2), (1, 10_000), (3, 7), (40, 60), (397, 400), (4_000, 4_000),
    (4_000, 6_000), (9_999, 10_000), (10_000, 10_000),
])
def test_ks_statistic_matches_scipy_bitwise(kind, n_a, n_b):
    for seed in range(3):
        a, b = _ks_samples(kind, n_a, n_b, seed)
        assert verify._ks_statistic(a, b) == ks_2samp(a, b).statistic
        assert verify._ks_statistic(b, a) == ks_2samp(b, a).statistic


@pytest.mark.parametrize("n", [1, 2, 4_000, 10_000])
def test_ks_statistic_of_identical_samples_is_zero(n):
    a = np.random.default_rng(n).normal(size=n)
    ties = np.ones(n)
    assert verify._ks_statistic(a, a.copy()) == 0.0
    assert verify._ks_statistic(a, a[::-1]) == 0.0
    assert verify._ks_statistic(ties, ties) == 0.0


def test_weak_uniqueness_rejects_empirical_law(example_model, example_selected):
    cfg = RunConfig(example_model, InitialLaw.empirical([0.0, 1.0]), T=1.0, dt=1e-2,
                    n_paths=64, seed=0)
    with pytest.raises(ValueError):
        weak_uniqueness_check(cfg, example_selected, 0.0, seeds=(1, 2))


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


@pytest.mark.parametrize("epsilons", list(itertools.permutations((0.25, 0.5, 1.0))))
def test_gateaux_verdict_does_not_depend_on_step_order(example_model, example_selected,
                                                       epsilons):
    # the slopes are judged from the largest |eps| down, so increasing
    # steps (slopes 0.1166, 0.2388, 0.4831 here) pass as decreasing ones
    # do; the rows keep the order the steps were given in
    cfg = RunConfig(example_model, InitialLaw.dirac(0.0), T=2.0, dt=0.01, n_paths=2000, seed=1)
    rep = gateaux_slope(cfg, example_selected, 1.0, epsilons)
    assert rep.passed
    assert [row["epsilon"] for row in named_rows(rep)] == list(epsilons)
