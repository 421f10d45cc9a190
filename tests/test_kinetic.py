"""Sampled functional tests: which observables survive every collision."""

import math

import numpy as np
import pytest

from hardpair.bodies import MassInertiaMatrix, make_disk, make_ellipse
from hardpair.frames import LineField, build_frame
from hardpair.geometry import Beta
from hardpair.scattering import ScatteringFamily, scattering_matrix
from hardpair.kinetic import (
    angular_speed_candidate,
    constant_candidate,
    custom_candidate,
    invariant_residual,
    invariant_residual_table,
    kinetic_energy_candidate,
    maxwellian_residual,
    momentum_candidate,
    standard_candidates,
    theta_function_candidate,
)

ELL = make_ellipse(2.0, 1.0)
DISK = make_disk(1.0)
FAMILIES = [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.0)),
]


def test_known_invariants_vanish():
    table = invariant_residual_table(
        ELL, FAMILIES, standard_candidates(ELL), n_samples=500, seed=1)
    for name in ("1", "v_x", "v_y", "m|v|^2+Jw^2", "sin(theta)"):
        for fam_label, worst in table[name].items():
            assert worst < 1e-10, (name, fam_label, worst)


def test_angular_speed_not_invariant_on_ellipse():
    fam = ScatteringFamily.reflection()
    res = invariant_residual(ELL, fam, angular_speed_candidate(), 500, seed=2)
    assert res > 1e-3


def test_angular_speed_invariant_on_disk_reflection():
    fam = ScatteringFamily.reflection()
    res = invariant_residual(DISK, fam, angular_speed_candidate(), 500, seed=3)
    assert res < 1e-10


def test_angular_speed_not_invariant_on_disk_epsi():
    # the spin-mixing family trades spin against tangential slip even on
    # disks; total angular speed is not preserved there
    fam = ScatteringFamily.epsi()
    res = invariant_residual(DISK, fam, angular_speed_candidate(), 500, seed=4)
    assert res > 1e-3


def test_custom_candidate_detects_noninvariant():
    bad = custom_candidate("vx_cubed", lambda v, w, th: v[..., 0] ** 3)
    res = invariant_residual(ELL, ScatteringFamily.reflection(), bad, 300, seed=5)
    assert res > 1e-3


def test_momentum_candidates_named_by_axis():
    assert momentum_candidate(0).name == "v_x"
    assert momentum_candidate(1).name == "v_y"
    with pytest.raises(ValueError):
        momentum_candidate(2)


def test_theta_function_candidate_invariant():
    cand = theta_function_candidate(lambda t: np.cos(3 * t), "cos(3theta)")
    res = invariant_residual(ELL, ScatteringFamily.epsi(), cand, 300, seed=6)
    assert res < 1e-12


def test_kinetic_energy_candidate_uses_mass_data():
    cand = kinetic_energy_candidate(ELL.m, ELL.J)
    v = np.array([1.0, 2.0])
    assert cand.fn(v, 0.5, 0.0) == pytest.approx(ELL.m * 5.0 + ELL.J * 0.25)


def test_maxwellian_residual_zero_mean():
    res = maxwellian_residual(
        ELL, ScatteringFamily.reflection(), u=np.zeros(2), temperature=1.0,
        n_samples=300, seed=7)
    assert res < 1e-10


def test_maxwellian_residual_drifting():
    # a drifting maxwellian: boosting the reference frame leaves the log
    # defect at machine precision because momentum and energy both conserve
    res = maxwellian_residual(
        ELL, ScatteringFamily.orientation_preserving(LineField.constant(1.0)),
        u=np.array([3.0, -1.0]), temperature=0.5, n_samples=300, seed=8)
    assert res < 1e-9


def test_maxwellian_rejects_bad_temperature():
    with pytest.raises(ValueError):
        maxwellian_residual(ELL, ScatteringFamily.reflection(),
                            u=np.zeros(2), temperature=0.0, n_samples=10, seed=0)


def test_invariant_residual_rejects_empty_sample():
    with pytest.raises(ValueError):
        invariant_residual(ELL, ScatteringFamily.reflection(),
                           constant_candidate(), 0, seed=0)


def test_table_shares_samples_across_families():
    # the residual table must evaluate every family on the same draws, so a
    # single-family table equals the direct call with the same seed
    cand = angular_speed_candidate()
    fam = ScatteringFamily.reflection()
    table = invariant_residual_table(ELL, [fam], [cand], 200, seed=9)
    direct = invariant_residual(ELL, fam, cand, 200, seed=9)
    assert table[cand.name][fam.label()] == pytest.approx(direct, rel=1e-12)


def _reference_table(body, families, cands, n_samples, seed):
    # the per-sample route: same draw order, one assembled matrix per family
    rng = np.random.default_rng(seed)
    mim = MassInertiaMatrix.from_mass(body.m, body.J)
    table = {c.name: {fam.label(): 0.0 for fam in families} for c in cands}
    for _ in range(n_samples):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        frame = build_frame(body, beta)
        while True:
            W = rng.standard_normal(6)
            if float(W @ frame.nu) < 0.0:
                break
        V = mim.apply_inverse(W)
        for fam in families:
            Vp = scattering_matrix(fam, frame).s @ V
            for c in cands:
                defect = abs(c.pair_sum(Vp, beta.theta, beta.thetabar)
                             - c.pair_sum(V, beta.theta, beta.thetabar))
                row = table[c.name]
                row[fam.label()] = max(row[fam.label()], defect)
    return table


@pytest.mark.parametrize("body", [ELL, DISK], ids=["ellipse", "disk"])
def test_table_matches_reference_loop(body):
    # 300 samples span two blocks of the array sampler
    fams = FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    cands = standard_candidates(body) + [
        custom_candidate("vx_cubed", lambda v, w, th: v[..., 0] ** 3)]
    table = invariant_residual_table(body, fams, cands, 300, seed=10)
    ref = _reference_table(body, fams, cands, 300, seed=10)
    for c in cands:
        for fam in fams:
            got, want = table[c.name][fam.label()], ref[c.name][fam.label()]
            assert abs(got - want) <= 1e-13, (c.name, fam.label(), got, want)


def test_candidate_of_wrong_shape_is_named():
    bad = custom_candidate("scalar_one", lambda v, w, th: 1.0)
    with pytest.raises(ValueError, match="scalar_one"):
        invariant_residual(ELL, ScatteringFamily.reflection(), bad, 10, seed=0)
