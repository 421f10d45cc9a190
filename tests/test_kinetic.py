"""Sampled functional tests: which observables survive every collision."""

import math

import numpy as np
import pytest

from hardpair.bodies import make_ellipse, mass_weights
from hardpair.frames import LineField, build_frame
from hardpair.geometry import Beta
from hardpair.scattering import ScatteringFamily, scattering_matrix
from hardpair import kinetic
from hardpair.kinetic import (
    InvariantCandidate,
    angular_speed_candidate,
    constant_candidate,
    invariant_residual_table,
    kinetic_energy_candidate,
    momentum_candidate,
    standard_candidates,
    theta_function_candidate,
)

ELL = make_ellipse(2.0, 1.0)
DISK = make_ellipse(1.0, 1.0)
FAMILIES = [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.0)),
]


def _cell(body, fam, cand, n_samples, seed):
    # the probe's table for one candidate under one family
    return invariant_residual_table(body, [fam], [cand], n_samples, seed)[cand.name][fam.label()]


def test_known_invariants_vanish():
    table = invariant_residual_table(
        ELL, FAMILIES, standard_candidates(ELL), n_samples=500, seed=1)
    for name in ("1", "v_x", "v_y", "m|v|^2+Jw^2", "sin(theta)"):
        for fam_label, worst in table[name].items():
            assert worst < 1e-10, (name, fam_label, worst)


def test_angular_speed_not_invariant_on_ellipse():
    fam = ScatteringFamily.reflection()
    res = _cell(ELL, fam, angular_speed_candidate(), 500, seed=2)
    assert res > 1e-3


def test_angular_speed_invariant_on_disk_reflection():
    fam = ScatteringFamily.reflection()
    res = _cell(DISK, fam, angular_speed_candidate(), 500, seed=3)
    assert res < 1e-10


def test_angular_speed_not_invariant_on_disk_epsi():
    # the spin-mixing family trades spin against tangential slip even on
    # disks; total angular speed is not preserved there
    fam = ScatteringFamily.epsi()
    res = _cell(DISK, fam, angular_speed_candidate(), 500, seed=4)
    assert res > 1e-3


def test_custom_candidate_detects_noninvariant():
    bad = InvariantCandidate("vx_cubed", lambda v, w, th: v[..., 0] ** 3)
    res = _cell(ELL, ScatteringFamily.reflection(), bad, 300, seed=5)
    assert res > 1e-3


def test_momentum_candidates_named_by_axis():
    assert momentum_candidate(0).name == "v_x"
    assert momentum_candidate(1).name == "v_y"
    with pytest.raises(ValueError):
        momentum_candidate(2)


def test_theta_function_candidate_invariant():
    cand = theta_function_candidate(lambda t: np.cos(3 * t), "cos(3theta)")
    res = _cell(ELL, ScatteringFamily.epsi(), cand, 300, seed=6)
    assert res < 1e-12


def test_kinetic_energy_candidate_uses_mass_data():
    cand = kinetic_energy_candidate(ELL.m, ELL.J)
    v = np.array([1.0, 2.0])
    assert cand.fn(v, 0.5, 0.0) == pytest.approx(ELL.m * 5.0 + ELL.J * 0.25)


def _log_maxwellian(body, u, temperature):
    # log M = const - (m|v - u|^2 + J w^2) / temperature, an affine
    # combination of kinetic energy and linear momentum
    u = np.asarray(u, dtype=float)

    def log_m(v, w, th):
        dv = v - u
        return -(body.m * np.sum(dv * dv, axis=-1) + body.J * w * w) / temperature

    return InvariantCandidate("log M", log_m)


def test_maxwellian_residual_zero_mean():
    res = _cell(ELL, ScatteringFamily.reflection(),
                _log_maxwellian(ELL, np.zeros(2), 1.0), 300, seed=7)
    assert res < 1e-10


def test_maxwellian_residual_drifting():
    # a drifting maxwellian: boosting the reference frame leaves the log
    # defect at machine precision because momentum and energy both conserve
    res = _cell(ELL, ScatteringFamily.orientation_preserving(LineField.constant(1.0)),
                _log_maxwellian(ELL, [3.0, -1.0], 0.5), 300, seed=8)
    assert res < 1e-9


def test_invariant_residual_rejects_empty_sample():
    with pytest.raises(ValueError):
        invariant_residual_table(ELL, [ScatteringFamily.reflection()],
                                 [constant_candidate()], 0, seed=0)


@pytest.mark.parametrize("n_samples,seed,name", [
    # True ran one sample, and 2.5 raised a TypeError from inside range
    (True, 0, "n_samples"),
    (2.5, 0, "n_samples"),
    # None drew OS entropy, so a rerun differed
    (10, None, "seed"),
    (10, -3, "seed"),
], ids=["n-bool", "n-float", "seed-None", "seed-negative"])
def test_invariant_residual_names_a_bad_count(n_samples, seed, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an int"):
        invariant_residual_table(ELL, [ScatteringFamily.reflection()],
                                 [constant_candidate()], n_samples, seed)


@pytest.mark.parametrize("families,first,second", [
    ([LineField.fourier([[1, 0, 0.3, 0.1]]), LineField.fourier([[0, 1, 2.0, 0.5]])], 0, 1),
    # labels keep 6 significant digits of phi
    ([LineField.constant(0.1), None, LineField.constant(0.1 + 1e-9)], 0, 2),
], ids=["fourier", "constant"])
def test_table_refuses_families_that_share_a_label(families, first, second):
    # the columns are keyed by label: a repeated one would print one family's
    # residuals under both
    fams = [ScatteringFamily.reflection() if lf is None
            else ScatteringFamily.orientation_preserving(lf) for lf in families]
    with pytest.raises(ValueError, match=rf"families\[{first}\] and families\[{second}\]"):
        invariant_residual_table(ELL, fams, [angular_speed_candidate()], 10, 1)


def test_table_refuses_candidates_that_share_a_name():
    # the rows are keyed by name: w and v_x both named x printed one row at
    # v_x's rounding error, though w alone gives 1.67
    w, v_x = angular_speed_candidate(), momentum_candidate(0)
    same = [InvariantCandidate("x", w.fn), InvariantCandidate("x", v_x.fn)]
    with pytest.raises(ValueError, match=r"candidates\[0\] and candidates\[1\] share the name 'x'"):
        invariant_residual_table(ELL, [ScatteringFamily.reflection()], same, 200, 1)


def test_table_shares_samples_across_families():
    # the residual table must evaluate every family on the same draws, so
    # each column equals the single-family table with the same seed
    cand = angular_speed_candidate()
    table = invariant_residual_table(ELL, FAMILIES, [cand], 200, seed=9)
    for fam in FAMILIES:
        assert table[cand.name][fam.label()] == _cell(ELL, fam, cand, 200, seed=9)


def _pair_sum(cand, V, beta):
    # phi summed over both bodies of one sample, one value call per body
    return (cand.value(V[0:2], V[4], beta.theta)
            + cand.value(V[2:4], V[5], beta.thetabar))


def _reference_table(body, families, cands, n_samples, seed):
    # the per-sample route: the two spawned streams read one sample at a
    # time, a flip per sample, one assembled matrix per family
    beta_rng, w_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    diag = mass_weights(body.m, body.J)
    table = {c.name: {fam.label(): 0.0 for fam in families} for c in cands}
    for _ in range(n_samples):
        beta = Beta(*beta_rng.uniform(0.0, 2.0 * math.pi, 3))
        frame = build_frame(body, beta)
        W = w_rng.standard_normal(6)
        if float(W @ frame.nu) > 0.0:
            W = -W
        V = W / diag
        for fam in families:
            Vp = scattering_matrix(fam, frame).s @ V
            for c in cands:
                defect = abs(_pair_sum(c, Vp, beta) - _pair_sum(c, V, beta))
                row = table[c.name]
                row[fam.label()] = max(row[fam.label()], defect)
    return table


@pytest.mark.parametrize("body", [ELL, DISK], ids=["ellipse", "disk"])
def test_table_matches_reference_loop(body):
    # 300 samples span two blocks of the array sampler
    fams = FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    cands = standard_candidates(body) + [
        InvariantCandidate("vx_cubed", lambda v, w, th: v[..., 0] ** 3)]
    table = invariant_residual_table(body, fams, cands, 300, seed=10)
    ref = _reference_table(body, fams, cands, 300, seed=10)
    for c in cands:
        for fam in fams:
            got, want = table[c.name][fam.label()], ref[c.name][fam.label()]
            assert abs(got - want) <= 1e-13, (c.name, fam.label(), got, want)


def test_candidate_of_wrong_shape_is_named():
    bad = InvariantCandidate("scalar_one", lambda v, w, th: 1.0)
    with pytest.raises(ValueError, match="scalar_one"):
        _cell(ELL, ScatteringFamily.reflection(), bad, 10, seed=0)


@pytest.mark.parametrize("block", [1, 7, 400])
def test_table_does_not_depend_on_block_size(monkeypatch, block):
    fams = FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    cands = standard_candidates(ELL)
    want = invariant_residual_table(ELL, fams, cands, 300, seed=11)
    monkeypatch.setattr(kinetic, "_BLOCK", block)
    assert invariant_residual_table(ELL, fams, cands, 300, seed=11) == want


def test_each_candidate_runs_once_per_block(monkeypatch):
    # both bodies and every family's V' go through one fn call per block:
    # 300 samples in blocks of 128 make three calls per candidate
    calls = []

    def counted(name, fn):
        def run(v, w, th):
            calls.append((name, w.shape))
            return fn(v, w, th)
        return InvariantCandidate(name, run)

    cands = [counted(c.name, c.fn) for c in standard_candidates(ELL)]
    monkeypatch.setattr(kinetic, "_BLOCK", 128)
    table = invariant_residual_table(ELL, FAMILIES, cands, 300, seed=13)
    assert calls == [(c.name, (2, 1 + len(FAMILIES), k))
                     for k in (128, 128, 44) for c in cands]
    assert table == invariant_residual_table(ELL, FAMILIES, standard_candidates(ELL), 300, 13)


def test_probe_samples_approach():
    n = 0
    for frames, W in kinetic._sample_blocks(ELL, 600, seed=12):
        assert np.all(np.sum(W * frames.nu, axis=1) <= 0.0)
        n += len(W)
    assert n == 600
