"""Scattering matrices: algebra, conservation, and the physical routes."""

import math
import warnings

import numpy as np
import pytest

from hardpair.bodies import MassInertiaMatrix, make_disk, make_ellipse
from hardpair.geometry import Beta, d_beta, e_of
from hardpair.frames import LineField, block_rotation, build_frame, build_frames
from hardpair.scattering import (
    GrazingCollisionWarning,
    NotPreCollisionalError,
    ScatteringFamily,
    apply_scattering,
    explicit_epsi_velocities,
    family_from_config,
    impulse_scatter,
    scatter_stack,
    scattering_matrix,
    verify_scattering,
)

ELL = make_ellipse(2.0, 1.0)
DISK = make_disk(1.0)
MIM = MassInertiaMatrix.from_mass(ELL.m, ELL.J)

FAMILIES = [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.6)),
]


def _random_frame(rng, body=ELL):
    return build_frame(body, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))


def _incoming(rng, fr):
    V = rng.standard_normal(6)
    if float(MIM.apply(V) @ fr.nu) > 0.0:
        V = -V
    return V


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.variant)
def test_matrix_involution_and_determinant(family):
    rng = np.random.default_rng(31)
    want = -1.0 if family.variant in ("reflection", "epsi") else 1.0
    for _ in range(25):
        fr = _random_frame(rng)
        sm = scattering_matrix(family, fr)
        assert np.max(np.abs(sm.A @ sm.A - np.eye(6))) < 1e-12
        assert np.max(np.abs(sm.s @ sm.s - np.eye(6))) < 1e-12
        assert np.linalg.det(sm.A) == pytest.approx(want, abs=1e-12)


def test_family_traces():
    # rank counting: reflection flips 1 direction, epsi flips 3, the
    # orientation-preserving family flips 2
    rng = np.random.default_rng(32)
    fr = _random_frame(rng)
    traces = {
        "reflection": 4.0,
        "epsi": 0.0,
        "op": 2.0,
    }
    for fam in FAMILIES:
        sm = scattering_matrix(fam, fr)
        assert np.trace(sm.A) == pytest.approx(traces[fam.variant], abs=1e-12)


def test_eigenstructure_of_reflection():
    rng = np.random.default_rng(33)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.reflection(), fr)
    assert np.allclose(sm.A @ fr.nu, -fr.nu, atol=1e-12)
    for fixed in (fr.E1, fr.E2, fr.Ebeta, fr.F1, fr.F2):
        assert np.allclose(sm.A @ fixed, fixed, atol=1e-12)


def test_eigenstructure_of_epsi():
    rng = np.random.default_rng(34)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.epsi(), fr)
    for fixed in (fr.E1, fr.E2, fr.Ebeta):
        assert np.allclose(sm.A @ fixed, fixed, atol=1e-12)
    for flipped in (fr.nu, fr.F1, fr.F2):
        assert np.allclose(sm.A @ flipped, -flipped, atol=1e-12)


def test_conservation_under_all_families():
    rng = np.random.default_rng(35)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(ELL, beta)
        gam = np.concatenate([
            [0.0, 0.0], ELL.m * fr.d * np.array([-math.sin(beta.psi), math.cos(beta.psi)]),
            [ELL.J, ELL.J]])
        V = _incoming(rng, fr)
        for fam in FAMILIES:
            Vp = scattering_matrix(fam, fr).s @ V
            dV = Vp - V
            assert abs(ELL.m * (dV[0] + dV[2])) < 1e-10
            assert abs(ELL.m * (dV[1] + dV[3])) < 1e-10
            assert abs(gam @ dV) < 1e-9
            w, wp = MIM.apply(V), MIM.apply(Vp)
            assert abs(wp @ wp - w @ w) < 1e-10


def test_rotation_covariance_of_scattering():
    # s built at a rotated pose equals the conjugated matrix R s R^T
    rng = np.random.default_rng(36)
    for fam in FAMILIES:
        for _ in range(10):
            beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
            shift = rng.uniform(0.0, 2.0 * math.pi)
            s0 = scattering_matrix(fam, build_frame(ELL, beta)).s
            s1 = scattering_matrix(fam, build_frame(ELL, beta.shifted(shift))).s
            R = block_rotation(shift)
            assert np.max(np.abs(s1 - R @ s0 @ R.T)) < 1e-9


def test_impulse_route_equals_reflection_matrix():
    rng = np.random.default_rng(37)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        contact = d_beta(ELL, beta)
        fr = build_frame(ELL, beta)
        sm = scattering_matrix(ScatteringFamily.reflection(), fr)
        V = _incoming(rng, fr)
        assert np.max(np.abs(sm.s @ V - impulse_scatter(contact, ELL.m, ELL.J, V))) < 1e-12


def test_explicit_epsi_equals_matrix():
    rng = np.random.default_rng(38)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(ELL, beta)
        sm = scattering_matrix(ScatteringFamily.epsi(), fr)
        V = _incoming(rng, fr)
        assert np.max(np.abs(
            sm.s @ V - explicit_epsi_velocities(beta, fr.d, ELL.m, ELL.J, V))) < 1e-12


def test_disk_reflection_is_specular_exchange():
    rng = np.random.default_rng(39)
    mim = MassInertiaMatrix.from_mass(DISK.m, DISK.J)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(DISK, beta)
        sm = scattering_matrix(ScatteringFamily.reflection(), fr)
        V = rng.standard_normal(6)
        if float(mim.apply(V) @ fr.nu) > 0.0:
            V = -V
        Vp = sm.s @ V
        n = e_of(beta.psi)
        k = float((V[0:2] - V[2:4]) @ n)
        assert np.allclose(Vp[0:2], V[0:2] - k * n, atol=1e-12)
        assert np.allclose(Vp[2:4], V[2:4] + k * n, atol=1e-12)
        assert np.allclose(Vp[4:6], V[4:6], atol=1e-13)


def test_apply_scattering_flips_normal_projection():
    rng = np.random.default_rng(40)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.epsi(), fr)
    V = _incoming(rng, fr)
    Vp = apply_scattering(sm, V)
    assert sm.normal_projection(Vp) == pytest.approx(-sm.normal_projection(V), abs=1e-10)


def test_apply_scattering_rejects_separating_velocity():
    rng = np.random.default_rng(41)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.reflection(), fr)
    V = -_incoming(rng, fr)
    with pytest.raises(NotPreCollisionalError):
        apply_scattering(sm, V)


def test_apply_scattering_warns_on_grazing():
    rng = np.random.default_rng(42)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.reflection(), fr)
    V = rng.standard_normal(6)
    # remove the normal component entirely: exactly tangential motion
    w = MIM.apply(V)
    w = w - (w @ fr.nu) * fr.nu
    V = MIM.apply_inverse(w)
    with pytest.warns(GrazingCollisionWarning):
        apply_scattering(sm, V)


def test_scattering_matrix_rejects_bad_frame():
    rng = np.random.default_rng(43)
    fr = _random_frame(rng)
    import dataclasses
    broken = dataclasses.replace(fr, nu=fr.nu * 1.5)
    with pytest.raises(ValueError):
        scattering_matrix(ScatteringFamily.reflection(), broken)


def test_op_family_depends_on_line_field():
    rng = np.random.default_rng(44)
    fr = _random_frame(rng)
    s0 = scattering_matrix(
        ScatteringFamily.orientation_preserving(LineField.constant(0.0)), fr).s
    s1 = scattering_matrix(
        ScatteringFamily.orientation_preserving(LineField.constant(0.9)), fr).s
    assert np.max(np.abs(s0 - s1)) > 1e-3


def test_op_line_field_half_turn_is_same_map():
    rng = np.random.default_rng(45)
    fr = _random_frame(rng)
    sa = scattering_matrix(
        ScatteringFamily.orientation_preserving(LineField.constant(0.3)), fr).s
    sb = scattering_matrix(
        ScatteringFamily.orientation_preserving(LineField.constant(0.3 + math.pi)), fr).s
    assert np.max(np.abs(sa - sb)) < 1e-12


def test_family_from_config():
    assert family_from_config({"family": "reflection"}).variant == "reflection"
    assert family_from_config({"family": "epsi"}).variant == "epsi"
    fam = family_from_config(
        {"family": "op", "line_field": {"kind": "constant", "phi": 0.25}})
    assert fam.variant == "op" and fam.line_field.phi == 0.25
    with pytest.raises(ValueError):
        family_from_config({"family": "bounce"})
    with pytest.raises(ValueError):
        family_from_config({"family": "op"})


def test_verify_scattering_report():
    rng = np.random.default_rng(46)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.epsi(), fr)
    rep = verify_scattering(sm, ELL.m, ELL.J, fr.d, fr.beta.psi, n_samples=200)
    assert rep["half_space_flip_ok"]
    assert rep["det_sign"] == -1
    for key in ("involution", "linear_momentum_x", "linear_momentum_y",
                "angular_momentum", "kinetic_energy", "abs_det_residual"):
        assert rep[key] < 1e-10


def test_verify_scattering_catches_identity_injection():
    # negative control: the identity map conserves everything but cannot
    # flip the normal projection, and the audit must say so
    rng = np.random.default_rng(47)
    fr = _random_frame(rng)
    sm = scattering_matrix(ScatteringFamily.reflection(), fr)
    import dataclasses
    fake = dataclasses.replace(sm, s=np.eye(6), A=np.eye(6))
    rep = verify_scattering(fake, ELL.m, ELL.J, fr.d, fr.beta.psi, n_samples=200)
    assert not rep["half_space_flip_ok"]


def _stack_of(frames):
    return build_frames(
        np.array([fr.beta.theta for fr in frames]),
        np.array([fr.beta.thetabar for fr in frames]),
        np.array([fr.beta.psi for fr in frames]),
        np.array([fr.d for fr in frames]),
        np.array([fr.nu for fr in frames]), ELL.m, ELL.J)


def test_scatter_stack_matches_matrices():
    # every family, the Fourier op family included, applied as its low-rank
    # update agrees with the assembled matrix at each frame
    rng = np.random.default_rng(48)
    frames = [_random_frame(rng) for _ in range(30)]
    fams = FAMILIES + [ScatteringFamily.orientation_preserving(
        LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))]
    W = rng.standard_normal((30, 6))
    out = scatter_stack(fams, _stack_of(frames), W)
    assert out.shape == (len(fams), 30, 6)
    for f, fam in enumerate(fams):
        for i, fr in enumerate(frames):
            want = scattering_matrix(fam, fr).A @ W[i]
            assert np.max(np.abs(out[f, i] - want)) < 1e-14


def test_scatter_stack_rejects_bad_frame():
    rng = np.random.default_rng(49)
    stack = _stack_of([_random_frame(rng) for _ in range(5)])
    nu = stack.nu.copy()
    nu[3] *= 1.5
    broken = stack._replace(nu=nu)
    with pytest.raises(ValueError, match="not orthonormal"):
        scatter_stack(FAMILIES, broken, rng.standard_normal((5, 6)))
