"""Collision frames: the normal direction, conserved directions, complements."""

import math

import numpy as np
import pytest

from hardpair.bodies import MassInertiaMatrix, make_disk, make_ellipse
from hardpair.geometry import Beta, d_beta, e_of, perp
from hardpair.frames import (
    E1_HAT,
    E2_HAT,
    DegenerateFrameError,
    LineField,
    angular_momentum_vector,
    block_rotation,
    build_frame,
    build_frames,
    complement_basis,
    e_beta,
    e_beta_gram_schmidt,
    line_field_from_config,
    line_field_vector,
    nu_hat,
    rotate_blocks,
)

ELL = make_ellipse(2.0, 1.0)
DISK = make_disk(1.0)


def test_frame_orthonormal_on_random_poses():
    rng = np.random.default_rng(21)
    for k in range(100):
        body = ELL if k % 2 else DISK
        fr = build_frame(body, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        assert fr.orthonormality_residual() < 1e-10


def test_nu_hat_pre_collisional_normalization():
    rng = np.random.default_rng(22)
    mim = MassInertiaMatrix.from_mass(ELL.m, ELL.J)
    for _ in range(20):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        c = d_beta(ELL, beta)
        nu = nu_hat(c, ELL.m, ELL.J)
        assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
        # approaching along -n must register as incoming: V . (M nu) < 0
        V = np.concatenate([c.n, -c.n, [0.0, 0.0]])
        assert float(mim.apply(V) @ nu) < 0.0


def test_disk_nu_hat_closed_form():
    beta = Beta(0.0, 0.0, 0.7)
    c = d_beta(DISK, beta)
    nu = nu_hat(c, DISK.m, DISK.J)
    n = e_of(0.7)
    expect = np.concatenate([-n, n, [0.0, 0.0]]) / math.sqrt(2.0 * DISK.m)
    expect /= np.linalg.norm(expect)
    assert np.allclose(nu, expect, atol=1e-12)


def test_e_beta_printed_form_matches_gram_schmidt():
    rng = np.random.default_rng(23)
    for k in range(100):
        body = ELL if k % 2 else DISK
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        d = d_beta(body, beta).d
        printed = e_beta(beta, d, body.m, body.J)
        gs = e_beta_gram_schmidt(beta, d, body.m, body.J)
        assert np.max(np.abs(printed - gs)) < 1e-10


def test_e_beta_closed_form_values():
    m, J = DISK.m, DISK.J
    # contact along the x axis at distance 2
    eb = e_beta(Beta(0.0, 0.0, 0.0), 2.0, m, J)
    N = math.sqrt(2.0 * m * 4.0 + 8.0 * J)
    expect = np.array([0.0, -math.sqrt(m) * 2.0, 0.0, math.sqrt(m) * 2.0,
                       2.0 * math.sqrt(J), 2.0 * math.sqrt(J)]) / N
    assert np.allclose(eb, expect, atol=1e-14)
    # coincident-center limit: pure equal-spin direction
    eb0 = e_beta(Beta(0.0, 0.0, 0.0), 0.0, m, J)
    assert np.allclose(eb0, [0, 0, 0, 0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)


def test_angular_momentum_vector_unit_and_structure():
    g = angular_momentum_vector(0.9, 3.1, ELL.m, ELL.J)
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
    assert g[0] == 0.0 and g[1] == 0.0
    assert np.allclose(g[2:4] / np.linalg.norm(g[2:4]), perp(e_of(0.9)), atol=1e-12)
    assert g[4] == pytest.approx(g[5])


def test_conserved_directions_orthogonal_to_nu():
    rng = np.random.default_rng(24)
    for _ in range(50):
        fr = build_frame(ELL, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        assert abs(fr.E1 @ fr.nu) < 1e-12
        assert abs(fr.E2 @ fr.nu) < 1e-12
        assert abs(fr.Ebeta @ fr.nu) < 1e-12


def test_complement_basis_is_orthonormal_completion():
    rng = np.random.default_rng(25)
    fr = build_frame(ELL, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
    F1, F2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu)
    B = np.stack([fr.E1, fr.E2, fr.Ebeta, fr.nu, F1, F2])
    assert np.max(np.abs(B @ B.T - np.eye(6))) < 1e-12


def test_complement_basis_spans_fixed_plane():
    # different survivor seeds can only rotate the pair inside one 2-plane;
    # the projector onto their span is seed-order independent
    fr = build_frame(DISK, Beta(0.0, 0.0, 0.0))
    F1, F2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu)
    P = np.outer(F1, F1) + np.outer(F2, F2)
    base = np.stack([fr.E1, fr.E2, fr.Ebeta, fr.nu])
    expect = np.eye(6) - base.T @ base
    assert np.max(np.abs(P - expect)) < 1e-10


def test_complement_basis_exhausts_seeds(monkeypatch):
    # the reserve seeds make this unreachable from orthonormal input; force
    # the guard by shrinking the seed list to vectors inside the base span
    import hardpair.frames as frames_mod

    eye = np.eye(6)
    monkeypatch.setattr(frames_mod, "_COMPLEMENT_SEEDS",
                        (tuple(eye[0]), tuple(eye[1])))
    with pytest.raises(DegenerateFrameError):
        complement_basis(eye[0], eye[1], eye[2], eye[3])


def test_block_rotation_orthogonal_and_angle_additive():
    R1 = block_rotation(0.4)
    R2 = block_rotation(1.1)
    assert np.max(np.abs(R1 @ R1.T - np.eye(6))) < 1e-14
    assert np.max(np.abs(R1 @ R2 - block_rotation(1.5))) < 1e-14
    # angular slots are untouched
    assert np.allclose(R1[4:, 4:], np.eye(2))


def test_constant_line_field():
    lf = LineField.constant(0.6)
    assert lf.angle(1.0, 2.0) == pytest.approx(0.6)
    # projective reduction: a half-turn is the same line
    lf2 = LineField.constant(0.6 + math.pi)
    assert lf2.angle(0.0, 0.0) == pytest.approx(0.6, abs=1e-12)


def test_fourier_line_field():
    lf = LineField.fourier([[1, 0, 0.3, 0.0], [0, 2, 0.0, 0.5]])
    th, ps = 0.7, 1.9
    expect = (0.3 * math.cos(th) + 0.5 * math.sin(2 * ps)) % math.pi
    assert lf.angle(th, ps) == pytest.approx(expect, abs=1e-12)


def test_line_field_from_config_validation():
    assert line_field_from_config({"kind": "constant", "phi": 0.2}).phi == 0.2
    with pytest.raises(ValueError):
        line_field_from_config({"kind": "spline"})
    with pytest.raises(ValueError):
        line_field_from_config({"kind": "fourier", "coeffs": [[1, 2, 3]]})


def test_line_field_vector_unit_in_complement():
    fr = build_frame(ELL, Beta(0.2, 1.1, 2.3))
    lf = LineField.constant(0.8)
    u = line_field_vector(fr, lf, *fr.beta.reduced())
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    for base in (fr.E1, fr.E2, fr.Ebeta, fr.nu):
        assert abs(u @ base) < 1e-10


def test_module_basis_vectors_are_frozen():
    assert not E1_HAT.flags.writeable
    assert not E2_HAT.flags.writeable
    assert np.allclose(E1_HAT * math.sqrt(2.0), [1, 0, 1, 0, 0, 0])
    assert np.allclose(E2_HAT * math.sqrt(2.0), [0, 1, 0, 1, 0, 0])


def _reference_complement(E1, E2, Ebeta, nu):
    # the per-vector construction: sequential Gram-Schmidt of each seed in
    # order, kept when it survives the 1e-6 floor, then a second pass
    base = (E1, E2, Ebeta, nu)
    found = []
    for seed in np.eye(6)[[0, 2, 4, 1, 3, 5]]:
        u = seed
        for b in list(base) + found:
            u = u - (u @ b) * b
        nrm = np.linalg.norm(u)
        if nrm <= 1e-6:
            continue
        u = u / nrm
        for b in list(base) + found:
            u = u - (u @ b) * b
        found.append(u / np.linalg.norm(u))
        if len(found) == 2:
            return found
    raise AssertionError("reference seeds collapsed")


def test_stacked_complement_matches_per_pose():
    # 300 random ellipse poses plus the head-on disk pose, where both
    # translational seeds die and the reserves are used
    rng = np.random.default_rng(26)
    frames = [build_frame(ELL, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
              for _ in range(300)]
    frames.append(build_frame(DISK, Beta(0.0, 0.0, 0.0)))
    Eb = np.array([fr.Ebeta for fr in frames])
    nu = np.array([fr.nu for fr in frames])
    F1, F2 = complement_basis(E1_HAT, E2_HAT, Eb, nu)
    assert F1.shape == F2.shape == (301, 6)
    for i, fr in enumerate(frames):
        g1, g2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu)
        r1, r2 = _reference_complement(fr.E1, fr.E2, fr.Ebeta, fr.nu)
        for got, want in ((F1[i], g1), (F2[i], g2), (F1[i], r1), (F2[i], r2)):
            assert np.max(np.abs(got - want)) <= 1e-14, i
    # the disk pose took a reserve seed: F1 starts from e_omega
    assert abs(F1[-1][4]) > 0.5


def test_stacked_complement_exhausted_seeds_raise(monkeypatch):
    # e_x and e_omega cover the random poses but not the head-on disk
    # pose; one degenerate row fails the whole stack
    import hardpair.frames as frames_mod

    rng = np.random.default_rng(27)
    frames = [build_frame(ELL, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
              for _ in range(3)]
    frames.append(build_frame(DISK, Beta(0.0, 0.0, 0.0)))
    eye = np.eye(6)
    monkeypatch.setattr(frames_mod, "_COMPLEMENT_SEEDS", (tuple(eye[0]), tuple(eye[4])))
    Eb = np.array([fr.Ebeta for fr in frames])
    nu = np.array([fr.nu for fr in frames])
    complement_basis(E1_HAT, E2_HAT, Eb[:3], nu[:3])
    with pytest.raises(DegenerateFrameError):
        complement_basis(E1_HAT, E2_HAT, Eb, nu)


def test_build_frames_matches_build_frame():
    rng = np.random.default_rng(28)
    betas = [Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(40)]
    contacts = [d_beta(ELL, b) for b in betas]
    nu = np.array([nu_hat(c, ELL.m, ELL.J) for c in contacts])
    stack = build_frames(
        np.array([b.theta for b in betas]), np.array([b.thetabar for b in betas]),
        np.array([b.psi for b in betas]), np.array([c.d for c in contacts]),
        nu, ELL.m, ELL.J)
    assert np.max(stack.orthonormality_residual()) < 1e-12
    for i, (b, c) in enumerate(zip(betas, contacts)):
        fr = build_frame(ELL, b, c)
        for name in ("Ebeta", "nu", "F1", "F2"):
            assert np.max(np.abs(getattr(stack, name)[i] - getattr(fr, name))) <= 1e-14
        assert stack.reduced()[0][i] == b.reduced()[0]
        assert stack.reduced()[1][i] == b.reduced()[1]


def test_rotate_blocks_matches_block_rotation():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, 6))
    phi = rng.uniform(0.0, 2.0 * math.pi, 5)
    out = rotate_blocks(X, phi)
    for i in range(5):
        assert np.max(np.abs(out[i] - block_rotation(phi[i]) @ X[i])) < 1e-15


def test_line_field_angle_on_arrays():
    lf = LineField.fourier([[1, 0, 0.3, 0.0], [0, 2, 0.0, 0.5], [1, -1, 0.2, 0.1]])
    rng = np.random.default_rng(30)
    th, ps = rng.uniform(0.0, 2.0 * math.pi, (2, 7))
    got = lf.angle(th, ps)
    assert got.shape == (7,)
    for i in range(7):
        assert got[i] == pytest.approx(lf.angle(th[i], ps[i]), abs=1e-15)
    const = LineField.constant(0.6 + math.pi).angle(th, ps)
    assert const.shape == (7,)
    assert np.max(np.abs(const - 0.6)) < 1e-12
