"""Collision frames: the normal direction, conserved directions, complements."""

import math
import re

import numpy as np
import pytest

# frames as bound here at import, the module complement_basis reads its
# seeds from; a later fresh import of hardpair (the benchmark's tests make
# one) leaves it alone
import hardpair.frames as frames_mod
import hardpair.geometry as geometry_mod
from hardpair.bodies import make_ellipse, mass_weights
from hardpair.cli import line_field_from_config
from hardpair.geometry import Beta, d_beta, e_of, perp
from hardpair.frames import (
    E1_HAT,
    E2_HAT,
    DegenerateFrameError,
    LineField,
    angular_momentum_vector,
    build_frame,
    build_frames,
    complement_basis,
    e_beta,
    e_beta_gram_schmidt,
    nu_hat,
)
from frame_helpers import block_rotation, line_field_vector

ELL = make_ellipse(2.0, 1.0)
ELL20 = make_ellipse(20.0, 1.0)
DISK = make_ellipse(1.0, 1.0)


def test_frame_orthonormal_on_random_poses():
    rng = np.random.default_rng(21)
    for k in range(100):
        body = ELL if k % 2 else DISK
        fr = build_frame(body, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        assert fr.orthonormality_residual() < 1e-10


def test_nu_hat_pre_collisional_normalization():
    rng = np.random.default_rng(22)
    diag = mass_weights(ELL.m, ELL.J)
    for _ in range(20):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        c = d_beta(ELL, beta)
        nu = nu_hat(c, ELL.m, ELL.J)
        assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
        # approaching along -n must register as incoming: V . (M nu) < 0
        V = np.concatenate([c.n, -c.n, [0.0, 0.0]])
        assert float((diag * V) @ nu) < 0.0


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
        printed = e_beta(beta.psi, d, body.m, body.J)
        gs = e_beta_gram_schmidt(beta.psi, d, body.m, body.J)
        assert np.max(np.abs(printed - gs)) < 1e-10


def test_e_beta_closed_form_values():
    m, J = DISK.m, DISK.J
    # contact along the x axis at distance 2
    eb = e_beta(0.0, 2.0, m, J)
    N = math.sqrt(2.0 * m * 4.0 + 8.0 * J)
    expect = np.array([0.0, -math.sqrt(m) * 2.0, 0.0, math.sqrt(m) * 2.0,
                       2.0 * math.sqrt(J), 2.0 * math.sqrt(J)]) / N
    assert np.allclose(eb, expect, atol=1e-14)
    # coincident-center limit: pure equal-spin direction
    eb0 = e_beta(0.0, 0.0, m, J)
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
    F1, F2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu, fr.theta)
    B = np.stack([fr.E1, fr.E2, fr.Ebeta, fr.nu, F1, F2])
    assert np.max(np.abs(B @ B.T - np.eye(6))) < 1e-12


def test_complement_basis_spans_fixed_plane():
    # different survivor seeds can only rotate the pair inside one 2-plane;
    # the projector onto their span is seed-order independent
    fr = build_frame(DISK, Beta(0.0, 0.0, 0.0))
    F1, F2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu, fr.theta)
    P = np.outer(F1, F1) + np.outer(F2, F2)
    base = np.stack([fr.E1, fr.E2, fr.Ebeta, fr.nu])
    expect = np.eye(6) - base.T @ base
    assert np.max(np.abs(P - expect)) < 1e-10


def test_complement_basis_exhausts_seeds(monkeypatch):
    # the reserve seeds make this unreachable from orthonormal input; force
    # the guard by shrinking the seed list to e_x and e_y, which turned by
    # any theta stay inside the base span
    eye = np.eye(6)
    monkeypatch.setattr(frames_mod, "_COMPLEMENT_SEEDS",
                        (tuple(eye[0]), tuple(eye[1])))
    for theta in (0.0, 0.7):
        with pytest.raises(DegenerateFrameError):
            complement_basis(eye[0], eye[1], eye[2], eye[3], theta)
        # the same guard on the stacked path
        with pytest.raises(DegenerateFrameError):
            complement_basis(eye[0], eye[1], eye[2][None], eye[3][None], np.array([theta]))


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


@pytest.mark.parametrize("row,entry", [
    ([0.5, 0, 1.0, 0.0], "coeffs[1][0]"),
    # k times an angle overflowed to inf and the angle read nan
    ([0, 1e308, 1.0, 0.0], "coeffs[1][1]"),
    ([2**53 + 2, 0, 1.0, 0.0], "coeffs[1][0]"),
    ([0, math.nan, 1.0, 0.0], "coeffs[1][1]"),
    ([True, 0, 1.0, 0.0], "coeffs[1][0]"),
])
def test_fourier_wave_numbers_are_integers(row, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        LineField.fourier([[1, 0, 0.3, 0.0], row])
    # integer-valued floats and the ends of the range are integers
    lf = LineField.fourier([[2.0, -(2**53), 0.3, 0.0]])
    assert lf.coeffs == ((2.0, -(2.0**53), 0.3, 0.0),)


@pytest.mark.parametrize("phi", [math.nan, math.inf, 10**400, True, "0.5"])
def test_constant_line_field_takes_finite_reals(phi):
    # 10**400 is past the float range: the check raised OverflowError
    with pytest.raises(ValueError, match="line field phi"):
        LineField.constant(phi)


def test_line_field_from_config_validation():
    assert line_field_from_config({"kind": "constant", "phi": 0.2}).phi == 0.2
    with pytest.raises(ValueError):
        line_field_from_config({"kind": "spline"})
    with pytest.raises(ValueError):
        line_field_from_config({"kind": "fourier", "coeffs": [[1, 2, 3]]})


def test_line_field_vector_unit_in_complement():
    fr = build_frame(ELL, Beta(0.2, 1.1, 2.3))
    lf = LineField.constant(0.8)
    u = line_field_vector(fr, lf, *fr.reduced())
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    for base in (fr.E1, fr.E2, fr.Ebeta, fr.nu):
        assert abs(u @ base) < 1e-10


def test_module_basis_vectors_are_frozen():
    assert not E1_HAT.flags.writeable
    assert not E2_HAT.flags.writeable
    assert np.allclose(E1_HAT * math.sqrt(2.0), [1, 0, 1, 0, 0, 0])
    assert np.allclose(E2_HAT * math.sqrt(2.0), [0, 1, 0, 1, 0, 0])


def _reference_complement(E1, E2, Ebeta, nu, theta):
    # the per-vector construction: sequential Gram-Schmidt of each seed,
    # turned by theta with the 6x6 rotation, in order, kept when it
    # survives the 1e-6 floor, then a second pass
    base = (E1, E2, Ebeta, nu)
    found = []
    for seed in np.eye(6)[[0, 2, 4, 1, 3, 5]]:
        u = block_rotation(theta) @ seed
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
    # 300 random poses on the (2,1) and 100 on the (20,1) ellipse, plus the
    # head-on disk pose, where both translational seeds die and the reserves
    # are used; one frame at a time takes the float path
    rng = np.random.default_rng(26)
    frames = [build_frame(body, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
              for body in [ELL] * 300 + [ELL20] * 100]
    frames.append(build_frame(DISK, Beta(0.0, 0.0, 0.0)))
    Eb = np.array([fr.Ebeta for fr in frames])
    nu = np.array([fr.nu for fr in frames])
    theta = np.array([fr.theta for fr in frames])
    F1, F2 = complement_basis(E1_HAT, E2_HAT, Eb, nu, theta)
    assert F1.shape == F2.shape == (401, 6)
    for i, fr in enumerate(frames):
        g1, g2 = complement_basis(fr.E1, fr.E2, fr.Ebeta, fr.nu, fr.theta)
        assert g1.shape == g2.shape == (6,)
        r1, r2 = _reference_complement(fr.E1, fr.E2, fr.Ebeta, fr.nu, fr.theta)
        for got, want in ((F1[i], g1), (F2[i], g2), (F1[i], r1), (F2[i], r2)):
            assert np.max(np.abs(got - want)) <= 1e-14, i
    # the disk pose took a reserve seed: F1 starts from e_omega
    assert abs(F1[-1][4]) > 0.5


def test_stacked_complement_exhausted_seeds_raise(monkeypatch):
    # e_x and e_omega cover the random poses but not the head-on disk
    # pose, turned or not, where e_x turned with the first body dies; one
    # degenerate row fails the whole stack
    rng = np.random.default_rng(27)
    frames = [build_frame(ELL, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))
              for _ in range(3)]
    frames += [build_frame(DISK, Beta(phi, phi, phi)) for phi in (0.0, 1.1)]
    eye = np.eye(6)
    monkeypatch.setattr(frames_mod, "_COMPLEMENT_SEEDS", (tuple(eye[0]), tuple(eye[4])))
    Eb = np.array([fr.Ebeta for fr in frames])
    nu = np.array([fr.nu for fr in frames])
    theta = np.array([fr.theta for fr in frames])
    complement_basis(E1_HAT, E2_HAT, Eb[:3], nu[:3], theta[:3])
    # the same seeds one frame at a time, on the float path
    complement_basis(E1_HAT, E2_HAT, Eb[0], nu[0], theta[0])
    for i in (3, 4):
        rows = [0, 1, 2, i]
        with pytest.raises(DegenerateFrameError):
            complement_basis(E1_HAT, E2_HAT, Eb[rows], nu[rows], theta[rows])
        with pytest.raises(DegenerateFrameError):
            complement_basis(E1_HAT, E2_HAT, Eb[i], nu[i], theta[i])


def _frames_both_paths(body, betas):
    # build_frame at each pose, and build_frames over all of them
    contacts = [d_beta(body, b) for b in betas]
    stack = build_frames(
        np.array([b.theta for b in betas]), np.array([b.thetabar for b in betas]),
        np.array([b.psi for b in betas]), np.array([c.d for c in contacts]),
        np.array([nu_hat(c, body.m, body.J) for c in contacts]), body.m, body.J)
    return [build_frame(body, b, c) for b, c in zip(betas, contacts)], stack


def test_build_frames_matches_build_frame():
    rng = np.random.default_rng(28)
    betas = [Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(40)]
    frames, stack = _frames_both_paths(ELL, betas)
    assert np.max(stack.orthonormality_residual()) < 1e-12
    for i, (b, fr) in enumerate(zip(betas, frames)):
        # one frame is the unbatched Frames: (6,) vectors, floats, the same mass data
        assert fr.Ebeta.shape == (6,) and isinstance(fr.d, float) and fr.psi == b.psi
        assert (fr.m, fr.J) == (stack.m, stack.J) == (ELL.m, ELL.J)
        for name in ("Ebeta", "nu", "F1", "F2"):
            assert np.max(np.abs(getattr(stack, name)[i] - getattr(fr, name))) <= 1e-14
        assert stack.reduced()[0][i] == b.reduced()[0]
        assert stack.reduced()[1][i] == b.reduced()[1]


def test_build_frame_pair_turns_with_the_pose():
    # the complement seeds are the first body's axes, so turning the whole
    # configuration turns the pair by the block rotation; on both paths, at
    # generic ellipse poses and at the head-on disk pose Beta(phi, phi, phi),
    # where the first seed dies and a reserve is used
    rng = np.random.default_rng(31)
    cases = [
        (ELL, [Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(100)],
         rng.uniform(0.0, 2.0 * math.pi, 100)),
        (DISK, [Beta(0.0, 0.0, 0.0)] * 5, [0.3, math.pi / 2, 2.0, math.pi, 5.1]),
    ]
    for body, betas, shifts in cases:
        one0, stack0 = _frames_both_paths(body, betas)
        one1, stack1 = _frames_both_paths(body, [b.shifted(s) for b, s in zip(betas, shifts)])
        for i, shift in enumerate(shifts):
            R = block_rotation(shift)
            for name in ("F1", "F2"):
                one = getattr(one1[i], name) - R @ getattr(one0[i], name)
                stacked = getattr(stack1, name)[i] - R @ getattr(stack0, name)[i]
                assert max(np.max(np.abs(one)), np.max(np.abs(stacked))) < 1e-12
    # e_x turned with the first body died at the head-on disk pose, so F1
    # comes from e_omega
    assert min(abs(fr.F1[4]) for fr in one1) > 0.5 and np.min(np.abs(stack1.F1[:, 4])) > 0.5


def test_builders_go_through_the_complement_binding(monkeypatch):
    # the benchmark counts complements at frames.complement_basis; a builder
    # that bypassed that binding would drop the count to zero unnoticed
    calls = []

    def counting(*args):
        calls.append(args)
        return complement_basis(*args)

    monkeypatch.setattr(frames_mod, "complement_basis", counting)
    fr = build_frame(ELL, Beta(0.2, 1.1, 2.3))
    assert len(calls) == 1
    build_frames(
        np.array([fr.theta] * 3), np.array([fr.thetabar] * 3), np.array([fr.psi] * 3),
        np.array([fr.d] * 3), np.array([fr.nu] * 3), fr.m, fr.J)
    assert len(calls) == 2


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


def test_sample_stream_makes_one_contact_call_per_block(monkeypatch):
    # the benchmark's tracer counts contacts at the frames.d_beta binding and
    # kernel solves at _kernel.ellipse_contact; a stream that bypassed either
    # binding would silently zero a per-layer count
    contacts, solves = [], []
    d_beta_, solve = frames_mod.d_beta, geometry_mod._kernel.ellipse_contact

    def counted_d_beta(*args, **kwargs):
        contacts.append(len(args[1].theta))
        return d_beta_(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append((args[4] if len(args) > 4 else kwargs.get("seed", 0.0),
                       args[7] if len(args) > 7 else kwargs.get("use_seed", False)))
        return solve(*args, **kwargs)

    monkeypatch.setattr(frames_mod, "d_beta", counted_d_beta)
    monkeypatch.setattr(geometry_mod._kernel, "ellipse_contact", counted_solve)
    blocks = list(frames_mod.sample_contacts(ELL, 600, 31, 256))
    assert [len(W) for _, W, *_ in blocks] == contacts == [256, 256, 88]
    assert solves == [(0.0, False)] * 600


@pytest.mark.parametrize("n_samples,seed,block,name", [
    # None drew OS entropy, so a rerun differed
    (10, None, 256, "seed"),
    (10, -1, 256, "seed"),
    (10, True, 256, "seed"),
    # True ran one sample
    (True, 0, 256, "n_samples"),
    # 2.5 raised a TypeError from inside range
    (2.5, 0, 256, "n_samples"),
    (0, 0, 256, "n_samples"),
    (10, 0, 0, "block"),
], ids=["seed-None", "seed-negative", "seed-bool", "n-bool", "n-float", "n-zero", "block-zero"])
def test_sample_contacts_names_a_bad_count(n_samples, seed, block, name):
    # refused at the call, before a block is drawn
    with pytest.raises(ValueError, match=rf"^{name} must be an int"):
        frames_mod.sample_contacts(ELL, n_samples, seed, block)
