"""Scattering matrices: algebra, conservation, and the physical routes."""

import math
import re
import warnings

import numpy as np
import pytest

from hardpair.bodies import make_ellipse, mass_weights
from hardpair.cli import family_from_config
from hardpair.geometry import Beta, d_beta, e_of
from hardpair.frames import LineField, build_frame, build_frames, sample_contacts
from hardpair import scattering
from hardpair.scattering import (
    NotPreCollisionalError,
    ScatteringFamily,
    audit_scattering,
    explicit_epsi_velocities,
    impulse_scatter,
    scatter_stack,
    scatter_velocity,
    scattering_matrix,
)
from frame_helpers import (
    block_rotation,
    copies,
    line_field_vector,
    normal_projection,
    one_row,
    pose,
)

ELL = make_ellipse(2.0, 1.0)
DISK = make_ellipse(1.0, 1.0)
DIAG = mass_weights(ELL.m, ELL.J)

FAMILIES = [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.6)),
]


def _random_frame(rng, body=ELL):
    return build_frame(body, Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)))


def _incoming(rng, fr):
    V = rng.standard_normal(6)
    if float((mass_weights(fr.m, fr.J) * V) @ fr.nu) > 0.0:
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
            w, wp = DIAG * V, DIAG * Vp
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
        got = impulse_scatter(
            contact.n, contact.p_perp_n(), contact.q_perp_n(), ELL.m, ELL.J, V)
        assert np.max(np.abs(sm.s @ V - got)) < 1e-12


def test_explicit_epsi_equals_matrix():
    rng = np.random.default_rng(38)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(ELL, beta)
        sm = scattering_matrix(ScatteringFamily.epsi(), fr)
        V = _incoming(rng, fr)
        assert np.max(np.abs(
            sm.s @ V - explicit_epsi_velocities(beta.psi, fr.d, ELL.m, ELL.J, V))) < 1e-12


def test_disk_reflection_is_specular_exchange():
    rng = np.random.default_rng(39)
    diag = mass_weights(DISK.m, DISK.J)
    for _ in range(50):
        beta = Beta(*rng.uniform(0.0, 2.0 * math.pi, 3))
        fr = build_frame(DISK, beta)
        sm = scattering_matrix(ScatteringFamily.reflection(), fr)
        V = rng.standard_normal(6)
        if float((diag * V) @ fr.nu) > 0.0:
            V = -V
        Vp = sm.s @ V
        n = e_of(beta.psi)
        k = float((V[0:2] - V[2:4]) @ n)
        assert np.allclose(Vp[0:2], V[0:2] - k * n, atol=1e-12)
        assert np.allclose(Vp[2:4], V[2:4] + k * n, atol=1e-12)
        assert np.allclose(Vp[4:6], V[4:6], atol=1e-13)


def test_scattering_matrix_rejects_bad_frame():
    rng = np.random.default_rng(43)
    fr = _random_frame(rng)
    broken = fr._replace(nu=fr.nu * 1.5)
    with pytest.raises(ValueError):
        scattering_matrix(ScatteringFamily.reflection(), broken)
    # a NaN residual passes a `> tol` guard; under op the map returned NaN,
    # under reflection V went through the broken frame unchecked
    fr = build_frame(ELL, Beta(0.3, 1.7, 0.9))
    nan = fr._replace(F1=np.full(6, math.nan))
    V = -fr.nu / DIAG
    for fam in (ScatteringFamily.reflection(),
                ScatteringFamily.orientation_preserving(LineField.constant(0.3))):
        with pytest.raises(ValueError, match="not orthonormal"):
            scatter_velocity(fam, nan, V)
        with pytest.raises(ValueError, match="not orthonormal"):
            audit_scattering([fam], nan, V[None, :])


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


@pytest.mark.parametrize("make,message", [
    # a NaN angle made scatter_velocity return an all-NaN V' with no error
    (lambda: LineField("constant", phi=math.nan), "line field phi"),
    # a half-integer wave number: the angle is no function on the torus
    (lambda: LineField("fourier", coeffs=((0.5, 0, 1.0, 0.0),)), "coeffs[0][0]"),
    (lambda: LineField("constant", phi=1.0, coeffs=((1, 0, 5.0, 0.0),)), "takes no coeffs"),
    (lambda: ScatteringFamily("reflection", LineField.constant(1.0)), "takes no line field"),
    (lambda: ScatteringFamily("op", line_field=0.5), "requires a LineField"),
], ids=["nan-phi", "half-wave-number", "constant-with-coeffs", "reflection-with-field",
        "op-with-number"])
def test_records_check_their_fields_on_direct_construction(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def _one_frame_samples(rng, n=200, s=1.0):
    # at scale s, a frame of the (2s, s) ellipse and linear velocities times s
    fr = _random_frame(rng, make_ellipse(2.0 * s, s))
    return fr, rng.standard_normal((n, 6)) * np.array([s, s, s, s, 1.0, 1.0])


def test_verify_scattering_report():
    # the audit of every family at one frame, as `hardpair scatter` runs it
    rng = np.random.default_rng(46)
    fr, V = _one_frame_samples(rng)
    Vp, reports = audit_scattering(FAMILIES, fr, V)
    assert Vp.shape == (len(FAMILIES), 200, 6)
    for fam, rep in zip(FAMILIES, reports):
        assert rep["half_space_flip_ok"]
        assert rep["det_sign"] == (1 if fam.variant == "op" else -1)
        assert rep["n_samples"] == 200 and rep["grazing_count"] == 0
        for key in ("matrix_involution", "involution", "linear_momentum_x",
                    "linear_momentum_y", "angular_momentum", "kinetic_energy",
                    "abs_det_residual", "half_space_flip_worst"):
            assert rep[key] < 1e-10


def test_audit_over_a_frame_stack():
    # one velocity per frame: the same residuals over 300 frames, and the
    # post-collision velocities of the matrix route
    rng = np.random.default_rng(53)
    frames = [_random_frame(rng) for _ in range(300)]
    V = rng.standard_normal((300, 6))
    fams = FAMILIES + [FOURIER_OP]
    Vp, reports = audit_scattering(fams, _stack_of(frames), V)
    for f, (fam, rep) in enumerate(zip(fams, reports)):
        assert rep["half_space_flip_ok"] and rep["n_samples"] == 300
        assert rep["det_sign"] == (1 if fam.variant == "op" else -1)
        for key in ("matrix_involution", "involution", "angular_momentum",
                    "kinetic_energy", "abs_det_residual"):
            assert rep[key] < 1e-10
        for i, fr in enumerate(frames[:20]):
            assert np.max(np.abs(Vp[f, i] - scattering_matrix(fam, fr).s @ V[i])) < 1e-13


@pytest.mark.parametrize("body", [ELL, DISK], ids=["ellipse", "disk"])
def test_audit_of_one_frame_equals_its_one_row_stack(body):
    # one frame broadcasts against N velocities exactly as the same frame
    # with every per-pose field lifted to one row: bitwise, Vp and reports
    rng = np.random.default_rng(58)
    fams = [ScatteringFamily.reflection(), ScatteringFamily.epsi(),
            ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4)),
            FOURIER_OP]
    for _ in range(50):
        fr = _random_frame(rng, body)
        V = rng.standard_normal((40, 6))
        Vp, reports = audit_scattering(fams, fr, V)
        Vp_row, reports_row = audit_scattering(fams, one_row(fr), V)
        assert np.array_equal(Vp, Vp_row)
        assert reports == reports_row


def test_audit_matches_scatter_velocity():
    rng = np.random.default_rng(54)
    fr = _random_frame(rng)
    V = np.array([_incoming(rng, fr) for _ in range(100)])
    for fam in FAMILIES + [FOURIER_OP]:
        (Vp,), _ = audit_scattering([fam], fr, V)
        for i in range(len(V)):
            assert np.max(np.abs(Vp[i] - scatter_velocity(fam, fr, V[i])[0])) <= 1e-14


def test_audit_counts_grazing_samples():
    # tangential samples are counted and left out of the flip check
    rng = np.random.default_rng(55)
    fr, V = _one_frame_samples(rng, 50)
    w = DIAG * V[:5]
    V[:5] = (w - np.outer(w @ fr.nu, fr.nu)) / DIAG
    _, (rep,) = audit_scattering(FAMILIES[:1], fr, V)
    assert rep["grazing_count"] == 5 and rep["half_space_flip_ok"]


def _injected(monkeypatch, sign):
    # every family's map replaced by sign * I: in scatter_stack's map, which
    # the audit maps W and W' with, and in the core (no rows to reflect) it
    # forms A from for the determinant
    def stack(families, frames, B, W):
        return np.stack([sign * W for _ in families])

    def cores(families, frames):
        return [(sign, np.zeros(frames.nu.shape[:-1] + (0, 6))) for _ in families]

    monkeypatch.setattr(scattering, "_map_stack", stack)
    monkeypatch.setattr(scattering, "_cores", cores)


_SCALES = pytest.mark.parametrize("s", [1e-4, 1e-3, 1.0, 1e3, 1e6], ids=lambda s: f"s={s:g}")


@_SCALES
def test_verify_scattering_catches_identity_injection(monkeypatch, s):
    # negative control: the identity map conserves everything but cannot
    # flip the normal projection, and the audit must say so at any unit
    rng = np.random.default_rng(47)
    fr, V = _one_frame_samples(rng, s=s)
    _injected(monkeypatch, 1.0)
    _, (rep,) = audit_scattering(FAMILIES[:1], fr, V)
    assert not rep["half_space_flip_ok"]
    assert rep["kinetic_energy"] == 0.0 and rep["det_sign"] == 1


@_SCALES
def test_audit_catches_energy_injection(monkeypatch, s):
    # negative control: a map that doubles V breaks energy conservation, and
    # the audit reads it at any unit: |2W|^2 - |W|^2 is three times |W|^2
    rng = np.random.default_rng(56)
    fr, V = _one_frame_samples(rng, s=s)
    _injected(monkeypatch, 2.0)
    _, (rep,) = audit_scattering(FAMILIES[:1], fr, V)
    assert rep["kinetic_energy"] == pytest.approx(3.0, rel=1e-12)
    assert rep["abs_det_residual"] > 1e-10
    # the second application is that map's too: |4W - W| = 3 |W|
    assert rep["involution"] == pytest.approx(3.0, rel=1e-12)


def test_dual_routes_on_arrays():
    # the impulse and closed-form epsi routes take N poses at once, and
    # one pose is the N = 1 case
    rng = np.random.default_rng(57)
    betas = [Beta(*rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(40)]
    contacts = [d_beta(ELL, b) for b in betas]
    V = rng.standard_normal((40, 6))
    n = np.array([c.n for c in contacts])
    pn = np.array([c.p_perp_n() for c in contacts])
    qn = np.array([c.q_perp_n() for c in contacts])
    psi = np.array([b.psi for b in betas])
    d = np.array([c.d for c in contacts])
    imp = impulse_scatter(n, pn, qn, ELL.m, ELL.J, V)
    eps = explicit_epsi_velocities(psi, d, ELL.m, ELL.J, V)
    assert imp.shape == eps.shape == (40, 6)
    for i, c in enumerate(contacts):
        one = impulse_scatter(c.n, c.p_perp_n(), c.q_perp_n(), ELL.m, ELL.J, V[i])
        assert one.shape == (6,) and np.max(np.abs(one - imp[i])) < 1e-15
        one = explicit_epsi_velocities(betas[i].psi, c.d, ELL.m, ELL.J, V[i])
        assert one.shape == (6,) and np.max(np.abs(one - eps[i])) < 1e-15


def _stack_of(frames):
    return build_frames(
        np.array([fr.theta for fr in frames]),
        np.array([fr.thetabar for fr in frames]),
        np.array([fr.psi for fr in frames]),
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


SIX_FAMILIES = [ScatteringFamily.reflection(), ScatteringFamily.epsi()] + [
    ScatteringFamily.orientation_preserving(LineField.constant(phi))
    for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 3)]


@pytest.mark.parametrize("body", [ELL, DISK], ids=["ellipse", "disk"])
def test_float_map_and_stack_map_agree_at_every_pose(body):
    # the map on floats (one frame) and on arrays (a stack), within
    # 1e-15 |W| at each of 400 sampled poses
    fams = SIX_FAMILIES + [FOURIER_OP]
    frames, W, *_ = next(sample_contacts(body, 400, 59, 400))
    W[np.sum(W * frames.nu, axis=1) > 0.0] *= -1.0
    diag = mass_weights(body.m, body.J)
    out = scatter_stack(fams, frames, W)
    for i in range(len(W)):
        fr, bound = pose(frames, i), 1e-15 * np.linalg.norm(W[i])
        for f, fam in enumerate(fams):
            Vp = scatter_velocity(fam, fr, W[i] / diag)[0]
            assert np.max(np.abs(Vp * diag - out[f, i])) <= bound, (i, fam.label())


@pytest.mark.parametrize("body", [ELL, DISK], ids=["ellipse", "disk"])
def test_stack_map_at_one_frame_is_its_stack_of_copies(body):
    # the audit maps N velocities at one frame (vectors of shape (6,)):
    # that equals the map at N copies of the frame, bit for bit
    rng = np.random.default_rng(60)
    fams = SIX_FAMILIES + [FOURIER_OP]
    for _ in range(20):
        fr = _random_frame(rng, body)
        W = rng.standard_normal((30, 6))
        got = scatter_stack(fams, fr, W)
        assert got.shape == (len(fams), 30, 6)
        assert np.array_equal(got, scatter_stack(fams, copies(fr, 30), W))


def test_scatter_stack_rejects_bad_frame():
    rng = np.random.default_rng(49)
    stack = _stack_of([_random_frame(rng) for _ in range(5)])
    nu = stack.nu.copy()
    nu[3] *= 1.5
    broken = stack._replace(nu=nu)
    with pytest.raises(ValueError, match="not orthonormal"):
        scatter_stack(FAMILIES, broken, rng.standard_normal((5, 6)))
    F1 = stack.F1.copy()
    F1[3] = math.nan
    nan = stack._replace(F1=F1)
    V = rng.standard_normal((5, 6))
    with pytest.raises(ValueError, match="not orthonormal"):
        scatter_stack(FAMILIES, nan, V)
    with pytest.raises(ValueError, match="not orthonormal"):
        audit_scattering(FAMILIES, nan, V)


@pytest.mark.parametrize("eps,refused", [(2e-8, True), (5e-9, False)])
def test_one_frame_and_a_stack_share_the_orthonormality_bound(eps, refused):
    # F1 tilted by eps toward F2 makes F1.F2 = sin(eps): the float map, the
    # stacked map on the one-frame stack and the audit all refuse the frame
    # above the bound and all accept it below
    rng = np.random.default_rng(53)
    fr = _random_frame(rng)
    V = _incoming(rng, fr)
    tilted = fr._replace(F1=math.cos(eps) * fr.F1 + math.sin(eps) * fr.F2)
    stack = one_row(tilted)
    calls = [lambda: scatter_velocity(FAMILIES[2], tilted, V),
             lambda: scatter_stack(FAMILIES, stack, (DIAG * V)[None, :]),
             lambda: audit_scattering(FAMILIES, stack, V[None, :])]
    for call in calls:
        if refused:
            with pytest.raises(ValueError, match="not orthonormal"):
                call()
        else:
            call()


FOURIER_OP = ScatteringFamily.orientation_preserving(
    LineField.fourier([[1, 0, 0.4, 0.1], [0, 1, -0.2, 0.3]]))


def test_op_map_flips_the_line_field_vector():
    # line_field_vector reads the frame's pair, the pair the op map picks
    # its direction from, so the map negates it at every pose
    rng = np.random.default_rng(50)
    fams = [FAMILIES[2], FOURIER_OP]
    for k in range(300):
        fr = _random_frame(rng)
        assert fr.theta != 0.0
        fam = fams[k % 2]
        u = line_field_vector(fr, fam.line_field, *fr.reduced())
        A = scattering_matrix(fam, fr).A
        assert np.max(np.abs(A @ u + u)) < 1e-12


def test_scatter_velocity_matches_matrix():
    # the float map against the matrix from the array cores, on ellipse and
    # unit-disk frames; at the head-on disk pose the complement pair takes
    # a reserve seed
    rng = np.random.default_rng(51)
    head_on = build_frame(DISK, Beta(0.0, 0.0, 0.0))
    for fam in FAMILIES + [FOURIER_OP]:
        frames = [_random_frame(rng, body) for body in (ELL, DISK) for _ in range(20)]
        for fr in frames + [head_on]:
            V = _incoming(rng, fr)
            sm = scattering_matrix(fam, fr)
            Vp, pre, post, grazing = scatter_velocity(fam, fr, V)
            assert Vp.shape == (6,)
            assert np.max(np.abs(Vp - sm.s @ V)) < 1e-13
            assert pre == pytest.approx(normal_projection(V, fr.nu, fr.m, fr.J), abs=1e-14)
            assert post == pytest.approx(normal_projection(Vp, fr.nu, fr.m, fr.J), abs=1e-14)
            assert pre < 0.0 < post and not grazing


def _row_by_row(family, frame, V):
    """The float map as one loop over the core's rows: W = M V, each row u
    of _cores' U taken off in turn as 2 (u.W) u, then the sign and M^-1."""
    B = frame.basis().tolist()
    rm, rj = math.sqrt(frame.m), math.sqrt(frame.J)
    W = [r * x for r, x in zip((rm, rm, rm, rm, rj, rj), V.tolist())]
    if family.variant == "reflection":
        sign, U = 1.0, [B[3]]
    elif family.variant == "epsi":
        sign, U = -1.0, B[0:3]
    else:
        phi = family.line_field.angle(*frame.reduced())
        c, s = math.cos(phi), math.sin(phi)
        sign, U = 1.0, [B[3], [c * x + s * y for x, y in zip(B[4], B[5])]]
    Wp = W
    for u in U:
        uw = u[0] * W[0]
        for a, b in zip(u[1:], W[1:]):
            uw = uw + a * b
        Wp = [x - 2.0 * uw * y for x, y in zip(Wp, u)]
    Wp = [sign * x for x in Wp]
    return np.array([x / r for x, r in zip(Wp, (rm, rm, rm, rm, rj, rj))])


def test_float_map_is_the_row_by_row_update_bit_for_bit():
    # reflection is the reflected W frame_rows carries, and op takes its
    # line-field row off that; both equal the row-by-row loop exactly
    rng = np.random.default_rng(54)
    for fam in FAMILIES + [FOURIER_OP]:
        for body in (ELL, DISK):
            for _ in range(100):
                fr = _random_frame(rng, body)
                V = _incoming(rng, fr)
                got = scatter_velocity(fam, fr, V)[0]
                assert got.tobytes() == _row_by_row(fam, fr, V).tobytes(), fam.label()


def test_scatter_velocity_rejects_bad_input():
    rng = np.random.default_rng(52)
    fr = _random_frame(rng)
    fam = ScatteringFamily.reflection()
    V = _incoming(rng, fr)
    with pytest.raises(NotPreCollisionalError):
        scatter_velocity(fam, fr, -V)
    for bad in (np.nan, np.inf):
        W = V.copy()
        W[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scatter_velocity(fam, fr, W)
    with pytest.raises(ValueError, match="not orthonormal"):
        scatter_velocity(fam, fr._replace(F1=fr.F1 * 1.5), V)
    # a grazing velocity is mapped and flagged, not warned; an approaching
    # one is not flagged
    w = DIAG * V
    tangent = (w - (w @ fr.nu) * fr.nu) / DIAG
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scatter_velocity(fam, fr, tangent)[3] is True
    assert scatter_velocity(fam, fr, V)[3] is False


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e200])
def test_separating_velocity_is_refused_at_any_scale(scale):
    # at the frame of configs/scatter.json, V = scale (1, ..., 1) separates;
    # |V| taken as a norm overflowed to inf at 1e200 and let V through as grazing
    frame = build_frame(ELL, Beta(0.3, 1.7, 0.9))
    fam = ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4))
    with pytest.raises(NotPreCollisionalError):
        scatter_velocity(fam, frame, np.full(6, scale))
