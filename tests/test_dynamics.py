"""Event loop: detection, resolution, conservation, reversibility."""

import math

import numpy as np
import pytest

from hardpair.bodies import make_disk, make_ellipse
from hardpair.frames import LineField
from hardpair.scattering import ScatteringFamily
from hardpair.dynamics import (
    SimOptions,
    SimulationError,
    conserved_quantities,
    divergence_report,
    free_flight,
    gap,
    make_state,
    next_collision_time,
    resolve_collision,
    simulate,
    time_reverse_check,
)

DISK = make_disk(1.0)
ELL = make_ellipse(2.0, 1.0)
REFL = ScatteringFamily.reflection()


def _head_on():
    return make_state([0, 0, 4, 0, 0, 0], [1, 0, 0, 0, 0, 0])


def test_free_flight_is_linear():
    Z = make_state([0, 0, 5, 1, 0.2, 0.4], [1, -0.5, 0, 0.5, 0.3, -0.1])
    Z2 = free_flight(Z, 2.0)
    assert np.allclose(Z2.X, Z.X + 2.0 * Z.V, atol=1e-15)
    assert np.allclose(Z2.V, Z.V)
    assert Z2.t == pytest.approx(2.0)
    with pytest.raises(ValueError):
        free_flight(Z, -0.1)


def test_gap_disk_closed_form():
    Z = make_state([0, 0, 5, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    assert gap(DISK, Z.X) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        gap(DISK, np.array([1.0, 2.0, 1.0, 2.0, 0.0, 0.0]))


def test_head_on_collision_time_analytic():
    # disks of radius 1 starting 4 apart closing at unit speed touch at t = 2
    t = next_collision_time(DISK, _head_on(), 10.0)
    assert t is not None
    assert abs(t - 2.0) < 1e-9


def test_no_collision_returns_none():
    Z = make_state([0, 0, 4, 0, 0, 0], [-1, 0, 1, 0, 0, 0])
    assert next_collision_time(DISK, Z, 10.0) is None


def test_resolve_requires_contact():
    with pytest.raises(SimulationError):
        resolve_collision(DISK, _head_on(), REFL)


def test_head_on_exchange():
    tr = simulate(DISK, _head_on(), REFL, 4.0)
    assert tr.n_events() == 1
    # momentum handed over completely; the mover stops, the target leaves
    assert np.allclose(tr.final.V, [0, 0, 1, 0, 0, 0], atol=1e-9)
    assert tr.max_ledger_jump() < 1e-12


def test_simulate_conserves_across_events():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0)
    assert tr.n_events() >= 1
    before = conserved_quantities(ELL, tr.initial)
    after = conserved_quantities(ELL, tr.final)
    for key in ("lm_x", "lm_y", "ke"):
        assert after[key] == pytest.approx(before[key], abs=1e-10)
    assert after["am"] == pytest.approx(before["am"], abs=1e-9)
    assert tr.max_ledger_jump() < 1e-10


def test_simulate_rejects_overlapping_start():
    Z = make_state([0, 0, 1.0, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    with pytest.raises(SimulationError):
        simulate(DISK, Z, REFL, 1.0)


def test_min_gap_floor():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0, SimOptions(sample_dt=0.05))
    assert tr.min_gap >= -1e-9 * ELL.diameter


def test_dense_samples_cover_horizon():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    tr = simulate(ELL, Z0, REFL, 8.0, SimOptions(sample_dt=0.5))
    ts = [Z.t for Z in tr.samples]
    assert ts[0] == pytest.approx(0.0)
    assert ts[-1] == pytest.approx(8.0)
    assert max(np.diff(ts)) < 0.5 + 1e-9


@pytest.mark.parametrize("family", [
    ScatteringFamily.reflection(),
    ScatteringFamily.epsi(),
    ScatteringFamily.orientation_preserving(LineField.constant(0.5)),
], ids=lambda f: f.variant)
def test_time_reversal(family):
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    assert time_reverse_check(ELL, Z0, family, 6.0) < 1e-6


def test_time_reversal_free_flight():
    Z0 = make_state([0, 0, 9, 4, 0.3, 1.1], [0.1, 0.0, -0.05, 0.02, 0.2, -0.3])
    assert time_reverse_check(ELL, Z0, REFL, 1.0) < 1e-12


def test_grazing_pass_tangential_motion():
    # pure tangential sliding past the contact: no event should fire even
    # though the gap dips close to zero
    Z0 = make_state([0, 0, 0, 2.0 + 1e-4, 0, 0], [0, 0, 1, 0, 0, 0])
    tr = simulate(DISK, Z0, REFL, 1e-4, SimOptions())
    assert tr.n_events() == 0


def test_divergence_report_on_shared_datum():
    Z0 = make_state([0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
                    [0.5, 0.0, -0.45, 0.05, 0.3, -0.2])
    fams = [ScatteringFamily.reflection(), ScatteringFamily.epsi()]
    rep = divergence_report(ELL, Z0, fams, 6.0)
    assert not rep["degenerate"]
    assert rep["all_conserve"]
    assert rep["velocity_divergence"][0, 1] > 1e-6


def test_divergence_report_degenerate_when_no_collision():
    Z0 = make_state([0, 0, 9, 9, 0, 0], [0, 0, 0.01, 0.01, 0, 0])
    rep = divergence_report(ELL, Z0, [REFL], 1.0)
    assert rep["degenerate"]


def test_state_validation():
    with pytest.raises(ValueError):
        make_state([0, 0, 4, 0, 0], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        make_state([0, 0, 4, 0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        simulate(DISK, _head_on(), REFL, -1.0)
    with pytest.raises(ValueError, match="X"):
        make_state([0, 0, 4, math.nan, 0, 0], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="T"):
        simulate(DISK, _head_on(), REFL, math.inf)


def test_event_records_carry_contact_geometry():
    tr = simulate(DISK, _head_on(), REFL, 4.0)
    ev = tr.events[0]
    assert ev.t == pytest.approx(2.0, abs=1e-9)
    assert ev.d == pytest.approx(2.0, abs=1e-9)
    assert ev.X.shape == (6,)
    assert ev.proj_pre < 0.0 < ev.proj_post
    assert not ev.grazing
    assert max(abs(v) for v in ev.jumps.values()) < 1e-12
