"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test runs one check from the shared verification suite (the same code
behind the `verify` subcommand) at full sample size and asserts its pass
flag, so `pytest -v` prints one line per criterion.  The printed detail
carries the measured numbers for the record.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hardpair import _checks
from hardpair import cli
from hardpair.bodies import make_ellipse, mass_weights
from hardpair.dynamics import (
    divergence_report,
    make_state,
    relative_ledger_jump,
    simulate,
    time_reverse_check,
)
from hardpair.frames import LineField, build_frame, sample_contacts
from hardpair.geometry import Beta
from hardpair.scattering import ScatteringFamily, audit_scattering, scatter_velocity

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(result):
    print(f"\n[{result.name}] {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_frame_orthonormality():
    _run(_checks.check_frames(n=1000))


def test_criterion_2_distance_against_oracle():
    _run(_checks.check_geometry_oracle(n=200))


def test_criterion_3_contact_identities():
    _run(_checks.check_identities(n=100))


def test_criterion_4_scattering_audit():
    _run(_checks.check_scattering(n=10000))


def test_criterion_5_disk_specular_exchange():
    _run(_checks.check_disk_reduction(n=1000))


def test_criterion_6_event_loop_fidelity():
    _run(_checks.check_dynamics(n_data=50))


def test_criterion_6_fails_on_a_missed_collision(monkeypatch):
    # every datum must collide by geometry, so a run with no event is a
    # failure of the event loop, not a datum to skip
    simulate = _checks.simulate
    runs = []

    def missing_one(*args):
        tr = simulate(*args)
        runs.append(tr)
        return tr._replace(events=[]) if len(runs) == 3 else tr

    monkeypatch.setattr(_checks, "simulate", missing_one)
    result = _checks.check_dynamics(n_data=10)
    assert not result.passed and "1 data without a collision" in result.detail


def test_criterion_7_distinct_trajectories(tmp_path, capsys):
    # the frozen datum must branch into six mutually distinct conserving
    # trajectories, reported through the nonuniq pipeline
    out = tmp_path / "nonuniq.csv"
    rc = cli.run(["nonuniq", "--config", str(CONFIGS / "nonuniq.json"),
                  "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    rec = json.loads(captured.out)
    print(f"\n[non-uniqueness] min pairwise velocity divergence "
          f"{rec['min_pairwise_velocity_divergence']:.3e} over "
          f"{len(rec['families'])} families, all conserve: {rec['all_conserve']}")
    assert not rec["degenerate"]
    assert rec["all_conserve"]
    assert rec["distinct"]
    assert len(rec["families"]) == 6
    assert out.exists() and len(out.read_text().splitlines()) == 7
    _run(_checks.check_nonuniqueness())


def test_nonuniq_config_is_the_frozen_datum():
    # criterion 7 runs the datum from configs/nonuniq.json and from _checks;
    # the two copies must not drift apart
    cfg = json.loads((CONFIGS / "nonuniq.json").read_text())
    assert cfg["Z0"] == _checks.NONUNIQ_X0 + _checks.NONUNIQ_V0
    assert cfg["T"] == _checks.NONUNIQ_T
    assert cfg["families"] == [{"family": "reflection"}, {"family": "epsi"}] + [
        {"family": "op", "line_field": {"kind": "constant", "phi": phi}}
        for phi in _checks.NONUNIQ_PHIS
    ]


def test_criterion_8_invariant_battery():
    _run(_checks.check_kinetic(n=10000))


_AUDIT_FIGURES = ("involution", "linear_momentum_x", "linear_momentum_y",
                  "angular_momentum", "kinetic_energy", "half_space_flip_worst")


@functools.cache
def _verdicts_at_scale(s):
    """Each verdict, as (pass, figure), with lengths and velocities times s
    on the (2s, s) ellipse and spins and angles unchanged.

    The data are verify's own: criterion 4's first 2,000 samples, the
    frozen non-uniqueness datum, and the first 8 of criterion 6's data,
    the ones its reversal check runs.
    """
    k = np.array([s, s, s, s, 1.0, 1.0])
    ell = make_ellipse(2.0 * s, s)
    out = {}
    # one W direction just off tangential: |W.nu| / |W| = 1e-10
    frame = build_frame(ell, Beta(0.3, 1.7, 0.9))
    W = frame.F1 - 1e-10 * frame.nu
    _, proj, _, grazing = scatter_velocity(
        ScatteringFamily.reflection(), frame, W / mass_weights(ell.m, ell.J))
    out["grazing"] = (grazing, abs(proj) / float(np.linalg.norm(W)))

    fams = [ScatteringFamily.reflection(), ScatteringFamily.epsi(),
            ScatteringFamily.orientation_preserving(LineField.constant(math.pi / 4))]
    frames, V, *_ = next(sample_contacts(ell, 2000, 104, 2000))
    _, reports = audit_scattering(fams, frames, V * k)
    flip_ok = all(r["half_space_flip_ok"] for r in reports)
    for key in _AUDIT_FIGURES:
        worst = max(r[key] for r in reports)
        out[f"audit {key}"] = (flip_ok and worst < 1e-10, worst)

    rep = divergence_report(ell, make_state(np.array(_checks.NONUNIQ_X0) * k,
                                            np.array(_checks.NONUNIQ_V0) * k),
                            _checks.six_families(), _checks.NONUNIQ_T)
    out["nonuniq all_conserve"] = (
        rep["all_conserve"], max(p["max_ledger_jump_rel"] for p in rep["per_family"]))
    out["nonuniq distinct"] = (rep["distinct"], rep["min_pairwise_velocity_divergence"])

    _, data = _checks.colliding_ellipse_data(8, 106)
    fams = _checks.six_families()
    ledger = reversal = 0.0
    for idx, (Z0, T) in enumerate(data):
        Z = make_state(Z0.X * k, Z0.V * k)
        fam = fams[idx % len(fams)]
        ledger = max(ledger, relative_ledger_jump(ell, simulate(ell, Z, fam, T).events))
        reversal = max(reversal, time_reverse_check(ell, Z, fam, T))
    out["ledger"] = (ledger < 1e-9, ledger)
    out["reversal"] = (reversal < 1e-6, reversal)
    return out


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3, 1e6], ids=lambda s: f"s={s:g}")
def test_every_verdict_is_the_same_at_every_scale(s):
    # every verdict reads W = M V, positions over the diameter and angles,
    # so a change of unit moves no verdict and no figure past rounding
    unit = _verdicts_at_scale(1.0)
    for name, (passed, figure) in _verdicts_at_scale(s).items():
        assert passed and unit[name][0], name
        assert unit[name][1] / 4.0 <= figure <= 4.0 * unit[name][1], (name, figure)
