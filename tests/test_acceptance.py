"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test runs one check from the shared verification suite (the same code
behind the `verify` subcommand) at full sample size and asserts its pass
flag, so `pytest -v` prints one line per criterion.  The printed detail
carries the measured numbers for the record.
"""

import json
from pathlib import Path

import pytest

from hardpair import _checks
from hardpair import cli

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
