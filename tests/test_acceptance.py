"""Acceptance gate: every advertised guarantee at its stated tolerance.

test_criterion takes one check of `_checks.CHECKS` (the suite behind the
`verify` subcommand) per criterion, named as its `verify` line, and asserts
its pass flag, so `pytest -v` prints one line per criterion.  The printed
line carries each measured figure next to the bound it is held to.
"""

import functools
import json
import math
import re
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


# a printed term: the figure, then the bound it is held to, as "2.2e-15 (<1e-10"
# or "6.3e-04 (>0"
_PRINTED_TERM = re.compile(r"(\S+) \(([<>])(\d+(?:e-?\d+)?)")


def _printed_verdicts(detail: str) -> list[bool]:
    """Each printed figure judged against its printed bound."""
    return [float(fig) < float(bound) if op == "<" else float(fig) > float(bound)
            for fig, op, bound in _PRINTED_TERM.findall(detail)]


@pytest.mark.parametrize("check", _checks.CHECKS, ids=_checks.name_of)
def test_criterion(check, suite):
    result = suite[_checks.name_of(check)]
    print(f"\n{result.line()}")
    assert result.passed, result.detail
    assert _printed_verdicts(result.detail) and all(_printed_verdicts(result.detail))


def test_a_figure_past_its_printed_bound_fails_its_line(monkeypatch, capsys):
    # scattering held its impulse route to 1e-10 but printed no bound: an
    # impulse route off by 1e-9 must print past its bound, on a FAIL line
    impulse_scatter = _checks.impulse_scatter
    monkeypatch.setattr(_checks, "impulse_scatter", lambda *args: impulse_scatter(*args) + 1e-9)
    monkeypatch.setattr(_checks, "CHECKS", (_checks.check_scattering,))
    assert cli.run(["verify"]) == 2
    line, summary = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL scattering: ") and "impulse 1.00e-09 (<1e-10)" in line
    # only that figure is past its bound: involution ... KE, impulse, epsi
    assert _printed_verdicts(line) == [True] * 5 + [False, True]
    assert summary == "verification: 0/1 checks passed"


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
    result = _checks.run(_checks.check_dynamics)
    assert not result.passed and "1 data without a collision" in result.detail


def test_criterion_6_touch_term_fails_on_an_event_off_contact(monkeypatch):
    # one event's second center moved out along the center line by 1e-9 of
    # the diameter: the Perram-Wertheim touch term, and only it, fails
    simulate = _checks.simulate
    runs = []

    def moved_one(*args):
        tr = simulate(*args)
        runs.append(tr)
        if len(runs) != 3:
            return tr
        ev = tr.events[0]
        X = ev.X.copy()
        r = X[2:4] - X[0:2]
        X[2:4] += 1e-9 * _checks.ELL.diameter * r / np.linalg.norm(r)
        return tr._replace(events=[ev._replace(X=X), *tr.events[1:]])

    monkeypatch.setattr(_checks, "simulate", moved_one)
    result = _checks.run(_checks.check_dynamics)
    assert not result.passed and "PW touch/diam 1.00e-09 (<1e-12" in result.detail
    # head-on, ledger, gap deficit, reversal, touch, margin
    assert _printed_verdicts(result.detail) == [True] * 4 + [False, True]


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


_AUDIT_FIGURES = ("involution", "linear_momentum_x", "linear_momentum_y",
                  "angular_momentum", "kinetic_energy", "half_space_flip_worst")


@functools.cache
def _verdicts_at_scale(s):
    """Each verdict, as (pass, figure), with lengths and velocities times s
    on the (2s, s) ellipse and spins and angles unchanged.

    The data are verify's own: criterion 2's poses, criterion 4's first
    2,000 samples, the frozen non-uniqueness datum, and criterion 6's 50
    data for the touch term; the ledger and the reversal take the first 8,
    the ones criterion 6's reversal check runs.
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

    poses = np.random.default_rng(102).uniform(0.0, 2.0 * math.pi, (200, 2))
    pw = _checks.pw_solver_gap(ell, poses)
    out["|solver-PW|/diam"] = (pw < 1e-12, pw)

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

    _, data = _checks.colliding_ellipse_data(50, 106)
    fams = _checks.six_families()
    ledger = reversal = touch = 0.0
    for idx, (Z0, T) in enumerate(data):
        Z = make_state(Z0.X * k, Z0.V * k)
        fam = fams[idx % len(fams)]
        events = simulate(ell, Z, fam, T).events
        touch = max([touch, *(abs(_checks.pw_margin(ell, ev.X)) for ev in events)])
        if idx < 8:
            ledger = max(ledger, relative_ledger_jump(ell, events))
            reversal = max(reversal, time_reverse_check(ell, Z, fam, T))
    out["ledger"] = (ledger < 1e-9, ledger)
    out["PW touch/diam"] = (touch < 1e-12, touch)
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
