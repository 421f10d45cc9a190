"""Command-line surface: configs, records, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

# geometry as bound here at import, the module cli calls into; the
# kernel-counting test patches its _kernel, which a later fresh import of
# hardpair (the benchmark's tests make one) leaves alone
from hardpair import cli, geometry
from hardpair.bodies import make_ellipse

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
X0 = [0.0, 0.0, 4.2, 0.3, 0.4, 1.9]
V0 = [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]

def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _body_cfg():
    return {"kind": "ellipse", "a": 2.0, "b": 1.0}


# each command's config besides body: fields that command reads, its
# required ones and, kept small, n_samples and families where it takes them
_FIELDS = {
    "scatter": {"family": {"family": "reflection"}, "beta": [0.3, 1.7, 0.9],
                "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3], "n_samples": 20},
    "simulate": {"family": {"family": "reflection"}, "Z0": X0 + V0, "T": 6.0},
    "nonuniq": {"Z0": X0 + V0, "T": 6.0},
    "invariants": {"families": [{"family": "reflection"}], "n_samples": 20},
}


def _cfg(command, **over):
    """A config holding only fields that command reads, with over applied."""
    return {"body": _body_cfg(), **copy.deepcopy(_FIELDS[command]), **over}


def test_geometry_record(tmp_path, capsys):
    body = _write(tmp_path, "body.json", _body_cfg())
    rc = cli.run(["geometry", "--body", body,
                  "--theta", "0.5", "--thetabar", "1.2", "--psi", "0.8"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["record"] == "geometry"
    assert len(rec["config_hash"]) == 16
    assert rec["d"] > 2.0
    assert len(rec["p"]) == 2 and len(rec["n"]) == 2
    assert rec["identity_residuals"]["n_direction"] < 1e-8


def test_geometry_makes_one_contact_solve(tmp_path, capsys, monkeypatch):
    # the record and its identity residuals share one solve; the other eight
    # are the finite-difference stencil the derivatives are checked against
    calls = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    body = _write(tmp_path, "body.json", _body_cfg())
    rc = cli.run(["geometry", "--body", body,
                  "--theta", "0.5", "--thetabar", "1.2", "--psi", "0.8"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert len(calls) == 9
    assert rec["identity_residuals"]["fd_derivative_gap"] < 1e-6


def test_scatter_record_and_verify_block(tmp_path, capsys):
    cfg = _write(tmp_path, "scatter.json", {
        "body": _body_cfg(),
        "family": {"family": "epsi"},
        "beta": [0.3, 1.7, 0.9],
        "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3],
        "n_samples": 100,
        "seed": 0,
    })
    rc = cli.run(["scatter", "--config", cfg])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["record"] == "scatter"
    assert rec["proj_pre"] < 0.0 < rec["proj_post"]
    assert rec["verify"]["half_space_flip_ok"]
    assert rec["verify"]["det_sign"] == -1


def test_scatter_velocity_override(tmp_path, capsys):
    cfg = _write(tmp_path, "scatter.json", {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "beta": [0.3, 1.7, 0.9],
        "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3],
        "n_samples": 50,
    })
    rc = cli.run(["scatter", "--config", cfg, "--V", "0.1,0.0,-0.4,0.2,0.0,0.0"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["V"] == [0.1, 0.0, -0.4, 0.2, 0.0, 0.0]


def test_scatter_flags_a_grazing_velocity(tmp_path, capsys):
    # an exactly tangential V is mapped (exit 0) and flagged in the record
    from hardpair.bodies import make_ellipse, mass_weights
    from hardpair.frames import build_frame
    from hardpair.geometry import Beta

    ell = make_ellipse(2.0, 1.0)
    nu = build_frame(ell, Beta(0.3, 1.7, 0.9)).nu
    diag = mass_weights(ell.m, ell.J)
    w = diag * np.array([0.2, -0.1, -0.6, 0.4, 0.5, -0.3])
    V = (w - (w @ nu) * nu) / diag
    cfg = _write(tmp_path, "scatter.json", {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "beta": [0.3, 1.7, 0.9],
        "n_samples": 20,
    })
    rc = cli.run(["scatter", "--config", cfg, "--V", ",".join(repr(x) for x in V.tolist())])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["grazing"] is True
    assert abs(rec["proj_pre"]) <= 1e-9 * np.linalg.norm(diag * V)


@pytest.mark.parametrize("command,n", [
    ("scatter", 0),
    ("scatter", -3),
    ("scatter", 2.5),
    # the scatter audit draws its n velocities at once; 10^13 would not fit
    ("scatter", 10**13),
    ("invariants", 0),
    ("invariants", 2.5),
])
def test_bad_n_samples_exits_two(tmp_path, capsys, command, n):
    argv = [command, "--config", _write(tmp_path, "cfg.json", _cfg(command, n_samples=n))]
    if command == "invariants":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and "n_samples" in captured.err


def test_simulate_reports_accumulation_without_warning(tmp_path, capsys, monkeypatch):
    # the datum has 2 events before T; an event cap of 1 stops at the second
    monkeypatch.setitem(cli.simulate.__globals__, "_MAX_EVENTS", 1)
    cfg = _write(tmp_path, "sim.json", _cfg("simulate"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.jsonl")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["accumulation_suspected"] is True
    assert rec["n_events"] == 2 and rec["t_final"] < 6.0


def test_verify_stdout_is_the_same_on_rerun(capsys, suite):
    # wall times go to stderr; stdout holds only seeded results, so a fresh
    # run prints the lines of the suite the acceptance tests judged
    assert cli.run(["verify"]) == 0
    captured = capsys.readouterr()
    assert "scattering: " in captured.err
    assert captured.out == "".join(f"{r.line()}\n" for r in suite.values()) + (
        "verification: 8/8 checks passed\n")


def test_simulate_jsonl_stream(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _cfg("simulate", options={"sample_dt": 1.0}))
    out = tmp_path / "traj.jsonl"
    rc = cli.run(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["record"] == "simulate"
    assert summary["n_events"] >= 1

    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert all(set(r) >= {"t", "X", "V", "event", "ledger", "config_hash"}
               for r in lines)
    ts = [r["t"] for r in lines]
    assert ts == sorted(ts)
    assert lines[0]["t"] == 0.0 and lines[-1]["t"] == pytest.approx(6.0)
    n_events = sum(r["event"] for r in lines)
    assert n_events == summary["n_events"]
    # the ledger is flat across the whole stream
    kes = [r["ledger"]["ke"] for r in lines]
    assert max(kes) - min(kes) < 1e-9
    hashes = {r["config_hash"] for r in lines}
    assert hashes == {summary["config_hash"]}
    # without --out the same records stream to stdout
    assert cli.run(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == out.read_text().splitlines()


def test_simulate_writes_each_realized_state_once(tmp_path):
    # the shipped config runs to T = 8 through two contacts: with sample_dt
    # 0.5 that is the start, 15 grid states, the two events and the end
    cfg = json.loads((CONFIGS / "simulate.json").read_text())
    plain = {k: v for k, v in cfg.items() if k != "options"}
    out = tmp_path / "traj.jsonl"
    for c, want in ((cfg, 19), (plain, 4)):
        path = _write(tmp_path, "sim.json", c)
        assert cli.run(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == want
        assert sum(r["event"] for r in recs) == 2
        assert len({(r["t"], *r["X"], *r["V"]) for r in recs}) == want
        assert recs[0]["t"] == 0.0 and recs[-1]["t"] == 8.0


@pytest.mark.parametrize("over, max_events, want, n_events", [
    ({"T": 0.0}, None, 1, 0),
    ({"options": {}}, 1, 3, 2),
], ids=["T0", "max_events"])
def test_simulate_writes_the_end_state_once(tmp_path, monkeypatch, over, max_events, want,
                                            n_events):
    # with T = 0 the end is the start; a run stopped by the event cap ends
    # on the state right after its last event, which the event record holds
    if max_events is not None:
        monkeypatch.setitem(cli.simulate.__globals__, "_MAX_EVENTS", max_events)
    cfg = json.loads((CONFIGS / "simulate.json").read_text())
    cfg.update(over)
    out = tmp_path / "traj.jsonl"
    path = _write(tmp_path, "sim.json", cfg)
    assert cli.run(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == want
    assert sum(r["event"] for r in recs) == n_events
    assert len({(r["t"], *r["X"], *r["V"]) for r in recs}) == want


def test_simulate_object_form_datum(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _cfg("simulate", Z0={"X": X0, "V": V0}))
    rc = cli.run(["simulate", "--config", cfg, "--out",
                  str(tmp_path / "t.jsonl")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["n_events"] >= 1


def test_nonuniq_record_and_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "nu.json", {
        "body": _body_cfg(),
        "Z0": [0.0, 0.0, -0.4300769504, -4.2832023206, 6.27925883, 1.4088799884,
               0.0050130786, 0.124744358, 0.2336652212, 0.7169422611,
               -0.5278013393, -0.5216380153],
        "T": 4.0,
    })
    out = tmp_path / "nu.csv"
    rc = cli.run(["nonuniq", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["record"] == "nonuniq"
    assert not rec["degenerate"]
    assert rec["distinct"] and rec["all_conserve"]
    assert len(rec["families"]) == 6

    rows = out.read_text().splitlines()
    assert len(rows) == 7
    assert rows[0].startswith("family,n_events,final_x1")


def test_nonuniq_byte_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "nu.json", {
        "body": _body_cfg(),
        "Z0": [0.0, 0.0, -0.4300769504, -4.2832023206, 6.27925883, 1.4088799884,
               0.0050130786, 0.124744358, 0.2336652212, 0.7169422611,
               -0.5278013393, -0.5216380153],
        "T": 4.0,
    })
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.run(["nonuniq", "--config", cfg, "--out", str(out)]) == 0
        outs.append(capsys.readouterr().out + out.read_text())
    assert outs[0] == outs[1]


def test_invariants_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}, {"family": "epsi"}],
        "n_samples": 200,
        "seed": 3,
    })
    out = tmp_path / "inv.csv"
    rc = cli.run(["invariants", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["record"] == "invariants"
    rows = out.read_text().splitlines()
    assert rows[0] == "candidate,reflection,epsi,config_hash"
    assert len(rows) == 7
    table = rec["table"]
    assert table["v_x"]["reflection"] < 1e-10
    assert table["w"]["reflection"] > 1e-3


def test_invariants_custom_candidates(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}],
        "candidates": [{"variant": "constant"},
                       {"variant": "momentum_x"},
                       {"variant": "momentum_y"},
                       {"variant": "kinetic_energy"},
                       {"variant": "angular_speed"},
                       {"variant": "theta_function", "form": "cos", "k": 2}],
        "n_samples": 100,
    })
    rc = cli.run(["invariants", "--config", cfg, "--out",
                  str(tmp_path / "i.csv")])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert set(table) == {"1", "v_x", "v_y", "m|v|^2+Jw^2", "w", "cos(2theta)"}


@pytest.mark.parametrize("candidate,field", [
    ({"form": "sin"}, "variant"),
    ({"variant": "spin_squared"}, "variant"),
    ({"variant": "theta_function", "form": "tan"}, "form"),
], ids=["missing_variant", "unknown_variant", "bad_form"])
def test_bad_candidate_exits_two(tmp_path, capsys, candidate, field):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}],
        "candidates": [candidate],
        "n_samples": 10,
    })
    assert cli.run(["invariants", "--config", cfg, "--out", str(tmp_path / "i.csv")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and field in err


def test_seed_override_changes_hash(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}],
        "n_samples": 50,
    })
    hashes = []
    for extra in ([], ["--seed", "9"]):
        assert cli.run(["invariants", "--config", cfg,
                        "--out", str(tmp_path / "i.csv")] + extra) == 0
        hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("command", ["simulate", "nonuniq"])
def test_seed_is_a_usage_error_where_nothing_is_drawn(tmp_path, capsys, command):
    # simulate and nonuniq draw no random numbers, so they take no --seed
    cfg = _write(tmp_path, "sim.json", _cfg(command))
    assert cli.run([command, "--config", cfg, "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_quiet_suppresses_record(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", _cfg("invariants", n_samples=50))
    rc = cli.run(["invariants", "--config", cfg, "--quiet",
                  "--out", str(tmp_path / "i.csv")])
    assert rc == 0
    cfg = _write(tmp_path, "scatter.json", _cfg("scatter", n_samples=50))
    assert cli.run(["scatter", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_config_hash_reads_numpy_values_and_beta_as_json():
    from hardpair.geometry import Beta

    plain = {"n": 3, "ok": True, "x": 0.5, "v": [1.0, 2.0], "beta": [0.3, 1.7, 0.9]}
    typed = {"n": np.int64(3), "ok": np.bool_(True), "x": np.float64(0.5),
             "v": np.array([1.0, 2.0]), "beta": Beta(0.3, 1.7, 0.9)}
    assert cli.config_hash(typed) == cli.config_hash(plain)


def test_usage_errors_exit_one(capsys):
    assert cli.run([]) == 1
    assert cli.run(["bogus"]) == 1
    assert cli.run(["simulate"]) == 1
    capsys.readouterr()
    # verify runs at one size only
    assert cli.run(["verify", "--quick"]) == 1
    assert "--quick" in capsys.readouterr().err


def test_validation_errors_exit_two(tmp_path, capsys):
    bad_body = _write(tmp_path, "bad.json", _cfg("simulate", body={"kind": "triangle"}))
    assert cli.run(["simulate", "--config", bad_body]) == 2
    not_json = tmp_path / "nj.json"
    not_json.write_text("{{{")
    assert cli.run(["simulate", "--config", str(not_json)]) == 2
    short = _write(tmp_path, "short.json", _cfg("simulate", Z0=[0.0] * 5))
    assert cli.run(["simulate", "--config", short]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    # nonuniq compares families pairwise; one family has no pair
    one = _write(tmp_path, "one.json", {"body": _body_cfg(), "Z0": X0 + V0,
                                        "families": [{"family": "reflection"}]})
    assert cli.run(["nonuniq", "--config", one, "--out", str(tmp_path / "n.csv")]) == 2
    assert "families" in capsys.readouterr().err


def test_unknown_option_exits_two(tmp_path, capsys):
    # dt_scan, the stride of the old event scan, and the merge window t_tol
    # and grazing threshold grazing_rtol, now constants, are not options
    for name in ("dt_scan", "t_tol", "grazing_rtol"):
        cfg = _write(tmp_path, "sim.json", _cfg("simulate", options={name: 0.01}))
        assert cli.run(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err
        assert name in err


def test_post_collisional_velocity_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "scatter.json", {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "beta": [0.3, 1.7, 0.9],
        "V": [-0.2, 0.1, 0.6, -0.4, -0.5, 0.3],
        "n_samples": 10,
    })
    rc = cli.run(["scatter", "--config", cfg])
    captured = capsys.readouterr()
    if rc == 0:
        pytest.skip("chosen velocity happened to be incoming")
    assert rc == 2
    assert "separating" in captured.err


@pytest.mark.parametrize("over,field", [
    ({"Z0": {"X": [0.0, 0.0, float("nan"), 0.3, 0.4, 1.9],
             "V": [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]}}, "X"),
    ({"Z0": {"X": [0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
             "V": [0.5, float("nan"), -0.45, 0.05, 0.3, -0.2]}}, "V"),
    ({"T": float("inf")}, "T"),
])
def test_nonfinite_input_exits_two(tmp_path, capsys, over, field):
    cfg = _write(tmp_path, "sim.json", _cfg("simulate", **over))
    assert cli.run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{field} " in err


def test_nonfinite_geometry_angle_exits_two(tmp_path, capsys):
    body = _write(tmp_path, "body.json", _body_cfg())
    rc = cli.run(["geometry", "--body", body,
                  "--theta", "nan", "--thetabar", "1.2", "--psi", "0.8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "theta " in err


@pytest.mark.parametrize("over,field", [
    ({"beta": [0.3, 1.7, float("nan")]}, "psi"),
    ({"V": [0.2, -0.1, float("nan"), 0.4, 0.5, -0.3]}, "V"),
    ({"family": {"family": "op", "line_field": {"kind": "constant", "phi": float("nan")}}},
     "phi"),
    ({"family": {"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [[1, 0, float("nan"), 0.1]]}}}, "coeffs"),
])
def test_nonfinite_scatter_input_exits_two(tmp_path, capsys, over, field):
    cfg = {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "beta": [0.3, 1.7, 0.9],
        "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3],
        "n_samples": 50,
    }
    cfg.update(over)
    assert cli.run(["scatter", "--config", _write(tmp_path, "scatter.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{field} " in err


def _no_grid(*args):
    raise AssertionError("the sample grid was built")


@pytest.mark.parametrize("options,field", [
    ({"sample_dt": float("nan")}, "sample_dt"),
    # the event cap max_events is a constant now: any value is refused
    ({"max_events": 2.5}, "max_events"),
    ({"sample_dt": 0}, "sample_dt"),
    ({"max_events": -1}, "max_events"),
    # 6e9 grid states over T = 6: refused before one is built
    ({"sample_dt": 1e-9}, "sample_dt"),
])
def test_out_of_domain_option_exits_two(tmp_path, capsys, monkeypatch, options, field):
    monkeypatch.setitem(cli.simulate.__globals__, "_resample", _no_grid)
    cfg = _write(tmp_path, "sim.json", _cfg("simulate", options=options))
    assert cli.run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    # simulate names a bad sample_dt; the reader names a field options does not have
    assert (f"option {field} " if field == "sample_dt" else f"options.{field} ") in err


@pytest.mark.parametrize("command,over,field", [
    ("simulate", {"body": {"kind": "ellipse", "a": [2], "b": 1}}, "body.a"),
    ("simulate", {"T": [8]}, "T"),
    ("invariants", {"seed": 2.5}, "seed"),
    ("invariants", {"candidates": [{"variant": "theta_function", "k": float("inf")}]}, "k"),
    ("invariants", {"candidates": [{"variant": "theta_function", "k": 2.5}]}, "k"),
    ("invariants", {"families": [{"family": "op", "line_field": {
        "kind": "constant", "phi": float("inf")}}]}, "phi"),
    # the reader names the entry that is not a row
    pytest.param("invariants", {"families": [{"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [1, 2]}}]}, "families[0].line_field.coeffs[0]",
        id="invariants-over6-coeffs"),
    ("simulate", {"Z0": ["0"] + X0[1:] + V0}, "Z0[0]"),
    ("simulate", {"Z0": [[0.0]] + X0[1:] + V0}, "Z0[0]"),
    ("simulate", {"Z0": X0 + V0[:5]}, "Z0"),
    ("simulate", {"Z0": {"X": X0[:1] + ["0"] + X0[2:], "V": V0}}, "Z0.X[1]"),
    ("simulate", {"Z0": {"X": X0, "V": V0 + [0.0]}}, "Z0.V"),
    ("scatter", {"beta": [0.3, 1.7, 0.9], "V": ["0.2"] + V0[1:]}, "V[0]"),
    ("scatter", {"beta": [0.3, 1.7, 0.9], "V": [[0.2]] + V0[1:]}, "V[0]"),
    ("scatter", {"beta": [0.3, 1.7, 0.9], "V": V0[:5]}, "V"),
    ("scatter", {"beta": [0.3, "1.7", 0.9], "V": V0}, "beta[1]"),
    ("scatter", {"beta": [0.3, 1.7], "V": V0}, "beta"),
])
def test_non_number_config_value_exits_two(tmp_path, capsys, command, over, field):
    cfg = _write(tmp_path, "cfg.json", _cfg(command, **over))
    argv = [command, "--config", cfg]
    if command == "invariants":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{field} " in err


def _without(command, key, **over):
    cfg = _cfg(command, **over)
    del cfg[key]
    return cfg


SCATTER_CFG = _cfg("scatter", V=V0)


@pytest.mark.parametrize("command,cfg,extra,message", [
    ("simulate", _without("simulate", "Z0"), [], "Z0 is required"),
    ("nonuniq", _without("nonuniq", "Z0"), [], "Z0 is required"),
    ("simulate", _without("simulate", "T"), [], "T is required"),
    ("scatter", _without("scatter", "beta", V=V0), [], "beta is required"),
    ("scatter", _without("scatter", "V"), [], "V is required"),
    ("simulate", _cfg("simulate", options=[0.05]), [], "options must be an object"),
    ("nonuniq", _cfg("nonuniq", families=[]), [], "families must be a nonempty list"),
    ("invariants", _cfg("invariants", families={"family": "reflection"}), [],
     "families must be a nonempty list"),
    ("invariants", _cfg("invariants", candidates=5), [], "candidates must be a nonempty list"),
    ("invariants", _cfg("invariants", candidates=[]), [],
     "candidates must be a nonempty list"),
    ("simulate", _cfg("simulate", Z0={"X": X0}), [], "Z0.V is required"),
    ("simulate", _cfg("simulate", Z0=4.2), [], "Z0 must be a 12-number list or an object"),
    ("simulate", _cfg("simulate", body={"a": 2.0, "b": 1.0}), [], "body.kind is required"),
    ("simulate", _cfg("simulate", body="ellipse"), [], "body must be an object"),
    ("simulate", _cfg("simulate", body={"kind": "ellipse", "b": 1.0}), [], "body.a is required"),
    ("simulate", _cfg("simulate", body={"kind": "ellipse", "a": 2.0}), [], "body.b is required"),
    ("simulate", None, [], "cannot read config"),
    ("simulate", [X0, V0], [], "must be a JSON object"),
    ("scatter", SCATTER_CFG, ["--V", "0.1,x,0,0,0,0"], "--V must be comma-separated numbers"),
    ("scatter", SCATTER_CFG, ["--V", "0.1,0.2"], "V must be a 6-entry list, got [0.1, 0.2]"),
    ("invariants", _cfg("invariants", families=[{"family": "op", "line_field": {
        "kind": "fourier", "coeffs": []}}]), [],
     "families[0].line_field.coeffs must be a nonempty list"),
    # both columns were labelled op(fourier), and both printed one family's residual
    ("invariants", _cfg("invariants", families=[
        {"family": "op", "line_field": {"kind": "fourier", "coeffs": [[1, 0, 0.3, 0.1]]}},
        {"family": "op", "line_field": {"kind": "fourier", "coeffs": [[0, 1, 2.0, 0.5]]}},
        {"family": "reflection"}], candidates=[{"variant": "angular_speed"}], n_samples=200,
        seed=1), [], "families[0] and families[1] share the label 'op(fourier)'"),
    ("invariants", _cfg("invariants", candidates=[
        {"variant": "angular_speed"}, {"variant": "momentum_x"}, {"variant": "angular_speed"}],
        n_samples=200, seed=1), [], "candidates[0] and candidates[2] share the name 'w'"),
], ids=[
    "simulate-no-Z0", "nonuniq-no-Z0", "simulate-no-T", "scatter-no-beta", "scatter-no-V",
    "options-list", "families-empty", "families-object", "candidates-number",
    "candidates-empty", "Z0-object-no-V", "Z0-number",
    "body-no-kind", "body-string", "ellipse-no-a", "ellipse-no-b", "config-missing",
    "config-list", "V-flag-text", "V-flag-short", "coeffs-empty", "families-same-label",
    "candidates-same-name",
])
def test_config_errors_exit_two_naming_the_field(tmp_path, capsys, command, cfg, extra,
                                                  message):
    # cfg None is a config file that does not exist
    path = tmp_path / "cfg.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), *extra]
    if command in ("nonuniq", "invariants"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert message in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("axes,field", [
    ({"a": 1.0, "b": 1e-300}, "b="),
    ({"a": 1e160, "b": 1.0}, "a="),
    ({"a": 1e200, "b": 1e200}, "a="),
])
def test_out_of_range_ellipse_axis_exits_two(tmp_path, capsys, axes, field):
    # a J that overflows, or an a^2 b^2 that underflows, is rejected with the
    # axis named before any contact solve
    body = _write(tmp_path, "body.json", {"kind": "ellipse", **axes})
    rc = cli.run(["geometry", "--body", body,
                  "--theta", "0.5", "--thetabar", "1.2", "--psi", "0.8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"axis {field}" in err


@pytest.mark.parametrize("r,word", [(1e100, "large"), (1e-100, "small"), (0.0, "positive"),
                                    (-1.0, "positive")])
def test_out_of_range_disk_radius_exits_two(tmp_path, capsys, r, word):
    # a J that overflows or underflows to 0, or a radius not above 0, is
    # rejected with r named, not the axes of the (r, r) ellipse it sets,
    # before the scatter frame divides by it
    cfg = _write(tmp_path, "scatter.json", _cfg("scatter", body={"kind": "disk", "r": r}, V=V0))
    assert cli.run(["scatter", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"radius r={r}" in err and word in err


def test_disk_body(tmp_path, capsys):
    # a disk of radius r touches its twin at d = 2r at every pose
    body = _write(tmp_path, "disk.json", {"kind": "disk", "r": 0.75})
    assert cli.run(["geometry", "--body", body,
                    "--theta", "0.5", "--thetabar", "1.2", "--psi", "0.8"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == pytest.approx(1.5, abs=1e-12)
    no_r = _write(tmp_path, "nor.json", {"kind": "disk"})
    assert cli.run(["geometry", "--body", no_r,
                    "--theta", "0.5", "--thetabar", "1.2", "--psi", "0.8"]) == 2
    assert "body.r " in capsys.readouterr().err


def test_every_closed_form_solve_crosses_the_kernel_binding(tmp_path, monkeypatch):
    # a disk is the (r, r) ellipse, so its solves go through the binding the
    # benchmark's tracer counts, whether built directly or read from a config
    calls = []
    solve = geometry._kernel.ellipse_contact

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry._kernel, "ellipse_contact", counted)
    for body in (make_ellipse(1.0, 1.0), cli.body_from_config({"kind": "disk", "r": 0.75})):
        assert geometry.closest_approach(body, 0.5, 0.8).d == 2.0 * body.a
    assert calls == [(1.0, 1.0), (0.75, 0.75)]


def test_disk_and_unit_ellipse_write_the_same_records(tmp_path):
    out = {}
    for name, body in (("disk", {"kind": "disk", "r": 1.0}),
                       ("ellipse", {"kind": "ellipse", "a": 1.0, "b": 1.0})):
        path = _write(tmp_path, f"{name}.json", _cfg(
            "simulate", body=body, Z0=[0, 0, 3, 0.2, 0, 0, 0.3, 0, -0.4, 0, 0.5, -0.2],
            options={"sample_dt": 0.5}))
        assert cli.run(["simulate", "--config", path, "--out", str(tmp_path / name),
                        "--quiet"]) == 0
        out[name] = [{k: v for k, v in json.loads(line).items() if k != "config_hash"}
                     for line in (tmp_path / name).read_text().splitlines()]
    assert sum(r["event"] for r in out["disk"]) >= 1
    assert out["disk"] == out["ellipse"]


def test_simulate_on_a_circle_whose_K_once_rounded_negative(tmp_path, capsys):
    # at a = b = r, K = a^2/b - b rounded to -2.2e-16, and the event search's
    # square root of it exited 2 with a math domain error
    r = 1.6478106158273977
    cfg = _write(tmp_path, "sim.json", _cfg(
        "simulate", body={"kind": "ellipse", "a": r, "b": r},
        Z0=[0, 0, 5, 0, 0, 0, 0, 0, -0.5, 0, 0.3, 0.2], T=10.0))
    assert cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["n_events"] == 1


def test_overlapping_start_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _cfg(
        "simulate", Z0=[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0]))
    assert cli.run(["simulate", "--config", cfg]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


def test_package_runs_as_a_module():
    # README's checkout route: PYTHONPATH=src python -m hardpair
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "hardpair", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


# each shipped config and the command that reads it; a new config needs an entry
SHIPPED = {
    "body_ellipse.json": ["geometry", "--theta", "0.3", "--thetabar", "1.7", "--psi", "0.9",
                          "--body"],
    "invariants.json": ["invariants", "--config"],
    "nonuniq.json": ["nonuniq", "--config"],
    "scatter.json": ["scatter", "--config"],
    "simulate.json": ["simulate", "--config"],
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_runs(tmp_path, capsys, name):
    argv = SHIPPED[name] + [str(CONFIGS / name)]
    if argv[0] in ("simulate", "nonuniq", "invariants"):
        argv += ["--out", str(tmp_path / "out")]
    assert cli.run(argv) == 0
    assert capsys.readouterr().err == ""


def _shipped(name, edit):
    cfg = json.loads((CONFIGS / name).read_text())
    edit(cfg)
    return cfg


def _run_shipped_times_1e3(tmp_path, capsys, name, key, linear):
    # body axes, positions and linear velocities (the entries `linear` of
    # cfg[key]) of a shipped config times 1e3; angles and spins unchanged
    def scale(c):
        c["body"].update(a=1e3 * c["body"]["a"], b=1e3 * c["body"]["b"])
        for i in linear:
            c[key][i] *= 1e3

    cfg = _write(tmp_path, name, _shipped(name, scale))
    assert cli.run(SHIPPED[name] + [cfg]) == 0
    return json.loads(capsys.readouterr().out)


def test_scatter_audit_holds_at_a_larger_unit(tmp_path, capsys):
    # every audit figure is relative to |W|, W = M V, so it reads rounding
    # error at any unit of length
    rec = _run_shipped_times_1e3(tmp_path, capsys, "scatter.json", "V", range(4))
    audit = rec["verify"]
    assert audit["half_space_flip_ok"]
    for key in ("matrix_involution", "involution", "linear_momentum_x", "linear_momentum_y",
                "angular_momentum", "kinetic_energy", "abs_det_residual",
                "half_space_flip_worst"):
        assert audit[key] < 1e-10, key


def test_nonuniq_verdicts_hold_at_a_larger_unit(tmp_path, capsys):
    rec = _run_shipped_times_1e3(tmp_path, capsys, "nonuniq.json", "Z0",
                                 [0, 1, 2, 3, 6, 7, 8, 9])
    assert rec["all_conserve"] is True and rec["distinct"] is True


@pytest.mark.parametrize("command,cfg,field", [
    # a misspelt option at the top level, and a seed that simulate never reads
    ("simulate", _shipped("simulate.json", lambda c: c.update(sampel_dt=0.1)), "sampel_dt"),
    ("simulate", _shipped("simulate.json", lambda c: c.update(seed=2.5)), "seed"),
    ("simulate", _shipped("simulate.json", lambda c: c["body"].update(c=1.0)), "body.c"),
    ("simulate", _shipped("simulate.json", lambda c: c["family"].update(
        line_field={"kind": "constant", "phi": 0.1})), "family.line_field"),
    ("simulate", _shipped("simulate.json", lambda c: c["Z0"].update(W=V0)), "Z0.W"),
    ("simulate", _shipped("simulate.json", lambda c: c["options"].update(sampel_dt=0.1)),
     "options.sampel_dt"),
    ("nonuniq", _shipped("nonuniq.json", lambda c: c.update(family={"family": "epsi"})),
     "family"),
    ("nonuniq", _shipped("nonuniq.json", lambda c: c["families"][2]["line_field"].update(
        coeffs=[[1, 0, 0.1, 0.0]])), "families[2].line_field.coeffs"),
    ("scatter", _shipped("scatter.json", lambda c: c.update(families=[])), "families"),
    ("invariants", _shipped("invariants.json", lambda c: c["families"][0].update(phi=0.0)),
     "families[0].phi"),
    ("invariants", _shipped("invariants.json", lambda c: c.update(
        candidates=[{"variant": "constant", "k": 2}])), "candidates[0].k"),
    ("geometry", _shipped("body_ellipse.json", lambda c: c.update(r=1.0)), "body.r"),
    # nonuniq prints no grid state, so it takes no sample_dt
    ("nonuniq", _shipped("nonuniq.json", lambda c: c.update(options={"sample_dt": 0.5})),
     "options"),
], ids=["top", "seed", "body", "family", "Z0", "options", "nonuniq-family", "line_field",
        "scatter-families", "families", "candidate", "body-file", "nonuniq-options"])
def test_unread_field_exits_two(tmp_path, capsys, command, cfg, field):
    argv = [command, "--config", _write(tmp_path, "cfg.json", cfg)]
    if command == "geometry":
        argv = SHIPPED["body_ellipse.json"] + [argv[-1]]
    if command in ("nonuniq", "invariants"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"validation error: {field} is not a field this command reads" in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,cfg,named", [
    ("invariants", _cfg("invariants", candidates=[
        {"variant": "theta_function", "k": 10**400}]), "candidates[0].k"),
    ("simulate", _cfg("simulate", Z0=X0 + [1e155] + V0[1:]), "V"),
    ("simulate", _cfg("simulate", Z0=X0 + V0[:4] + [1e200, V0[5]]), "V"),
    # V = 1e200 (1, ..., 1) separates; |V| as a norm overflowed and passed it as grazing
    ("scatter", _cfg("scatter", V=[1e200] * 6), "separating"),
    # k times an angle overflowed: invariants printed nan, scatter named no field
    ("invariants", _cfg("invariants", families=[{"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [[1e308, 0, 1.0, 0.0]]}}]),
     "families[0].line_field.coeffs[0][0]"),
    ("scatter", _cfg("scatter", family={"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [[1e308, 0, 1.0, 0.0]]}}), "family.line_field.coeffs[0][0]"),
    # a line field with a half-integer wave number is no function on the torus
    ("invariants", _cfg("invariants", families=[{"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [[1, 0, 0.3, 0.1], [0, 0.5, 1.0, 0.0]]}}]),
     "families[0].line_field.coeffs[1][1]"),
    # an integer past the float range raised OverflowError and exited 1
    ("scatter", _cfg("scatter", family={"family": "op", "line_field": {
        "kind": "constant", "phi": 10**400}}), "family.line_field.phi"),
    ("simulate", _cfg("simulate", T=10**400), "T"),
], ids=["theta_k", "speed", "spin", "scatter_speed", "fourier_k", "scatter_fourier_k",
        "fourier_half_k", "huge_phi", "huge_T"])
def test_out_of_range_value_exits_two(tmp_path, capsys, command, cfg, named):
    argv = [command, "--config", _write(tmp_path, "cfg.json", cfg)]
    if command == "invariants":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and f"{named} " in captured.err
