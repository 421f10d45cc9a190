"""Command-line surface: configs, records, exit codes, determinism."""

import json

import numpy as np
import pytest

from hardpair import cli


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _body_cfg():
    return {"kind": "ellipse", "a": 2.0, "b": 1.0}


def _sim_cfg(**over):
    cfg = {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "Z0": [0.0, 0.0, 4.2, 0.3, 0.4, 1.9,
               0.5, 0.0, -0.45, 0.05, 0.3, -0.2],
        "T": 6.0,
        "seed": 0,
    }
    cfg.update(over)
    return cfg


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
    from hardpair import _kernel

    calls = []
    solve = _kernel.ellipse_contact

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(_kernel, "ellipse_contact", counted)
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


def test_simulate_jsonl_stream(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _sim_cfg(options={"sample_dt": 1.0}))
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


def test_simulate_object_form_datum(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _sim_cfg(
        Z0={"X": [0.0, 0.0, 4.2, 0.3, 0.4, 1.9],
            "V": [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]}))
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
        "seed": 0,
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
        "candidates": [{"variant": "kinetic_energy"},
                       {"variant": "theta_function", "form": "cos", "k": 2}],
        "n_samples": 100,
    })
    rc = cli.run(["invariants", "--config", cfg, "--out",
                  str(tmp_path / "i.csv")])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert set(table) == {"m|v|^2+Jw^2", "cos(2theta)"}


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


def test_quiet_suppresses_record(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}],
        "n_samples": 50,
    })
    rc = cli.run(["invariants", "--config", cfg, "--quiet",
                  "--out", str(tmp_path / "i.csv")])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_one(capsys):
    assert cli.run([]) == 1
    assert cli.run(["bogus"]) == 1
    assert cli.run(["simulate"]) == 1
    capsys.readouterr()


def test_validation_errors_exit_two(tmp_path, capsys):
    bad_body = _write(tmp_path, "bad.json", _sim_cfg(body={"kind": "triangle"}))
    assert cli.run(["simulate", "--config", bad_body]) == 2
    not_json = tmp_path / "nj.json"
    not_json.write_text("{{{")
    assert cli.run(["simulate", "--config", str(not_json)]) == 2
    short = _write(tmp_path, "short.json", _sim_cfg(Z0=[0.0] * 5))
    assert cli.run(["simulate", "--config", short]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err


def test_unknown_option_exits_two(tmp_path, capsys):
    # dt_scan, the stride of the old event scan, is no longer an option
    cfg = _write(tmp_path, "sim.json", _sim_cfg(options={"dt_scan": 0.01}))
    assert cli.run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "dt_scan" in err


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
    cfg = _write(tmp_path, "sim.json", _sim_cfg(**over))
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


@pytest.mark.parametrize("options,field", [
    ({"t_tol": float("nan")}, "t_tol"),
    ({"grazing_rtol": float("inf")}, "grazing_rtol"),
    ({"sample_dt": 0}, "sample_dt"),
    ({"max_events": -1}, "max_events"),
])
def test_out_of_domain_option_exits_two(tmp_path, capsys, options, field):
    cfg = _write(tmp_path, "sim.json", _sim_cfg(options=options))
    assert cli.run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"option {field} " in err


def test_overlapping_start_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _sim_cfg(
        Z0=[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0]))
    assert cli.run(["simulate", "--config", cfg]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
