"""Command-line surface: configs, records, exit codes, determinism."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

# geometry as bound here at import, the module cli calls into; the
# kernel-counting test patches its _kernel, which a later fresh import of
# hardpair (the benchmark's tests make one) leaves alone
from hardpair import cli, geometry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
X0 = [0.0, 0.0, 4.2, 0.3, 0.4, 1.9]
V0 = [0.5, 0.0, -0.45, 0.05, 0.3, -0.2]

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
        "Z0": X0 + V0,
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
    assert abs(rec["proj_pre"]) <= 1e-9 * np.linalg.norm(V)


@pytest.mark.parametrize("command,n", [
    ("scatter", 0),
    ("scatter", -3),
    ("scatter", 2.5),
    ("invariants", 0),
    ("invariants", 2.5),
])
def test_bad_n_samples_exits_two(tmp_path, capsys, command, n):
    cfg = {
        "body": _body_cfg(),
        "family": {"family": "reflection"},
        "families": [{"family": "reflection"}],
        "beta": [0.3, 1.7, 0.9],
        "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3],
        "n_samples": n,
    }
    argv = [command, "--config", _write(tmp_path, "cfg.json", cfg)]
    if command == "invariants":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and "n_samples" in captured.err


def test_simulate_reports_accumulation_without_warning(tmp_path, capsys, monkeypatch):
    # the datum has 2 events before T; an event cap of 1 stops at the second
    monkeypatch.setitem(cli.simulate.__globals__, "_MAX_EVENTS", 1)
    cfg = _write(tmp_path, "sim.json", _sim_cfg())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "t.jsonl")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["accumulation_suspected"] is True
    assert rec["n_events"] == 2 and rec["t_final"] < 6.0


def test_verify_stdout_is_the_same_on_rerun(capsys):
    # wall times go to stderr; stdout holds only seeded results
    outs = []
    for _ in range(2):
        assert cli.run(["verify", "--quick"]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert "scattering: " in captured.err
    assert outs[0] == outs[1]
    assert "verification: 8/8 checks passed" in outs[0]


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
    cfg = _write(tmp_path, "sim.json", _sim_cfg(Z0={"X": X0, "V": V0}))
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


def test_quiet_suppresses_record(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.json", {
        "body": _body_cfg(),
        "families": [{"family": "reflection"}],
        "family": {"family": "reflection"},
        "beta": [0.3, 1.7, 0.9],
        "V": [0.2, -0.1, -0.6, 0.4, 0.5, -0.3],
        "n_samples": 50,
    })
    rc = cli.run(["invariants", "--config", cfg, "--quiet",
                  "--out", str(tmp_path / "i.csv")])
    assert rc == 0
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
    # nonuniq compares families pairwise; one family has no pair
    one = _write(tmp_path, "one.json", {"body": _body_cfg(), "Z0": X0 + V0,
                                        "families": [{"family": "reflection"}]})
    assert cli.run(["nonuniq", "--config", one, "--out", str(tmp_path / "n.csv")]) == 2
    assert "families" in capsys.readouterr().err


def test_unknown_option_exits_two(tmp_path, capsys):
    # dt_scan, the stride of the old event scan, and the merge window t_tol
    # and grazing threshold grazing_rtol, now constants, are not options
    for name in ("dt_scan", "t_tol", "grazing_rtol"):
        cfg = _write(tmp_path, "sim.json", _sim_cfg(options={name: 0.01}))
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
    cfg = _write(tmp_path, "sim.json", _sim_cfg(options=options))
    assert cli.run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"option {field} " in err


@pytest.mark.parametrize("command,over,field", [
    ("simulate", {"body": {"kind": "ellipse", "a": [2], "b": 1}}, "body.a"),
    ("simulate", {"T": [8]}, "T"),
    ("simulate", {"seed": 2.5}, "seed"),
    ("invariants", {"candidates": [{"variant": "theta_function", "k": float("inf")}]}, "k"),
    ("invariants", {"candidates": [{"variant": "theta_function", "k": 2.5}]}, "k"),
    ("invariants", {"families": [{"family": "op", "line_field": {
        "kind": "constant", "phi": float("inf")}}]}, "phi"),
    ("invariants", {"families": [{"family": "op", "line_field": {
        "kind": "fourier", "coeffs": [1, 2]}}]}, "coeffs"),
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
    cfg = _write(tmp_path, "cfg.json", _sim_cfg(n_samples=20, **over))
    argv = [command, "--config", cfg]
    if command == "invariants":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{field} " in err


def _without(key, **over):
    cfg = _sim_cfg(**over)
    del cfg[key]
    return cfg


SCATTER_CFG = _sim_cfg(beta=[0.3, 1.7, 0.9], V=V0, n_samples=20)


@pytest.mark.parametrize("command,cfg,extra,message", [
    ("simulate", _without("Z0"), [], "missing field: Z0"),
    ("nonuniq", _without("Z0"), [], "missing field: Z0"),
    ("simulate", _without("T"), [], "missing field: T"),
    ("scatter", _without("beta", **SCATTER_CFG), [], "missing field: beta"),
    ("scatter", _without("V", **SCATTER_CFG), [], "missing field: V"),
    ("simulate", _sim_cfg(options=[0.05]), [], "options must be an object"),
    ("nonuniq", _sim_cfg(families=[]), [], "families must be a nonempty list"),
    ("invariants", _sim_cfg(families={"family": "reflection"}), [],
     "families must be a nonempty list"),
    ("simulate", _sim_cfg(Z0={"X": X0}), [], "Z0 object form needs fields X and V"),
    ("simulate", _sim_cfg(Z0=4.2), [], "Z0 must be a 12-number list or an object"),
    ("simulate", _sim_cfg(body={"a": 2.0, "b": 1.0}), [], "body must be an object with a 'kind'"),
    ("simulate", _sim_cfg(body="ellipse"), [], "body must be an object with a 'kind'"),
    ("simulate", _sim_cfg(body={"kind": "ellipse", "b": 1.0}), [], "body.a is required"),
    ("simulate", _sim_cfg(body={"kind": "ellipse", "a": 2.0}), [], "body.b is required"),
    ("simulate", None, [], "cannot read config"),
    ("simulate", [X0, V0], [], "must be a JSON object"),
    ("scatter", SCATTER_CFG, ["--V", "0.1,x,0,0,0,0"], "--V must be comma-separated numbers"),
    ("scatter", SCATTER_CFG, ["--V", "0.1,0.2"], "--V needs 6 numbers, got 2"),
], ids=[
    "simulate-no-Z0", "nonuniq-no-Z0", "simulate-no-T", "scatter-no-beta", "scatter-no-V",
    "options-list", "families-empty", "families-object", "Z0-object-no-V", "Z0-number",
    "body-no-kind", "body-string", "ellipse-no-a", "ellipse-no-b", "config-missing",
    "config-list", "V-flag-text", "V-flag-short",
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


def test_overlapping_start_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.json", _sim_cfg(
        Z0=[0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0]))
    assert cli.run(["simulate", "--config", cfg]) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
