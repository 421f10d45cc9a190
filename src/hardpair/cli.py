"""Command-line front end.

Subcommands:
  geometry    contact data and identity residuals for one configuration
  scatter     build a collision frame and scatter one velocity
  simulate    run the event loop, write the trajectory as JSONL
  nonuniq     evolve one datum under several families, report divergence
  invariants  candidate x family residual table as CSV
  verify      run the full verification suite

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 convergence
failure.  Every emitted record carries a short hash of the resolved
configuration (config file plus command-line overrides), and all randomness
is seeded, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings

import numpy as np

from hardpair import _checks
from hardpair.bodies import Body, BodyValidationError, make_disk, make_ellipse
from hardpair.geometry import Beta, ConvergenceError, d_beta, identity_residuals
from hardpair.frames import DegenerateFrameError, build_frame
from hardpair.scattering import (
    GrazingCollisionWarning,
    family_from_config,
    apply_scattering,
    scattering_matrix,
    verify_scattering,
)
from hardpair.dynamics import (
    SimOptions,
    SimulationError,
    State,
    conserved_quantities,
    make_state,
    simulate,
)
from hardpair.kinetic import (
    angular_speed_candidate,
    constant_candidate,
    invariant_residual_table,
    kinetic_energy_candidate,
    momentum_candidate,
    standard_candidates,
    theta_function_candidate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3


class ConfigError(ValueError):
    """A config file is missing a field or holds one of the wrong shape."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on errors; route them to our exit code instead
    def error(self, message):
        raise _UsageError(message)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Beta):
        return [obj.theta, obj.thetabar, obj.psi]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(record: dict, stream=None):
    print(json.dumps(_jsonable(record), sort_keys=True), file=stream or sys.stdout)


def config_hash(resolved: dict) -> str:
    """Short stable digest of the resolved configuration."""
    canon = json.dumps(_jsonable(resolved), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def body_from_config(cfg: dict) -> Body:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("body must be an object with a 'kind' field")
    kind = cfg["kind"]
    if kind == "disk":
        if "r" not in cfg:
            raise ConfigError("body.r is required for kind 'disk'")
        return make_disk(float(cfg["r"]))
    if kind == "ellipse":
        for key in ("a", "b"):
            if key not in cfg:
                raise ConfigError(f"body.{key} is required for kind 'ellipse'")
        return make_ellipse(float(cfg["a"]), float(cfg["b"]))
    raise ConfigError(f"body.kind must be 'disk' or 'ellipse', got {kind!r}")


def state_from_config(z) -> State:
    """Initial datum: a flat list of 12 numbers or {"X": [...], "V": [...]}."""
    if isinstance(z, dict):
        if "X" not in z or "V" not in z:
            raise ConfigError("Z0 object form needs fields X and V")
        return make_state(z["X"], z["V"])
    if isinstance(z, (list, tuple)):
        if len(z) != 12:
            raise ConfigError(f"Z0 flat form needs 12 numbers, got {len(z)}")
        return make_state(z[:6], z[6:])
    raise ConfigError("Z0 must be a 12-number list or an object with X and V")


def options_from_config(cfg: dict) -> SimOptions:
    opts = cfg.get("options", {})
    if not isinstance(opts, dict):
        raise ConfigError("options must be an object")
    allowed = {"dt_scan", "t_tol", "grazing_rtol", "max_events", "sample_dt"}
    unknown = set(opts) - allowed
    if unknown:
        raise ConfigError(f"unknown options fields: {sorted(unknown)}")
    return SimOptions(**opts)


def families_from_config(cfg: dict, default: str = "six"):
    fams = cfg.get("families")
    if fams is None:
        if default == "six":
            return _checks.six_families()
        raise ConfigError("missing field: families")
    if not isinstance(fams, list) or not fams:
        raise ConfigError("families must be a nonempty list of family objects")
    return [family_from_config(f) for f in fams]


def candidates_from_config(cfg: dict, body: Body):
    cands = cfg.get("candidates")
    if cands is None:
        return standard_candidates(body)
    out = []
    for c in cands:
        if not isinstance(c, dict) or "variant" not in c:
            raise ConfigError("each candidate needs a 'variant' field")
        v = c["variant"]
        if v == "constant":
            out.append(constant_candidate())
        elif v in ("momentum_x", "momentum_y"):
            out.append(momentum_candidate(0 if v == "momentum_x" else 1))
        elif v == "kinetic_energy":
            out.append(kinetic_energy_candidate(body.m, body.J))
        elif v == "angular_speed":
            out.append(angular_speed_candidate())
        elif v == "theta_function":
            form = c.get("form", "sin")
            if form not in ("sin", "cos"):
                raise ConfigError("theta_function form must be 'sin' or 'cos'")
            k = int(c.get("k", 1))
            fn = (lambda t, k=k: np.sin(k * t)) if form == "sin" \
                else (lambda t, k=k: np.cos(k * t))
            out.append(theta_function_candidate(fn, f"{form}({k}theta)"))
        else:
            raise ConfigError(f"unknown candidate variant {v!r}")
    return out


def _resolve_seed(cfg: dict, args) -> int:
    seed = cfg.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    cfg["seed"] = int(seed)
    return cfg["seed"]


def _cmd_geometry(args) -> int:
    body_cfg = _load_config(args.body)
    body = body_from_config(body_cfg)
    resolved = {
        "body": body_cfg,
        "theta": args.theta,
        "thetabar": args.thetabar,
        "psi": args.psi,
    }
    beta = Beta(args.theta, args.thetabar, args.psi)
    c = d_beta(body, beta, derivatives=True)
    _emit({
        "record": "geometry",
        "config_hash": config_hash(resolved),
        "body": body_cfg,
        "beta": beta,
        "d": c.d,
        "p": c.p,
        "q": c.q,
        "n": c.n,
        "s1": c.s1,
        "s2": c.s2,
        "dD_dtheta": c.dD_dtheta,
        "dD_dpsi": c.dD_dpsi,
        "identity_residuals": identity_residuals(body, beta, contact=c),
    })
    return EXIT_OK


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{label} must be comma-separated numbers") from exc
    if len(vals) != n:
        raise ConfigError(f"{label} needs {n} numbers, got {len(vals)}")
    return np.array(vals)


def _cmd_scatter(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(cfg, args)
    body = body_from_config(cfg.get("body", {}))
    family = family_from_config(cfg.get("family", {}))
    if "beta" not in cfg:
        raise ConfigError("missing field: beta (three angles)")
    if not isinstance(cfg["beta"], list) or len(cfg["beta"]) != 3:
        raise ConfigError("beta must be a list of three angles")
    beta = Beta(*(float(x) for x in cfg["beta"]))
    if args.V is not None:
        V = _parse_vector(args.V, 6, "--V")
        cfg["V"] = V.tolist()
    elif "V" in cfg:
        V = np.asarray(cfg["V"], dtype=float)
        if V.shape != (6,):
            raise ConfigError("V must hold 6 numbers")
    else:
        raise ConfigError("missing field: V (six velocity components)")

    frame = build_frame(body, beta)
    sm = scattering_matrix(family, frame)
    grazing = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GrazingCollisionWarning)
        V_prime = apply_scattering(sm, V)
        grazing = any(issubclass(w.category, GrazingCollisionWarning) for w in caught)
    report = verify_scattering(
        sm, body.m, body.J, frame.d, beta.psi,
        n_samples=int(cfg.get("n_samples", 1000)), seed=seed)
    if args.quiet:
        return EXIT_OK
    _emit({
        "record": "scatter",
        "config_hash": config_hash(cfg),
        "family": family.label(),
        "beta": beta,
        "d": frame.d,
        "V": V,
        "V_prime": V_prime,
        "proj_pre": sm.normal_projection(V),
        "proj_post": sm.normal_projection(V_prime),
        "grazing": grazing,
        "verify": report,
    })
    return EXIT_OK


def _trajectory_records(body, tr, h: str):
    """All realized states in time order, events flagged and annotated."""
    def base(t, X, V):
        return {
            "config_hash": h,
            "t": t,
            "X": X,
            "V": V,
            "event": False,
            "ledger": conserved_quantities(body, State(X=np.asarray(X, float),
                                                       V=np.asarray(V, float))),
        }

    recs = [base(tr.initial.t, tr.initial.X, tr.initial.V)]
    for Z in tr.samples[1:]:
        recs.append(base(Z.t, Z.X, Z.V))
    for ev in tr.events:
        rec = base(ev.t, ev.X, ev.V_post)
        rec.update(event=True, grazing=ev.grazing, anchor_shift=ev.anchor_shift,
                   jumps=ev.jumps, d=ev.d, s1=ev.s1, s2=ev.s2)
        recs.append(rec)
    recs.append(base(tr.final.t, tr.final.X, tr.final.V))
    # stable order: time first, plain states before the event at equal times
    recs.sort(key=lambda r: (r["t"], r["event"]))
    return recs


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _resolve_seed(cfg, args)
    body = body_from_config(cfg.get("body", {}))
    family = family_from_config(cfg.get("family", {}))
    if "Z0" not in cfg:
        raise ConfigError("missing field: Z0")
    if "T" not in cfg:
        raise ConfigError("missing field: T")
    Z0 = state_from_config(cfg["Z0"])
    opts = options_from_config(cfg)
    h = config_hash(cfg)
    tr = simulate(body, Z0, family, float(cfg["T"]), opts)
    records = _trajectory_records(body, tr, h)
    if args.out:
        with open(args.out, "w") as fh:
            for rec in records:
                _emit(rec, stream=fh)
        if not args.quiet:
            _emit({
                "record": "simulate",
                "config_hash": h,
                "family": tr.family_label,
                "n_events": tr.n_events(),
                "t_final": tr.final.t,
                "min_gap": tr.min_gap,
                "max_ledger_jump": tr.max_ledger_jump(),
                "accumulation_suspected": tr.accumulation_suspected,
                "merged_grazing": tr.merged_grazing,
                "out": args.out,
            })
    else:
        for rec in records:
            _emit(rec)
    return EXIT_OK


def _cmd_nonuniq(args) -> int:
    cfg = _load_config(args.config)
    _resolve_seed(cfg, args)
    body = body_from_config(cfg.get("body", {}))
    families = families_from_config(cfg, default="six")
    if "Z0" not in cfg:
        raise ConfigError("missing field: Z0")
    Z0 = state_from_config(cfg["Z0"])
    T = float(cfg.get("T", 4.0))
    opts = options_from_config(cfg)
    h = config_hash(cfg)
    rep = _checks.nonuniq_report(body, Z0, families, T, opts)
    if not args.quiet:
        rep_out = {"record": "nonuniq", "config_hash": h}
        rep_out.update(rep)
        _emit(rep_out)
    if not rep["degenerate"] and args.out:
        cols = ["x1", "y1", "x2", "y2", "theta", "thetabar",
                "vx1", "vy1", "vx2", "vy2", "omega", "omegabar"]
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["family", "n_events"] + [f"final_{c}" for c in cols]
                       + ["max_ledger_jump_rel", "min_gap", "config_hash"])
            for p in rep["per_family"]:
                w.writerow(
                    [p["family"], p["n_events"]]
                    + [repr(float(v)) for v in p["final_X"]]
                    + [repr(float(v)) for v in p["final_V"]]
                    + [repr(p["max_ledger_jump_rel"]), repr(p["min_gap"]), h])
    return EXIT_OK


def _cmd_invariants(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(cfg, args)
    body = body_from_config(cfg.get("body", {}))
    families = families_from_config(cfg, default="six")
    cands = candidates_from_config(cfg, body)
    n = int(cfg.get("n_samples", 10000))
    h = config_hash(cfg)
    table = invariant_residual_table(body, families, cands, n, seed)
    labels = [f.label() for f in families]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["candidate"] + labels + ["config_hash"])
            for c in cands:
                w.writerow([c.name] + [repr(table[c.name][l]) for l in labels] + [h])
    if not args.quiet:
        _emit({
            "record": "invariants",
            "config_hash": h,
            "n_samples": n,
            "seed": seed,
            "families": labels,
            "table": table,
            "out": args.out,
        })
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = _checks.run_all(quick=args.quick)
    n_pass = sum(r.passed for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"verification: {n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="hardpair", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the summary record")

    p = sub.add_parser("geometry", help="contact data for one configuration")
    p.add_argument("--body", required=True, help="JSON body file")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--thetabar", type=float, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("scatter", parents=[common],
                       help="scatter one velocity at a contact")
    p.add_argument("--config", required=True)
    p.add_argument("--V", default=None,
                   help="override the velocity, six comma-separated numbers")
    p.set_defaults(fn=_cmd_scatter)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the event loop, emit JSONL states")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None,
                   help="JSONL output path (default: stream to stdout)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("nonuniq", parents=[common],
                       help="one datum, several families, divergence report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="nonuniq.csv",
                   help="CSV of per-family final states")
    p.set_defaults(fn=_cmd_nonuniq)

    p = sub.add_parser("invariants", parents=[common],
                       help="candidate x family residual table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="invariants.csv", help="CSV output path")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample counts, for a smoke pass")
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ConfigError, BodyValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, SimulationError, DegenerateFrameError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
