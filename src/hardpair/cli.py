"""Command-line front end.

Subcommands:
  geometry    contact data and identity residuals for one configuration
  scatter     build a collision frame and scatter one velocity
  simulate    run the event loop, write the trajectory as JSONL
  nonuniq     evolve one datum under several families, report divergence
  invariants  candidate x family residual table as CSV
  verify      run the verification suite

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 convergence
failure; a config field the command does not read is a validation failure
too.  Every emitted record carries a short hash of the resolved
configuration (config file plus command-line overrides), and all randomness
is seeded, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys

import numpy as np

from hardpair import _checks
from hardpair.bodies import Body, BodyValidationError, make_ellipse
from hardpair.geometry import Beta, ConvergenceError, d_beta, identity_residuals
from hardpair.frames import DegenerateFrameError, LineField, build_frame
from hardpair.scattering import (
    ScatteringFamily,
    audit_scattering,
    scatter_velocity,
)
from hardpair.dynamics import (
    SimulationError,
    State,
    conserved_quantities,
    divergence_report,
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
    """A config file is missing a field, holds one of the wrong shape, or holds
    one the command does not read."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on errors; route them to our exit code instead
    def error(self, message):
        raise _UsageError(message)


def _json_default(obj):
    """json's hook for the values it cannot encode itself."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(record: dict, stream=None):
    print(json.dumps(record, sort_keys=True, default=_json_default), file=stream or sys.stdout)


def config_hash(resolved: dict) -> str:
    """Short stable digest of the resolved configuration."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"), default=_json_default)
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


def _number(value, name: str) -> float:
    """value as a float; ConfigError naming the field unless it is a JSON number in float range."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ConfigError(f"{name} must be a number in the float range, got {value!r}")
    return float(value)


def _integer(least: int, most: float = math.inf):
    """Reader of a JSON integer in [least, most]."""
    def read(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= most:
            raise ConfigError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
        return value
    return read


def _choice(*options: str):
    """Reader of a string that is one of options."""
    def read(value, name: str) -> str:
        if value not in options:
            raise ConfigError(f"{name} must be one of {', '.join(map(repr, options))}, "
                              f"got {value!r}")
        return value
    return read


def _list(read_item):
    """Reader of a nonempty list, each entry read by read_item."""
    def read(value, name: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        return [read_item(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return read


def _row(*readers):
    """Reader of a list of len(readers) entries, entry i read by readers[i]."""
    def read(value, name: str) -> list:
        if not isinstance(value, list) or len(value) != len(readers):
            raise ConfigError(f"{name} must be a {len(readers)}-entry list, got {value!r}")
        return [read_i(v, f"{name}[{i}]") for i, (read_i, v) in enumerate(zip(readers, value))]
    return read


# k t is a float product: past 2**53 k is not exact, and far past it k t overflows
_WAVE_NUMBER = _integer(-2**53, 2**53)


_REQUIRED = object()


class _Fields:
    """One config object, read field by field in a with block: take() reads
    each field the command uses, and leaving the block refuses every field no
    take() asked for, so a misspelt or unused field exits 2 instead of being
    hashed and ignored."""

    def __init__(self, cfg, path: str = ""):
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path} must be an object, got {cfg!r}")
        self.cfg, self.prefix, self.taken = cfg, f"{path}." if path else "", set()

    def take(self, field: str, read, default=_REQUIRED):
        """read(value, name) of the field, else its default, else a ConfigError."""
        self.taken.add(field)
        if field in self.cfg:
            return read(self.cfg[field], self.prefix + field)
        if default is _REQUIRED:
            raise ConfigError(f"{self.prefix}{field} is required")
        return default

    def __enter__(self) -> "_Fields":
        return self

    def __exit__(self, error, *_) -> None:
        unread = sorted(set(self.cfg) - self.taken)
        if error is None and unread:
            raise ConfigError("; ".join(f"{self.prefix}{field} is not a field this command reads"
                                        for field in unread))


def body_from_config(cfg, path: str = "body") -> Body:
    """{"kind": "ellipse", "a": a, "b": b} or {"kind": "disk", "r": r}, the (r, r) ellipse."""
    with _Fields(cfg, path) as f:
        if f.take("kind", _choice("disk", "ellipse")) == "ellipse":
            return make_ellipse(f.take("a", _number), f.take("b", _number))
        r = f.take("r", _number)
        try:
            return make_ellipse(r, r)
        except BodyValidationError as exc:  # named by r, not by the axes it sets
            raise BodyValidationError(f"disk radius r={r} is refused: {exc}") from None


def line_field_from_config(cfg, path: str = "line_field") -> LineField:
    """{"kind": "constant", "phi": x} or {"kind": "fourier", "coeffs": [[k1, k2, c, s], ...]}."""
    with _Fields(cfg, path) as f:
        if f.take("kind", _choice("constant", "fourier")) == "constant":
            return LineField.constant(f.take("phi", _number))
        return LineField.fourier(f.take(
            "coeffs", _list(_row(_WAVE_NUMBER, _WAVE_NUMBER, _number, _number))))


def family_from_config(cfg, path: str = "family") -> ScatteringFamily:
    """{"family": "reflection"|"epsi"} or {"family": "op", "line_field": {...}}."""
    with _Fields(cfg, path) as f:
        variant = f.take("family", _choice("reflection", "epsi", "op"))
        return ScatteringFamily(
            variant, f.take("line_field", line_field_from_config) if variant == "op" else None)


def state_from_config(z, path: str = "Z0") -> State:
    """Initial datum: a flat list of 12 numbers or {"X": [...], "V": [...]}."""
    if isinstance(z, dict):
        with _Fields(z, path) as f:
            return make_state(*(f.take(key, _row(*6 * [_number])) for key in "XV"))
    if isinstance(z, list):
        z = _row(*12 * [_number])(z, path)
        return make_state(z[:6], z[6:])
    raise ConfigError(f"{path} must be a 12-number list or an object with X and V")


def options_from_config(cfg, path: str = "options") -> float | None:
    """The run's sample_dt, None when unset; simulate checks its domain."""
    with _Fields(cfg, path) as f:
        return f.take("sample_dt", _number, None)


def _theta_function(f: _Fields, body: Body):
    form = f.take("form", _choice("sin", "cos"), "sin")
    k = f.take("k", _WAVE_NUMBER, 1)
    fn = getattr(np, form)
    return theta_function_candidate(lambda t: fn(k * t), f"{form}({k}theta)")


_CANDIDATES = {
    "constant": lambda f, body: constant_candidate(),
    "momentum_x": lambda f, body: momentum_candidate(0),
    "momentum_y": lambda f, body: momentum_candidate(1),
    "kinetic_energy": lambda f, body: kinetic_energy_candidate(body.m, body.J),
    "angular_speed": lambda f, body: angular_speed_candidate(),
    "theta_function": _theta_function,
}


def _candidates(body: Body):
    """Reader of the candidate list, {"variant": name, ...} each."""
    def read_one(cfg, path: str):
        with _Fields(cfg, path) as f:
            return _CANDIDATES[f.take("variant", _choice(*_CANDIDATES))](f, body)
    return _list(read_one)


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


def _take_seed(f: _Fields, args) -> int:
    """The seed, --seed over the config's; written back, so the hash covers it."""
    if args.seed is not None:
        f.cfg["seed"] = args.seed
    f.cfg["seed"] = f.take("seed", _integer(0), 0)
    return f.cfg["seed"]


def _cmd_scatter(args) -> int:
    with _Fields(_load_config(args.config)) as f:
        if args.V is not None:
            # --V replaces the config's V; the reader checks it and the hash covers it
            try:
                f.cfg["V"] = [float(x) for x in args.V.split(",")]
            except ValueError as exc:
                raise ConfigError("--V must be comma-separated numbers") from exc
        seed = _take_seed(f, args)
        body = f.take("body", body_from_config)
        family = f.take("family", family_from_config)
        beta = Beta(*f.take("beta", _row(*3 * [_number])))
        V = np.array(f.take("V", _row(*6 * [_number])))
        # the audit draws all n velocities at once
        n = f.take("n_samples", _integer(1, 10**6), 1000)
    frame = build_frame(body, beta)
    V_prime, proj_pre, proj_post, grazing = scatter_velocity(family, frame, V)
    samples = np.random.default_rng(seed).standard_normal((n, 6))
    _, (report,) = audit_scattering([family], frame, samples)
    if args.quiet:
        return EXIT_OK
    _emit({
        "record": "scatter",
        "config_hash": config_hash(f.cfg),
        "family": family.label(),
        "beta": beta,
        "d": frame.d,
        "V": V,
        "V_prime": V_prime,
        "proj_pre": proj_pre,
        "proj_post": proj_post,
        "grazing": grazing,
        "verify": report,
    })
    return EXIT_OK


def _trajectory_records(body, tr, h: str):
    """Each realized state once, in time order: the trajectory's samples (the
    initial state, the sample_dt grid and the final state) and the events,
    flagged and annotated."""
    def base(t, X, V):
        return {
            "config_hash": h,
            "t": t,
            "X": X,
            "V": V,
            "event": False,
            "ledger": conserved_quantities(body, X, V),
        }

    recs = [base(Z.t, Z.X, Z.V) for Z in tr.samples]
    for ev in tr.events:
        rec = base(ev.t, ev.X, ev.V_post)
        rec.update(event=True, grazing=ev.grazing, anchor_shift=ev.anchor_shift,
                   jumps=ev.jumps, d=ev.d, s1=ev.s1, s2=ev.s2)
        recs.append(rec)
    # stable order: time first, plain states before the event at equal times
    recs.sort(key=lambda r: (r["t"], r["event"]))
    return recs


def _cmd_simulate(args) -> int:
    with _Fields(_load_config(args.config)) as f:
        body = f.take("body", body_from_config)
        family = f.take("family", family_from_config)
        Z0 = f.take("Z0", state_from_config)
        T = f.take("T", _number)
        sample_dt = f.take("options", options_from_config, None)
    h = config_hash(f.cfg)
    tr = simulate(body, Z0, family, T, sample_dt)
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
    with _Fields(_load_config(args.config)) as f:
        body = f.take("body", body_from_config)
        families = f.take("families", _list(family_from_config), _checks.six_families())
        Z0 = f.take("Z0", state_from_config)
        T = f.take("T", _number, 4.0)
    h = config_hash(f.cfg)
    rep = divergence_report(body, Z0, families, T)
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
    with _Fields(_load_config(args.config)) as f:
        seed = _take_seed(f, args)
        body = f.take("body", body_from_config)
        families = f.take("families", _list(family_from_config), _checks.six_families())
        cands = f.take("candidates", _candidates(body), standard_candidates(body))
        n = f.take("n_samples", _integer(1), 10000)
    h = config_hash(f.cfg)
    table = invariant_residual_table(body, families, cands, n, seed)
    labels = [fam.label() for fam in families]
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
    results = _checks.run_all()
    n_pass = sum(r.passed for r, _ in results)
    for r, seconds in results:
        print(r.line())
        # wall time goes to stderr, so stdout is the same on every rerun
        print(f"{r.name}: {seconds:.1f}s", file=sys.stderr)
    print(f"verification: {n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="hardpair", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the summary record")
    # only the commands that draw random numbers take a seed
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")

    p = sub.add_parser("geometry", help="contact data for one configuration")
    p.add_argument("--body", required=True, help="JSON body file")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--thetabar", type=float, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("scatter", parents=[seeded],
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

    p = sub.add_parser("invariants", parents=[seeded],
                       help="candidate x family residual table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="invariants.csv", help="CSV output path")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("verify", help="run the verification suite")
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
    except ValueError as exc:  # ConfigError and BodyValidationError among them
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, SimulationError, DegenerateFrameError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
