"""The benchmark's three workloads: seeded input generators, calls and checks.

Each workload imports the program afresh in `setup`, builds its bodies and
families there, and then runs `call` on inputs that `rounds` generates from
the seed alone.  The program never helps to make its own inputs.  `check`
hands the program's outputs to the independent checks in checks.py and
returns a list of problems (empty when the output passed).
"""

from __future__ import annotations

import importlib
import math
import sys
import types
from pathlib import Path

import numpy as np

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("_kernel", "bodies", "geometry", "frames", "scattering", "dynamics", "kinetic")
# Seed of the warm-up input, kept apart from the measured inputs so that
# set-up time does not depend on the run's seed.
WARMUP_SEED = 12345


def import_program() -> types.SimpleNamespace:
    """Import hardpair afresh from the checkout's src/ and return its modules."""
    if not (SRC / "hardpair" / "__init__.py").is_file():
        raise FileNotFoundError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hardpair" or m.startswith("hardpair.")]:
        del sys.modules[name]
    hp = types.SimpleNamespace(hardpair=importlib.import_module("hardpair"))
    for name in MODULES:
        setattr(hp, name, importlib.import_module(f"hardpair.{name}"))
    return hp


def six_families(hp):
    """reflection, epsi and op at phi = 0, pi/6, pi/4, pi/3."""
    fam = hp.scattering.ScatteringFamily
    return [fam.reflection(), fam.epsi()] + [
        fam.orientation_preserving(hp.frames.LineField.constant(phi))
        for phi in (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
    ]


class Collide:
    """Colliding data on the (2,1) ellipse pair, each run under all six families.

    A datum starts with centres more than 2a apart and aims the relative
    velocity so that, in free flight, the centre distance falls to 2b at
    the time t_2b, which is the datum's horizon T.  The distance of closest
    approach lies in [2b, 2a] for every pose, so the gap is positive at the
    start and non-positive at T: the pair must collide before the horizon
    whatever the orientations and spins.

    Ending the flight at t_2b leaves out most of the flight after the first
    collision.  Re-contacts there can graze for less than one scan stride of
    the program's event search, which then misses them on some seeds.
    """

    name = "collide"
    A, B = 2.0, 1.0
    REVERSE_EVERY = 8
    # family pairs whose maps differ by a rank-one matrix (reflection or
    # epsi against an orientation-preserving family): see checks.check_distinct
    MAY_MEET = tuple((i, k) for i in (0, 1) for k in range(2, 6))

    def setup(self, hp):
        self.hp = hp
        self.body = hp.bodies.make_ellipse(self.A, self.B)
        self.families = six_families(hp)
        self.count = 0

    @classmethod
    def datum(cls, rng) -> tuple[np.ndarray, np.ndarray, float]:
        """(X0, V0, T) of one colliding datum."""
        psi, th, thb = rng.uniform(0.0, 2.0 * math.pi, 3)
        R = 2.0 * cls.A + rng.uniform(0.3, 1.0)
        aim = rng.uniform(-0.8, 0.8) * 2.0 * cls.B  # impact parameter
        delta = math.asin(aim / R)
        # relative velocity along -e(psi) turned by delta; it reaches centre
        # distance 2b after travelling `along`, which takes t_2b
        along = R * math.cos(delta) - math.sqrt((2.0 * cls.B) ** 2 - aim * aim)
        t_2b = rng.uniform(1.5, 2.5)
        u = -(along / t_2b) * np.array([math.cos(psi + delta), math.sin(psi + delta)])
        v = rng.normal(0.0, 0.15, 2)
        om = rng.uniform(-0.5, 0.5, 2)
        X0 = np.array([0.0, 0.0, R * math.cos(psi), R * math.sin(psi), th, thb])
        V0 = np.array([v[0], v[1], v[0] + u[0], v[1] + u[1], om[0], om[1]])
        return X0, V0, t_2b

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            yield [self.datum(rng)]

    def call(self, inp):
        X0, V0, T = inp
        Z0 = self.hp.dynamics.make_state(X0, V0)
        return [self.hp.dynamics.simulate(self.body, Z0, fam, T) for fam in self.families]

    def work(self, out) -> int:
        return sum(tr.n_events() for tr in out)

    def check(self, inp, out) -> list[str]:
        X0, V0, T = inp
        a, b = self.A, self.B
        problems = []
        for fam, tr in zip(self.families, out):
            if tr.n_events() == 0:
                problems.append(f"{fam.label()}: no collision on a colliding datum")
            events = [(ev.t, ev.X, ev.V_pre, ev.V_post) for ev in tr.events]
            for ev in tr.events:
                problems += checks.check_conservation(a, b, ev.X, ev.V_pre, ev.V_post)
            problems += checks.check_replay(a, b, X0, V0, T, events)
        if all(tr.n_events() for tr in out):
            problems += checks.check_distinct(
                [tr.events[0].V_post for tr in out], V0, self.MAY_MEET)
        # time reversal on every REVERSE_EVERY-th datum, cycling the families
        k, self.count = self.count, self.count + 1
        if k % self.REVERSE_EVERY == 0:
            j = (k // self.REVERSE_EVERY) % len(out)
            end = out[j].final
            turned = self.hp.dynamics.make_state(end.X, -end.V)
            back = self.hp.dynamics.simulate(self.body, turned, self.families[j], T)
            problems += checks.check_reversal(X0, back.final.X)
        return problems


class Invariants:
    """Blocks of samples through kinetic.invariant_residual_table.

    One call covers the six families and the standard candidate battery on
    the (2,1) ellipse for BLOCK samples drawn with the call's own seed.
    """

    name = "invariants"
    A, B = 2.0, 1.0
    BLOCK = 24
    KNOWN = ("1", "v_x", "v_y", "m|v|^2+Jw^2", "sin(theta)")
    CONTRAST = "w"

    def setup(self, hp):
        self.hp = hp
        self.body = hp.bodies.make_ellipse(self.A, self.B)
        self.families = six_families(hp)
        self.labels = [fam.label() for fam in self.families]
        self.cands = hp.kinetic.standard_candidates(self.body)

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            yield [int(rng.integers(2**62))]

    def call(self, block_seed):
        return self.hp.kinetic.invariant_residual_table(
            self.body, self.families, self.cands, self.BLOCK, block_seed)

    def work(self, out) -> int:
        return self.BLOCK

    def check(self, inp, out) -> list[str]:
        return checks.check_invariant_table(out, self.labels, self.KNOWN, self.CONTRAST)


class Contact:
    """Cold contact solves with derivatives over a spread of aspect ratios.

    One round is one random pose for each aspect ratio in RATIOS, so every
    run sees the same mix of shapes.
    """

    name = "contact"
    RATIOS = (1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)
    B = 1.0

    def setup(self, hp):
        self.hp = hp
        self.bodies = {r: hp.bodies.make_ellipse(r * self.B, self.B) for r in self.RATIOS}

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        while True:
            yield [(r, rng.uniform(0.0, 2.0 * math.pi, 3)) for r in self.RATIOS]

    def call(self, inp):
        ratio, angles = inp
        beta = self.hp.geometry.Beta(*angles)
        return beta, self.hp.geometry.d_beta(self.bodies[ratio], beta, derivatives=True)

    def work(self, out) -> int:
        return 1

    def check(self, inp, out) -> list[str]:
        ratio, _ = inp
        beta, c = out
        return checks.check_contact(
            ratio * self.B, self.B, beta.theta, beta.thetabar, beta.psi,
            c.d, c.p, c.q, c.n, c.dD_dtheta, c.dD_dpsi)


WORKLOADS = {w.name: w for w in (Collide, Invariants, Contact)}
