"""Seeded problem instances with reference optima computed without the solver.

Each family draws its parameters from a numpy Generator and returns an
Instance: the problem dict the CLI will read from a JSON file, the optimal
value f* and a minimizer x*.  The references use closed forms or a
one-dimensional polar minimization, never the barrier code or the grid
oracle, so they can judge both.  Every reference point is checked to lie on
the boundary of the feasible set (active constraint within 1e-9, none
violated by more), with the expressions evaluated by Python's own parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_G_TOL = 1e-9

CASSINI_G = "4 - ((x1 + 1)^2 + x2^2)*((x1 - 1)^2 + x2^2)"
CASSINI3_G = "4 - ((x1 + 1)^2 + x2^2 + x3^2)*((x1 - 1)^2 + x2^2 + x3^2)"


@dataclass(frozen=True)
class Instance:
    family: str
    index: int
    data: dict
    f_star: float
    x_star: tuple[float, ...]

    @property
    def name(self) -> str:
        return f"{self.family}-{self.index:03d}"


def _num(v: float) -> str:
    """A float as an expression literal; np.float64 repr would not parse."""
    return repr(float(v))


def _linear(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        c = float(c)
        sign = "-" if c < 0 else "+"
        terms.append((sign, f"{_num(abs(c))}*x{i + 1}"))
    first_sign, first = terms[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, term in terms[1:]:
        text += f" {sign} {term}"
    return text


def _shifted_square(i: int, a: float) -> str:
    sign = "-" if a >= 0 else "+"
    return f"(x{i} {sign} {_num(abs(a))})^2"


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def cassini_radius(phi):
    """Polar form of the Cassini oval |x - (-1,0)| |x - (1,0)| = 2."""
    c2 = np.cos(2.0 * phi)
    return np.sqrt(c2 + np.sqrt(c2 * c2 + 3.0))


def cassini_min(a: float, b: float) -> tuple[float, float]:
    """Minimize a*x + b*y over the Cassini region; returns (f*, phi*).

    The minimum of a linear function over a compact convex set lies on the
    boundary, so it is a one-dimensional problem in the polar angle: a dense
    scan brackets the minimizer and golden-section search refines it.
    """

    def f(phi):
        r = cassini_radius(phi)
        return r * (a * np.cos(phi) + b * np.sin(phi))

    grid = np.linspace(0.0, 2.0 * math.pi, 7201)
    k = int(np.argmin(f(grid)))
    lo, hi = grid[k] - grid[1], grid[k] + grid[1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = float(f(c)), float(f(d))
    for _ in range(200):
        if hi - lo < 1e-15:
            break
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = float(f(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = float(f(d))
    phi = 0.5 * (lo + hi)
    return float(f(phi)), phi


def _cassini(rng):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c = (math.cos(theta), math.sin(theta))
    f_star, phi = cassini_min(*c)
    r = float(cassini_radius(phi))
    data = {
        "objective": _linear(c),
        "constraints": [CASSINI_G],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "interior_point": [0.0, 0.0],
    }
    return data, f_star, (r * math.cos(phi), r * math.sin(phi))


def _hyperbola(rng):
    c1, c2 = (float(v) for v in rng.uniform(0.5, 2.0, 2))
    data = {
        "objective": _linear((c1, c2)),
        "constraints": ["x1*x2 - 1", "x1", "x2", "10 - x1", "10 - x2"],
        "box": [[0.01, 10.0], [0.01, 10.0]],
        "interior_point": [2.0, 2.0],
    }
    return data, 2.0 * math.sqrt(c1 * c2), (math.sqrt(c2 / c1), math.sqrt(c1 / c2))


def _epsbox(rng):
    eps = float(10.0 ** rng.uniform(-4.0, -2.0))
    c1, c2 = (float(v) for v in rng.uniform(0.5, 2.0, 2))
    data = {
        "objective": f"{_num(c1)}*x1 - {_num(c2)}*x2",
        "constraints": ["x1/(epsilon + x2^2)", "a - x1", "x2", "b - x2"],
        "box": [[0.0, 1.0], [0.0, 1.0]],
        "interior_point": [0.5, 0.5],
        "params": {"epsilon": eps, "a": 1.0, "b": 1.0},
    }
    return data, -c2, (0.0, 1.0)


def _disk_target(rng):
    radius = rng.uniform(1.2, 2.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return float(radius), (float(radius * math.cos(theta)), float(radius * math.sin(theta)))


def _disk_like(rng, constraint):
    radius, (a1, a2) = _disk_target(rng)
    data = {
        "objective": f"{_shifted_square(1, a1)} + {_shifted_square(2, a2)}",
        "constraints": [constraint],
        "box": [[-1.5, 1.5], [-1.5, 1.5]],
        "interior_point": [0.0, 0.0],
    }
    return data, (radius - 1.0) ** 2, (a1 / radius, a2 / radius)


def _disk(rng):
    return _disk_like(rng, "1 - x1^2 - x2^2")


def _degenerate_disk(rng):
    return _disk_like(rng, "(1 - x1^2 - x2^2)^3")


def _cassini3(rng):
    c = _unit(rng, 3)
    rho = math.hypot(c[1], c[2])
    f_star, phi = cassini_min(float(c[0]), rho)
    r = float(cassini_radius(phi))
    u = (c[1] / rho, c[2] / rho)
    x_star = (r * math.cos(phi), r * math.sin(phi) * u[0], r * math.sin(phi) * u[1])
    data = {
        "objective": _linear(c),
        "constraints": [CASSINI3_G],
        "box": [[-2.0, 2.0]] * 3,
    }
    return data, f_star, tuple(float(v) for v in x_star)


def _ball3(rng):
    radius = float(rng.uniform(0.6, 1.6))
    c = _unit(rng, 3)
    data = {
        "objective": _linear(c),
        "constraints": [f"{_num(radius * radius)} - x1^2 - x2^2 - x3^2"],
        "box": [[-2.0, 2.0]] * 3,
    }
    return data, -radius, tuple(float(-radius * v) for v in c)


FAMILIES = {
    "cassini": _cassini,
    "hyperbola": _hyperbola,
    "epsbox": _epsbox,
    "disk": _disk,
    "degenerate-disk": _degenerate_disk,
    "cassini3": _cassini3,
    "ball3": _ball3,
}


def py_eval(text: str, x, params: dict | None = None) -> float:
    """Evaluate an expression string with Python's parser, independent of expr."""
    env = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
    env.update({k: float(v) for k, v in (params or {}).items()})
    env.update(ln=math.log, exp=math.exp)
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, env))


def check_reference(inst: Instance) -> None:
    """Raise ValueError unless x* is feasible, on the boundary, and f(x*) = f*."""
    params = inst.data.get("params")
    gvals = [py_eval(g, inst.x_star, params) for g in inst.data["constraints"]]
    if min(gvals) < -REFERENCE_G_TOL or min(abs(g) for g in gvals) > REFERENCE_G_TOL:
        raise ValueError(f"{inst.name}: reference point off the boundary, g = {gvals}")
    f_at = py_eval(inst.data["objective"], inst.x_star, params)
    if abs(f_at - inst.f_star) > 1e-12 * max(1.0, abs(inst.f_star)):
        raise ValueError(f"{inst.name}: f(x*) = {f_at} but f* = {inst.f_star}")


def generate(seed: int, families: list[str], per_family: int) -> list[Instance]:
    """Instances interleaved family by family: f0[0], f1[0], ..., f0[1], ...

    Each family draws from its own stream, keyed by the seed and the family
    name, so adding a family or an instance leaves the others unchanged.
    """
    streams = {}
    for fam in families:
        key = [seed] + [ord(ch) for ch in fam]
        streams[fam] = np.random.default_rng(np.random.SeedSequence(key))
    out = []
    for k in range(per_family):
        for fam in families:
            body, f_star, x_star = FAMILIES[fam](streams[fam])
            nvars = len(body["box"])
            data = {"name": f"{fam}-{k:03d}", "nvars": nvars, **body}
            inst = Instance(fam, k, data, float(f_star), tuple(float(v) for v in x_star))
            check_reference(inst)
            out.append(inst)
    return out


def write(instances: list[Instance], directory: Path) -> list[Path]:
    """Write one problem JSON file per instance; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in instances:
        path = directory / f"{inst.name}.json"
        path.write_text(json.dumps(inst.data, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
