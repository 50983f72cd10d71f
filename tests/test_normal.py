"""The numpy normal CDF and quantile against mpmath, and the runtime without scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import predgap as pg
from predgap import normal

from support import random_ensemble

ULP_OF_ONE = 2.0 ** -52


def _exact_cdf(z):
    """0.5 (1 + erf(z)) = 0.5 erfc(-z), to 100 bits, for each float z."""
    with mpmath.workprec(100):
        return np.array([float(mpmath.erfc(-mpmath.mpf(v)) / 2) for v in np.ravel(z)])


def _exact_quantile(u):
    """The standard normal quantile of each u in (0, 1), by Newton steps on
    mpmath's CDF of the smaller tail, started from the kernel's value."""
    out = []
    with mpmath.workprec(130):
        for value, start in zip(np.ravel(u).tolist(), np.ravel(normal.quantile(u)).tolist()):
            p = mpmath.mpf(value)
            upper = value > 0.5
            if upper:
                p = 1 - p
            x = mpmath.mpf(-abs(start))
            for _ in range(3):
                x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
            out.append(float(-x if upper else x))
    return np.array(out)


def _around(points, ulps=4):
    """Each point and the ``ulps`` floats on either side of it."""
    out = [points]
    up = down = points
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _cdf_knots():
    span = normal._CDF_SPAN
    return np.arange(-span - 1, span + 2) / normal._CDF_KNOTS


def test_cdf_is_within_two_ulp_of_one_and_monotone_at_every_knot():
    knots = _cdf_knots()
    z = np.sort(_around(knots))
    tiny = np.abs(z) < 1e-150  # 0's neighbours: the polynomial underflows there
    with np.errstate(all="raise"):
        values = normal.cdf(z[~tiny], 1.0)
    with np.errstate(all="raise", under="ignore"):
        assert normal.cdf(z[tiny], 1.0).tolist() == [0.5] * tiny.sum()
    assert (np.diff(values) >= 0).all()
    # mpmath at each knot, moved to the floats beside it by the density
    # exp(-z^2) / sqrt(pi): the second-order term is below 1e-30.
    near, knot = _around(knots), np.tile(knots, 9)
    order = np.argsort(near)
    exact = np.tile(_exact_cdf(knots), 9) + (near - knot) * np.exp(-knot * knot) / math.sqrt(math.pi)
    assert np.abs(values - exact[order][~tiny]).max() <= 2 * ULP_OF_ONE


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_gaussian_cdf_is_within_two_ulp_of_one_on_a_dense_grid(sigma):
    v = np.linspace(-9.0 * sigma, 9.0 * sigma, 200001)
    g = pg.Gaussian(sigma)
    with np.errstate(all="raise"):
        values = g.cdf_below(v)
    assert (np.diff(values) >= 0).all()
    assert ((values >= 0.0) & (values <= 1.0)).all()
    exact = _exact_cdf(np.clip(v[::25] / (sigma * math.sqrt(2.0)), -6.0, 6.0))
    assert np.abs(values[::25] - exact).max() <= 2 * ULP_OF_ONE


def test_cdf_exact_values():
    z = np.array([0.0, -0.0, -6.0, 6.0, -np.inf, np.inf, np.nextafter(-6.0, 0.0),
                  np.nextafter(6.0, 0.0), -1e300, 1e300])
    assert normal.cdf(z, 1.0).tolist() == [0.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    # 0.5 (1 + erf(z)) rounds to 0.0 from about z = -5.92 down; so does the table
    assert normal.cdf(np.array([-5.93, -5.99]), 1.0).tolist() == [0.0, 0.0]


def test_cdf_of_an_array_is_the_cdf_of_each_element():
    z = np.random.default_rng(4).normal(0.0, 3.0, size=(3, 50))
    values = normal.cdf(z, 1.7)
    assert values.shape == z.shape
    assert values.tolist() == [[float(normal.cdf(v, 1.7)) for v in row] for row in z.tolist()]


def _quantile_points():
    rng = np.random.default_rng(7)
    r_knots = np.arange(0, math.ceil(normal._R_CENTRAL * normal._R_KNOTS) + 1, 41) / normal._R_KNOTS
    return np.concatenate([
        rng.uniform(size=2000),
        10.0 ** rng.uniform(-307, -1, 400),
        1.0 - 10.0 ** rng.uniform(-16, -1, 200),
        0.5 + np.sqrt(r_knots), 0.5 - np.sqrt(r_knots[1:]),
        [5e-324, 1e-300, 2.2250738585072014e-308, 0.05, 0.95, 0.0749, 0.5 + 1e-17, 0.5 - 2**-40],
        # where sqrt(-log p) is exactly 5, the end of the tail table
        _around(np.array([math.exp(-25.0), 1.0 - math.exp(-25.0)]), ulps=2),
    ])


def test_quantile_is_within_eight_ulp_of_mpmath():
    u = _quantile_points()
    u = u[(u > 0.0) & (u < 1.0) & (u != 0.5)]
    with np.errstate(all="raise"):
        x = normal.quantile(u)
    exact = _exact_quantile(u)
    assert (np.abs(x - exact) <= 8 * np.spacing(np.abs(exact))).all()


def test_quantile_exact_values_and_symmetry():
    with np.errstate(all="raise"):
        x = normal.quantile(np.array([0.5, 0.0, 1.0, -0.1, 1.5, np.nan, -np.inf, np.inf]))
    assert x[:3].tolist() == [0.0, -np.inf, np.inf]
    assert np.signbit(x[0]) == False  # noqa: E712
    assert np.isnan(x[3:]).all()
    u = np.concatenate([np.random.default_rng(9).uniform(0.5, 1.0, 5000), [0.5, 0.95, 0.975]])
    assert (normal.quantile(1.0 - u) == -normal.quantile(u)).all()
    assert float(normal.quantile(0.975)) == pytest.approx(1.959963984540054, rel=1e-15)


def test_quantile_of_an_array_is_the_quantile_of_each_element():
    # the chunked passes and the tail branch see each value alone
    u = np.random.default_rng(11).uniform(size=(2, 3 * normal._CHUNK // 2 + 7))
    x = normal.quantile(u)
    assert x.shape == u.shape
    assert x.tolist() == [[float(normal.quantile(v)) for v in row] for row in u.tolist()]


def test_gaussian_inverse_cdf_is_sigma_times_the_quantile():
    u = np.linspace(0.001, 0.999, 101)
    assert pg.Gaussian(0.3).inv_cdf_n(u).tolist() == (0.3 * normal.quantile(u)).tolist()


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from predgap.cli import main
common = ["--model", sys.argv[1], "--data", sys.argv[2], "--point-index", "0",
          "--features", "0,1", "--sigma", "0.5"]
assert main(["pg2", *common, "--method", "exact"]) == 0
assert main(["pg2", *common, "--method", "qmc", "--iterations", "3000"]) == 0
"""


def test_the_cli_runs_without_scipy(tmp_path):
    model = tmp_path / "model.json"
    pg.save_ensemble(random_ensemble(np.random.default_rng(2), 3, num_trees=3, max_depth=3), model)
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n0.1,-0.2,0.3\n")
    src = str(Path(pg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(model), str(data)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2
