"""Distribution CDFs, inverses, sampling, and the Halton sequence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

import predgap as pg
from predgap.errors import ValidationError
from predgap.perturb import _PRIMES

from support import PHI_1, canonical_ensemble, halton_point


def test_gaussian_cdf_symmetry_and_limits():
    g = pg.Gaussian(1.0)
    assert g.cdf_below(0.0) == 0.5
    assert g.cdf_below(float("-inf")) == 0.0
    assert g.cdf_below(float("inf")) == 1.0


def test_gaussian_cdf_at_one_matches_density_quadrature():
    g = pg.Gaussian(1.0)
    assert g.cdf_below(1.0) == pytest.approx(PHI_1, abs=1e-12)
    # independent check: integrate the density numerically
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    integral, _ = quad(density, -10.0, 1.0)
    assert g.cdf_below(1.0) == pytest.approx(integral, abs=1e-10)


def test_discrete_cdf_point_mass():
    d = pg.Discrete(points=((-1.0, 0.5), (1.0, 0.5)))
    assert d.cdf_below(0.0) == 0.5
    assert d.cdf_below(-1.0) == 0.0    # left limit excludes the atom
    assert d.cdf_below(float("inf")) == 1.0
    assert d.cdf_below(float("-inf")) == 0.0


def test_interval_prob_half_open():
    d = pg.Discrete(points=((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
    assert d.interval_prob(-1.0, 0.0) == 0.25       # atom at the closed end
    assert d.interval_prob(-1.0, 2.0) == 0.75       # open end excludes 2.0
    assert d.interval_prob(float("-inf"), float("inf")) == 1.0
    assert d.interval_prob(3.0, 1.0) == 0.0


# Interval ends covering +-inf, the uniform support ends +-1 and the discrete
# atoms -1, 0 and 2; all pairs of them give reversed and empty intervals too.
_ENDS = [-np.inf, -2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 2.0, np.inf]


@pytest.mark.parametrize(
    "dist",
    [pg.Gaussian(0.7), pg.Uniform(1.0), pg.Discrete(points=((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))],
    ids=["gaussian", "uniform", "discrete"],
)
def test_array_calls_match_scalar_calls(dist):
    lo, hi = np.meshgrid(_ENDS, _ENDS, indexing="ij")
    probs = dist.interval_prob(lo, hi)
    assert probs.shape == lo.shape
    for (i, j), p in np.ndenumerate(probs):
        assert p == dist.interval_prob(float(lo[i, j]), float(hi[i, j]))
    values = dist.cdf_below(np.array(_ENDS))
    for v, c in zip(_ENDS, values):
        assert c == dist.cdf_below(v)


@pytest.mark.parametrize(
    "dist",
    [pg.Gaussian(0.7), pg.Uniform(1.0), pg.Discrete(points=((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))],
    ids=["gaussian", "uniform", "discrete"],
)
def test_interval_prob_is_one_cdf_call_with_the_two_call_values(dist, monkeypatch):
    lo, hi = np.meshgrid(_ENDS, _ENDS, indexing="ij")
    two_calls = np.where(hi > lo, dist.cdf_below(hi) - dist.cdf_below(lo), 0.0)
    calls = []
    real = type(dist).cdf_below
    monkeypatch.setattr(type(dist), "cdf_below", lambda self, v: calls.append(1) or real(self, v))
    assert dist.interval_prob(lo, hi).tolist() == two_calls.tolist()
    assert len(calls) == 1
    # ends of different shapes broadcast
    assert dist.interval_prob(lo[:, 0], 0.3).tolist() == two_calls[:, 5].tolist()


def test_discrete_validation():
    with pytest.raises(ValidationError):
        pg.Discrete(points=((0.0, 0.5), (0.0, 0.5)))       # not increasing
    with pytest.raises(ValidationError):
        pg.Discrete(points=((0.0, 0.7), (1.0, 0.2)))       # mass != 1
    with pytest.raises(ValidationError):
        pg.Discrete(points=((0.0, float("nan")),))         # NaN mass
    with pytest.raises(ValidationError):
        pg.Gaussian(0.0)
    with pytest.raises(ValidationError):
        pg.Uniform(-1.0)


@pytest.mark.parametrize(
    "make, scale",
    [(pg.Gaussian, 1.5e308), (pg.Gaussian, 1e-320), (pg.Uniform, 1e308), (pg.Uniform, 1e-320)],
)
def test_scales_whose_cdf_would_overflow_are_rejected(make, scale):
    # sigma*sqrt(2) or 2*half_width overflows, or its reciprocal does: the
    # CDF would read nan or 0.5 at every end, or overflow in its division.
    with pytest.raises(ValidationError, match="reciprocal finite"):
        make(scale)


@pytest.mark.parametrize("dist", [pg.Gaussian(1e308), pg.Gaussian(1e-300), pg.Uniform(8e307)])
def test_extreme_accepted_scales_give_a_cdf(dist):
    ends = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values = dist.cdf_below(ends)
    assert values[0] == 0.0 and values[2] == 0.5 and values[-1] == 1.0
    assert (np.diff(values) >= 0).all()


def test_gaussian_cdf_beyond_the_quotient_range_is_silent():
    # v / (sigma*sqrt(2)) overflows to +-inf, where erf is exactly +-1
    assert pg.Gaussian(1e-300).cdf_below(np.array([-1e10, 1e10])).tolist() == [0.0, 1.0]


def _ends_around(bound):
    """+-inf, +-1e308, +-5e-324, 0 and the floats next to +-bound."""
    ends = [np.inf, 1e308, 5e-324, np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)]
    return np.array([0.0, *ends, *(-e for e in ends)])


@pytest.mark.parametrize("sigma", [1e-300, 0.3, 1.0, 1e300])
def test_gaussian_cdf_is_the_unclamped_formula_without_its_warning(sigma):
    # cdf_below clamps v where erf is already +-1, at 6 sigma sqrt(2): every
    # value keeps its bits.  An end of +-5e-324 underflows in the divide in
    # either form (numpy ignores underflow by default); no other FP error
    # is raised.
    ends = _ends_around(6.0 * sigma * math.sqrt(2.0))
    with np.errstate(over="ignore", under="ignore"):
        unclamped = 0.5 * (1.0 + erf(np.divide(ends, sigma * math.sqrt(2.0))))
    dist = pg.Gaussian(sigma)
    with np.errstate(all="raise", under="ignore"):
        assert dist.cdf_below(ends).tolist() == unclamped.tolist()
    tiny = np.abs(ends) == 5e-324
    with np.errstate(all="raise"):
        assert dist.cdf_below(ends[~tiny]).tolist() == unclamped[~tiny].tolist()


@pytest.mark.parametrize("half_width", [1e-300, 0.5, 8e307])
def test_uniform_cdf_is_the_unclamped_formula_without_its_warning(half_width):
    # v is clamped to [-w, w] before the divide: (-w + w) / 2w = 0 and
    # (w + w) / 2w = 1 exactly, the values the old outer clip gave.  For
    # w = 1e-300 the old quotient overflowed at v = 1e308.
    w = half_width
    ends = _ends_around(w)
    with np.errstate(over="ignore"):
        unclamped = np.clip(np.add(ends, w) / (2.0 * w), 0.0, 1.0)
    with np.errstate(all="raise"):
        assert pg.Uniform(w).cdf_below(ends).tolist() == unclamped.tolist()


def test_sampling_degenerate_discrete():
    d = pg.Discrete(points=((0.0, 1.0),))
    rng = np.random.default_rng(0)
    assert d.sample_n(rng, np.empty(1)).tolist() == [0.0]
    assert (d.sample_n(rng, np.empty(100)) == 0.0).all()


def test_gaussian_sampling_moments():
    g = pg.Gaussian(1.0)
    rng = np.random.default_rng(123)
    draws = g.sample_n(rng, np.empty(1_000_000))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_uniform_support():
    u = pg.Uniform(1.0)
    rng = np.random.default_rng(5)
    draws = u.sample_n(rng, np.empty(10_000))
    assert draws.min() >= -1.0 and draws.max() <= 1.0


def test_sampling_deterministic_given_seed():
    g = pg.Gaussian(0.5)
    a = g.sample_n(np.random.default_rng(42), np.empty(100))
    b = g.sample_n(np.random.default_rng(42), np.empty(100))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [1e-300, 0.3, 1e300])
def test_sampling_fills_the_numpy_streams_in_place(scale):
    # each sample_n writes into the row it is given and returns it, with the
    # bits of numpy's one-call samplers and of the searchsorted formula over
    # rng.random (an exact zero draw could differ in sign; these seeds draw none)
    n = 1001
    discrete = pg.Discrete(points=((-scale, 0.25), (0.0, 0.5), (2.0 * scale, 0.25)))
    for seed in range(4):
        def rng():
            return np.random.default_rng(seed)

        u = rng().random(n)
        expected = {
            pg.Gaussian(scale): rng().normal(0.0, scale, n),
            pg.Uniform(scale): rng().uniform(-scale, scale, n),
            discrete: discrete._offsets[np.searchsorted(discrete._cum, u, "right").clip(max=2)],
        }
        for dist, values in expected.items():
            row = np.empty((2, n))[1]
            assert dist.sample_n(rng(), row) is row
            assert row.tobytes() == values.tobytes()


def test_mc_noise_beyond_the_float_range_names_its_feature():
    # sigma * z overflows in place for |z| > 1.8; the sampler raises no warning
    spec = pg.PerturbationSpec(per_feature=(pg.Gaussian(0.3), pg.Gaussian(1e308)))
    ens = canonical_ensemble(num_features=2)
    for seed in range(3):
        with pytest.raises(pg.NumericDomainError, match="perturbed feature 1 "):
            pg.pg2_sampled(ens, [0.0, 0.0], [0, 1], spec, pg.EstimatorConfig("mc", 500, seed))


# ---------------------------------------------------------------------------
# inverse CDF
# ---------------------------------------------------------------------------

def test_inverse_cdf_values():
    assert pg.Gaussian(1.0).inv_cdf_n(np.array([0.5])).tolist() == [0.0]
    assert pg.Gaussian(2.0).inv_cdf_n(np.array([PHI_1]))[0] == pytest.approx(2.0, abs=1e-6)
    assert pg.Uniform(1.0).inv_cdf_n(np.array([0.75]))[0] == pytest.approx(0.5, abs=1e-12)


def test_discrete_generalized_inverse():
    d = pg.Discrete(points=((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
    # 0.25 maps to -1.0: the smallest offset whose CDF reaches u
    u = np.array([0.1, 0.25, 0.26, 0.75, 0.99])
    assert d.inv_cdf_n(u).tolist() == [-1.0, -1.0, 0.0, 0.0, 2.0]


@pytest.mark.parametrize("dist", [pg.Gaussian(1.0), pg.Gaussian(0.2), pg.Uniform(2.0)])
def test_continuous_round_trip(dist):
    grid = np.concatenate(([1e-6], np.linspace(0.001, 0.999, 999), [1.0 - 1e-6]))
    assert dist.cdf_below(dist.inv_cdf_n(grid)) == pytest.approx(grid, abs=1e-8)


@pytest.mark.parametrize(
    "dist",
    [pg.Gaussian(1.0), pg.Uniform(1.5), pg.Discrete(points=((-1.0, 0.3), (0.5, 0.7)))],
)
def test_cdf_monotone_on_dense_grid(dist):
    # The grid also holds +-inf, the discrete atoms and the uniform support
    # ends, each twice (ties): the exact engine's min/max identity needs
    # cdf_below to be non-decreasing on every such array.
    special = [-np.inf, np.inf, -1.5, 1.5, -1.0, 0.5]
    grid = np.sort(np.concatenate((np.linspace(-6.0, 6.0, 10_000), special, special)))
    values = dist.cdf_below(grid)
    assert (np.diff(values) >= 0).all()
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert values[0] == 0.0 and values[-1] == 1.0


# ---------------------------------------------------------------------------
# Halton
# ---------------------------------------------------------------------------

def test_halton_first_points():
    assert halton_point(1, 2) == (0.5, pytest.approx(1 / 3))
    assert halton_point(2, 1) == (0.25,)
    assert halton_point(3, 1) == (0.75,)


def test_halton_capacity_error():
    with pytest.raises(ValidationError):
        pg.halton_matrix(1, len(_PRIMES) + 1)
    with pytest.raises(ValidationError):
        pg.halton_matrix(0, 1)
    for count, dim in ((2.5, 1), (True, 1), (3, 2.0), (3, False)):
        with pytest.raises(ValidationError, match="must be an integer"):
            pg.halton_matrix(count, dim)
    assert pg.halton_matrix(np.int64(3), np.int64(2)).shape == (3, 2)


def test_halton_matrix_matches_points():
    M = pg.halton_matrix(20, 3)
    for i in range(20):
        assert tuple(M[i]) == pytest.approx(halton_point(i + 1, 3))


def test_halton_matrix_in_any_call_order():
    # grow, shrink, raise dim, lower dim, then grow past every earlier count
    calls = ((5, 2), (40, 3), (12, 1), (40, 6), (3, 4), (90, 2), (1, 7), (100, 3))
    for count, dim in calls:
        M = pg.halton_matrix(count, dim)
        assert M.shape == (count, dim) and M.flags.writeable
        assert [tuple(row) for row in M.tolist()] == [
            halton_point(i, dim) for i in range(1, count + 1)
        ]
        M[:] = -1.0  # a caller's writes stay in its own array


def test_halton_matrix_at_level_boundaries():
    # count b^k - 1 ends a level, b^k fills it and b^k + 1 starts the next.
    # The 256th coordinate uses the prime 1619, and 1620 points pass b^2 for
    # every base up to 37.
    n = 1620
    assert _PRIMES[255] == 1619
    assert _PRIMES == tuple(
        c for c in range(2, n) if all(c % k for k in range(2, math.isqrt(c) + 1))
    )
    oracle = np.array([halton_point(i, 256) for i in range(1, n + 1)])
    counts = {n, 1618, 1619} | {
        c for b in (2, 3, 5) for k in range(1, 11) if b**k < n for c in (b**k - 1, b**k, b**k + 1)
    }
    for count in sorted(counts):
        assert np.array_equal(pg.halton_matrix(count, 256), oracle[:count]), count


@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_halton_base2_partitions_unit_interval(k):
    # the first 2^k van der Corput points hit each cell of width 2^-k once
    n = 2 ** k
    points = pg.halton_matrix(n, 1)[:, 0]
    cells = np.floor(points * n).astype(int)
    assert sorted(cells) == list(range(n))


def test_independent_coordinates_have_near_zero_covariance():
    spec = pg.PerturbationSpec.gaussian(1.0, 3)
    from predgap.sampling import EstimatorConfig, _draws

    n = 200_000
    X = _draws(np.zeros(3), (0, 1, 2), spec.per_feature, EstimatorConfig("mc", n, seed=9))[:, :n].T
    cov = np.cov(X.T)
    off_diagonal = cov[~np.eye(3, dtype=bool)]
    assert np.abs(off_diagonal).max() < 0.02


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_spec_from_config_single_distribution():
    spec = pg.spec_from_config({"kind": "gaussian", "sigma": 0.3}, 4)
    assert len(spec.per_feature) == 4
    assert spec.distribution_for(3) == pg.Gaussian(0.3)


def test_spec_from_config_per_feature():
    spec = pg.spec_from_config(
        [
            {"kind": "uniform", "half_width": 1.0},
            None,
            {"kind": "discrete", "points": [[-1.0, 0.5], [1.0, 0.5]]},
        ],
        3,
    )
    assert spec.distribution_for(0) == pg.Uniform(1.0)
    with pytest.raises(ValidationError):
        spec.distribution_for(1)
    assert spec.distribution_for(2).cdf_below(0.0) == 0.5


def test_spec_from_config_length_mismatch():
    with pytest.raises(ValidationError):
        pg.spec_from_config([{"kind": "gaussian", "sigma": 1.0}], 2)


_CONFIG_KEYS = st.sampled_from(["kind", "sigma", "half_width", "points"]) | st.text(max_size=4)
_CONFIG_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["gaussian", "uniform", "discrete"])
    | st.text(max_size=4)
)
_CONFIG_JSON = st.recursive(
    _CONFIG_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_CONFIG_KEYS, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_CONFIG_JSON, st.integers(1, 3))
def test_spec_from_config_raises_only_package_errors(obj, num_features):
    try:
        pg.spec_from_config(obj, num_features)
    except pg.PredgapError:
        pass
