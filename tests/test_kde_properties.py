"""Property tests for the density and convergence analyses.

`KdeModel.evaluate` sums the kernel from per-bin prefix sums. These tests
pin it, over generated samples and points, to the direct sum in
`conftest.reference_density`, and check the invariants a density must keep:
non-negative, exactly zero off its support, unit mass, and crossings that
the grid scan brackets. `pp_curve` computes its fitted probabilities and
diagonal crossings over whole columns; it is pinned, bit for bit, to the
per-point loop it replaced. `analyze_scopes` writes the same files from a
run table as from the run records it holds.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SQRT5, reference_density
from mapbayes import KdeModel, RunRecord, RunTable, find_crossings, pp_curve
from mapbayes.kde import GRID
from mapbayes.report import analyze_scopes


@st.composite
def models(draw):
    """Samples with duplicates, n = 1, tight clusters and wide spans."""
    h = 10.0 ** draw(st.floats(-4.0, 1.0))
    # Spread of the distinct values, in bandwidths: from a tight cluster
    # well inside one bin to a span of a million bins.
    spread = h * 10.0 ** draw(st.floats(-3.0, 6.0))
    loc = draw(st.floats(-1e3, 1e3))
    distinct = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60))
    repeats = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=100))
    unit = np.array(distinct + [distinct[i] for i in repeats])
    return KdeModel(samples=loc + spread * unit, bandwidth=h)


@st.composite
def points(draw, model):
    """Points inside the support, on its edges and outside it."""
    s, h = model.samples, model.bandwidth
    lo, hi = model.support
    near = [float(v) + h * draw(st.floats(-3.0, 3.0)) for v in draw(st.lists(st.sampled_from(s), max_size=10))]
    edges = [lo, hi, float(s[0]) - SQRT5 * h, float(s[-1]) + SQRT5 * h, float(s[len(s) // 2]) + SQRT5 * h]
    outside = [lo - h * draw(st.floats(1e-9, 1e3)), hi + h * draw(st.floats(1e-9, 1e3))]
    return np.array(near + edges + outside)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_matches_direct_sum(data):
    model = data.draw(models())
    xs = data.draw(points(model))
    ref = reference_density(model.samples, model.bandwidth)
    expected = np.array([ref(float(x)) for x in xs])
    peak = max(max(ref(float(v)) for v in model.samples), expected.max())
    got = model.evaluate(xs)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * max(1.0, peak))
    # A point evaluates alike alone and among others: the crossing search
    # bisects with scalars from the brackets of the tabulated scan.
    assert np.array_equal(got, [model.evaluate(float(x)) for x in xs])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_density_is_non_negative_and_exactly_zero_off_support(data):
    model = data.draw(models())
    xs = data.draw(points(model))
    got = model.evaluate(xs)
    assert (got >= 0.0).all()
    lo, hi = model.support
    off = (xs < lo) | (xs > hi)
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in got[off])


@settings(max_examples=200, deadline=None)
@given(models())
def test_density_integrates_to_one(model):
    # Between consecutive ends of the samples' supports the density is one
    # quadratic, on which two-point Gauss-Legendre is exact. Its nodes stay
    # off the ends, where the kernel has a kink and a rounded end could
    # read the neighbouring piece.
    half = SQRT5 * model.bandwidth
    knots = np.unique(np.concatenate([model.samples - half, model.samples + half]))
    mid, width = 0.5 * (knots[:-1] + knots[1:]), knots[1:] - knots[:-1]
    node = width / (2.0 * math.sqrt(3.0))
    mass = np.sum(0.5 * width * (model.evaluate(mid - node) + model.evaluate(mid + node)))
    assert math.isclose(mass, 1.0, abs_tol=1e-6)


unit_samples = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(unit_samples, unit_samples, st.floats(-2.5, 0.0), st.floats(-2.5, 0.0))
def test_crossings_are_bracketed_by_the_grid_scan(pos, neg, log_h_pos, log_h_neg):
    f_pos = KdeModel(samples=np.array(pos), bandwidth=10.0**log_h_pos)
    f_neg = KdeModel(samples=np.array(neg), bandwidth=10.0**log_h_neg)
    try:
        crossings = find_crossings(f_pos, f_neg)
    except ValueError:
        assume(False)
    g = f_pos.on_grid - f_neg.on_grid
    for c in crossings:
        around = np.flatnonzero((GRID[:-1] <= c.x) & (c.x <= GRID[1:]))
        bracketed = any(g[i] * g[i + 1] < 0.0 for i in around)
        on_zero = any(c.x == GRID[i] and g[i] == 0.0 and f_pos.on_grid[i] > 0.0 for i in np.flatnonzero(GRID == c.x))
        assert bracketed or on_zero


def reference_pp(values, mu, sigma):
    """Fitted probabilities and diagonal crossings, one point at a time."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    p = (np.arange(1, n + 1) - 0.5) / n
    z = (x - mu) / sigma
    fitted = np.asarray([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    d = fitted - p
    crossings = []
    for i in range(n):
        if d[i] == 0.0:
            crossings.append(float(p[i]))
        elif i + 1 < n and d[i] * d[i + 1] < 0.0:
            frac = d[i] / (d[i] - d[i + 1])
            crossings.append(float(p[i] + frac * (p[i + 1] - p[i])))
    return fitted, tuple(sorted(set(crossings)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pp_curve_matches_per_point_reference(data):
    mu = data.draw(st.floats(0.0, 1.0))
    sigma = data.draw(st.floats(1e-4, 2.0))
    # Points at mu sit on the diagonal when they are the median of the sample.
    values = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(mu)), min_size=1, max_size=60))
    curve = pp_curve(values, mu, sigma)
    fitted, crossings = reference_pp(values, mu, sigma)
    assert curve.fitted.tobytes() == fitted.tobytes()
    assert curve.crossings == crossings
    assert all(type(c) is float for c in curve.crossings)


# One, two or three groups; with up to 25 runs over 4 cycles, single-run cycles are common.
run_records = st.sampled_from(["A", "AB", "ABC"]).flatmap(
    lambda groups: st.lists(
        st.builds(
            RunRecord,
            box_id=st.integers(0, 5),
            group=st.sampled_from(list(groups)),
            cycle=st.integers(1, 4),
            ppv=st.floats(0.0, 1.0),
            npv=st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=25,
    )
)


@settings(max_examples=60, deadline=None)
@given(run_records, st.sampled_from([None, 2]))
def test_analyze_scopes_writes_what_the_runs_hold(records, final_cycle):
    cycles = [r.cycle for r in records]
    runs = RunTable.of(records)
    if final_cycle is not None and not min(cycles) < final_cycle <= max(cycles):
        # A converged tail of every run, or of none, is refused before anything is written.
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match="final_cycle must be above the first cycle"):
                analyze_scopes(runs, Path(tmp), final_cycle=final_cycle)
            assert list(Path(tmp).iterdir()) == []
        return
    with tempfile.TemporaryDirectory() as tmp:
        summaries = analyze_scopes(runs, Path(tmp), final_cycle=final_cycle)
        files = {f.name: f.read_bytes() for f in Path(tmp).iterdir()}
    groups = sorted({r.group for r in records})
    assert list(summaries) == ["all"] + groups
    assert [summaries[g]["n_runs"] for g in groups] == [sum(r.group == g for r in records) for g in groups]
    timeline = files["timeline.csv"].decode().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in timeline] == sorted({r.cycle for r in records})
