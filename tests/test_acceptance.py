"""Acceptance suite: the package's ten top-level correctness criteria.

Each test prints one PASS/FAIL line (kept visible under pytest's output
capture) so a full run reads as a checklist. Runs as part of the normal
test suite, or standalone via `python3 tests/test_acceptance.py`.
"""

import contextlib
import hashlib
import math
import time

import numpy as np
import pytest

from mapbayes import (
    AgreementRates,
    BinaryGrid,
    Convention,
    ConvergenceForm,
    RunTable,
    SynthConfig,
    agreement_rates,
    asymmetric_family,
    build_confusion,
    classify_pools,
    convergence_factor,
    density_intersection,
    diagnostic_odds_ratio,
    dominance_table,
    draw_quantile_sample,
    epanechnikov,
    fit_by_form,
    fit_kde,
    fit_normal_ml,
    generate_run_table,
    likelihood_ratios,
    predictive_values,
    quantile_bin_sizes,
    split_robustness,
    tile_region,
)
from mapbayes.cli import main as cli_main
from mapbayes.report import analyze_scopes

from conftest import build_job_tree


@contextlib.contextmanager
def announce(capsys, number, title):
    """Print one PASS/FAIL line for a criterion, bypassing capture."""
    label = f"criterion {number:2d}/10: {title}"
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {label}", flush=True)


def test_criterion_01_confusion_matches_brute_force(capsys):
    with announce(capsys, 1, "confusion counts match a per-cell reference on 1000 random masked pairs in < 5 s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(1000):
            r = int(rng.integers(1, 101))
            c = int(rng.integers(1, 101))
            while True:
                sim = rng.integers(0, 2, (r, c)).astype(np.int8)
                obs = rng.integers(0, 2, (r, c)).astype(np.int8)
                sim[rng.random((r, c)) < 0.25] = -1
                obs[rng.random((r, c)) < 0.25] = -1
                if np.any((sim >= 0) & (obs >= 0)):
                    break
            m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
            tp = fp = fn = tn = 0
            for s_row, o_row in zip(sim.tolist(), obs.tolist()):
                for s, o in zip(s_row, o_row):
                    if s < 0 or o < 0:
                        continue
                    if s == 1 and o == 1:
                        tp += 1
                    elif s == 1 and o == 0:
                        fp += 1
                    elif s == 0 and o == 1:
                        fn += 1
                    else:
                        tn += 1
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_kernel_and_density_normalization(capsys):
    with announce(capsys, 2, "kernel peak is 0.335410 and every density integrates to 1, all within 1e-6"):
        assert abs(epanechnikov(0.0) - 0.335410) <= 1e-6

        edge = math.sqrt(5.0)
        z = np.linspace(-edge, edge, 200001)
        assert abs(float(np.trapezoid(epanechnikov(z), z)) - 1.0) <= 1e-6

        rng = np.random.default_rng(314)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            kind = int(rng.integers(0, 3))
            while True:
                if kind == 0:
                    x = rng.normal(rng.uniform(0.2, 0.8), rng.uniform(0.02, 0.3), n)
                elif kind == 1:
                    x = rng.uniform(0.0, 1.0, n)
                else:
                    x = rng.beta(2.0, 5.0, n)
                if np.ptp(x) > 0.0:
                    break
            model = fit_kde(x)
            lo, hi = model.support
            xs = np.linspace(lo, hi, 40001)
            integral = float(np.trapezoid(model.evaluate(xs), xs))
            assert abs(integral - 1.0) <= 1e-6


def test_criterion_03_crossing_recovers_planted_midpoint(capsys):
    with announce(capsys, 3, "density crossing of two planted normal samples lands at 0.5 within 0.02 in < 2 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        pos = rng.normal(0.3, 0.1, 2000)
        neg = rng.normal(0.7, 0.1, 2000)
        crossing = density_intersection(fit_kde(pos), fit_kde(neg))
        assert abs(crossing - 0.5) <= 0.02
        assert time.perf_counter() - start < 2.0


def test_criterion_04_convergence_factor_closed_forms(capsys):
    with announce(capsys, 4, "all factor forms stay in [0,1] on 10000 triples; unit value iff the gap matches the offset"):
        rng = np.random.default_rng(77)
        ppv_arr = rng.random(10000)
        npv_arr = rng.random(10000)
        alpha_arr = rng.random(10000)
        # The seeded draws keep a clear margin around the equality band, so
        # the iff-check below is decided by the formula, not rounding luck.
        assert float(np.min(np.abs(ppv_arr - npv_arr - alpha_arr))) > 1e-7

        triangular = ConvergenceForm("triangular")
        adjusted = ConvergenceForm("adjusted_normal")
        base = ConvergenceForm("asymmetric_normal", 0.0)
        for p, v, a in zip(ppv_arr.tolist(), npv_arr.tolist(), alpha_arr.tolist()):
            values = (
                convergence_factor(p, v, triangular),
                convergence_factor(p, v, adjusted),
                convergence_factor(p, v, ConvergenceForm("asymmetric_normal", a)),
            )
            assert all(0.0 <= val <= 1.0 for val in values)
            assert (values[2] == 1.0) == (abs(p - v - a) < 1e-12)
            assert values[1] == convergence_factor(p, v, base)

        # Constructed cases on both sides of the equality band.
        hit = ConvergenceForm("asymmetric_normal", 0.5)
        assert convergence_factor(0.75, 0.25, hit) == 1.0
        near = ConvergenceForm("asymmetric_normal", 0.5 + 1e-6)
        assert convergence_factor(0.75, 0.25, near) != 1.0


def test_criterion_05_ml_fit_matches_grid_search(capsys):
    with announce(capsys, 5, "closed-form normal fit agrees with a 200x200 grid search within one step on 50 sample sets"):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            kind = int(rng.integers(0, 3))
            while True:
                if kind == 0:
                    x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.05, 1.5), n)
                elif kind == 1:
                    x = rng.uniform(-3, 3, n)
                else:
                    x = rng.standard_t(4, n)
                if np.ptp(x) > 0.0:
                    break
            mu_ml, sigma_ml = fit_normal_ml(x)

            mu_grid = np.linspace(x.min(), x.max(), 200)
            sigma_grid = np.linspace(1e-4, float(np.ptp(x)), 200)
            sq = ((x[None, :] - mu_grid[:, None]) ** 2).sum(axis=1)
            loglik = -n * np.log(sigma_grid)[None, :] - sq[:, None] / (2.0 * sigma_grid[None, :] ** 2)
            i, j = np.unravel_index(int(np.argmax(loglik)), loglik.shape)

            mu_step = float(mu_grid[1] - mu_grid[0])
            sigma_step = float(sigma_grid[1] - sigma_grid[0])
            assert abs(mu_ml - float(mu_grid[i])) <= mu_step
            assert abs(sigma_ml - float(sigma_grid[j])) <= sigma_step


def test_criterion_06_planted_offset_recovery(capsys, tmp_path):
    with announce(capsys, 6, "pipeline recovers each planted offset in {0, 0.25, 0.5} for >= 18/20 seeds in < 30 s"):
        start = time.perf_counter()
        forms = asymmetric_family()
        for planted in (0.0, 0.25, 0.5):
            hits = 0
            for seed in range(20):
                runs = RunTable.of(generate_run_table(
                    SynthConfig(seed=seed, planted_offset=planted, score_noise=0.3)
                ))
                table = dominance_table(fit_by_form(split_robustness(runs), forms))
                if table.selected_form.alpha == planted:
                    hits += 1
            assert hits >= 18, f"offset {planted}: only {hits}/20 seeds recovered"

        # The full analysis emits the dominance table in its documented
        # shape: one row per (scope, form), exactly one selected per scope.
        runs = RunTable.of(generate_run_table(SynthConfig(seed=0, planted_offset=0.25, score_noise=0.3)))
        analyze_scopes(runs, tmp_path)
        lines = (tmp_path / "dominance.csv").read_text().splitlines()
        assert lines[0] == (
            "scope,form,alpha,score_all_cycles_vs_final_cycles,"
            "score_final_cycles_vs_all_cycles,location_all_cycles,scale_all_cycles,"
            "location_final_cycles,scale_final_cycles,robustness,selected"
        )
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 4 * 5  # scopes all/A/B/C x five offset forms
        for scope in ("all", "A", "B", "C"):
            scoped = [row for row in body if row[0] == scope]
            assert len(scoped) == 5
            assert sum(row[-1] == "1" for row in scoped) == 1
        all_selected = next(row for row in body if row[0] == "all" and row[-1] == "1")
        assert all_selected[1] == "asymmetric_a0.25"
        assert time.perf_counter() - start < 30.0


def test_criterion_07_predictive_value_conventions(capsys):
    with announce(capsys, 7, "paper-convention ppv equals sensitivity exactly at prevalence 0.5; standard gives 0.8889"):
        for i in range(21):
            s = i / 20
            rates = AgreementRates(
                sensitivity=s, tn_rate=0.7, prevalence_observed=0.5, pcm=0.5
            )
            pv = predictive_values(rates, 0.5, Convention.PAPER)
            assert pv.ppv == s

        rates = AgreementRates(
            sensitivity=0.8, tn_rate=0.9, prevalence_observed=0.5, pcm=0.85
        )
        pv = predictive_values(rates, 0.5, Convention.STANDARD)
        assert abs(pv.ppv - 0.8889) <= 1e-4


def test_criterion_08_nested_pools_and_quantile_draws(capsys):
    with announce(capsys, 8, "pools nest C <= B <= A and draws give exactly 30 boxes, deterministic, one per bin"):
        rng = np.random.default_rng(42)
        change = BinaryGrid((rng.random((120, 120)) < 0.2).astype(np.int8))
        exclusion = BinaryGrid((rng.random((120, 120)) < 0.3).astype(np.int8))
        boxes = tile_region(change, exclusion, 16)
        pools = classify_pools(boxes)

        ids = {label: set(pool.box_id.tolist()) for label, pool in pools.items()}
        assert ids["C"] <= ids["B"] <= ids["A"]
        assert len(ids["A"]) == len(boxes)
        for box_id, index in zip(boxes.box_id.tolist(), boxes.index.tolist()):
            assert (box_id in ids["B"]) == (index >= 0.5)
            assert (box_id in ids["C"]) == (index >= 1.0)

        for label, pool in sorted(pools.items()):
            assert len(pool) >= 30
            drawn = draw_quantile_sample(pool, 30, seed=11, label=label)
            assert len(drawn) == 30
            again = draw_quantile_sample(pool, 30, seed=11, label=label)
            assert again.box_id.tolist() == drawn.box_id.tolist()

            ordered = sorted(zip(pool.pct_urban_change.tolist(), pool.box_id.tolist()))
            position = {box_id: i for i, (_, box_id) in enumerate(ordered)}
            bounds = np.cumsum([0] + quantile_bin_sizes(len(pool), 30))
            for i, box_id in enumerate(drawn.box_id.tolist()):
                assert bounds[i] <= position[box_id] < bounds[i + 1]


def test_criterion_09_odds_ratio_baselines(capsys):
    with announce(capsys, 9, "even-odds classifier gives odds ratio exactly 1.0; perfect classifier flags +infinity"):
        obs = np.zeros((10, 10), dtype=np.int8)
        obs.flat[:50] = 1
        sim = np.zeros((10, 10), dtype=np.int8)
        sim.flat[:25] = 1
        sim.flat[50:75] = 1

        m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
        assert (m.tp, m.fp, m.fn, m.tn) == (25, 25, 25, 25)
        rates = agreement_rates(m)
        assert rates.sensitivity == 0.5 and rates.tn_rate == 0.5
        for convention in (Convention.PAPER, Convention.STANDARD):
            assert diagnostic_odds_ratio(likelihood_ratios(rates, convention)) == 1.0

        perfect = agreement_rates(build_confusion(BinaryGrid(obs), BinaryGrid(obs)))
        dor = diagnostic_odds_ratio(likelihood_ratios(perfect, Convention.STANDARD))
        assert dor == math.inf


def test_criterion_10_report_runs_are_hash_identical(capsys, tmp_path):
    with announce(capsys, 10, "two report runs over the same inputs produce hash-identical output trees"):
        config_path, _ = build_job_tree(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert cli_main(["report", "--config", str(config_path), "--out", str(first)]) == 0
        assert cli_main(["report", "--config", str(config_path), "--out", str(second)]) == 0

        def tree_hashes(root):
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.iterdir())
            }

        h_first, h_second = tree_hashes(first), tree_hashes(second)
        assert h_first and h_first == h_second
        assert {"summary.json", "manifest.json", "confusion.csv"} <= set(h_first)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
