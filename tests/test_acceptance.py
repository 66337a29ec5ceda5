"""End-to-end acceptance runs at full scale.

Each test prints one summary line so the run log shows every criterion's
verdict and headline statistics even when all of them pass.
"""
import json
import math
import time

import numpy as np
import pytest

from smpsolve import (
    ConstantControl,
    CostateVisitor,
    PointwiseSample,
    RegressionBasis,
    RiccatiOracle,
    TimeGrid,
    check_identities,
    check_pointwise_max,
    cost_dominance,
    cylinder_consistency_check,
    get_experiment,
    logistic_picard_solve,
    maximize_hamiltonian_in_u,
    path_costs,
    positivity_check,
    run_experiment,
    simulate_forward,
    solve_bsde_lsmc,
    terminal_stability_gap,
    validate_assumptions,
)
from smpsolve.cli import main as cli_main
from smpsolve.forward import comparison_check
from smpsolve.problems import beta_threshold
from smpsolve.experiments import (
    ConsumptionParams,
    LogisticParams,
    ProductionPlanningParams,
    consumption_optimal_law,
    consumption_problem,
    consumption_sample_spec,
    logistic_competitors,
    logistic_problem,
    logistic_sample_spec,
    production_optimal_law,
    production_problem,
    production_sample_spec,
    production_sigma_zero_cost,
)


def _emit(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def logistic_fixed_point():
    params = LogisticParams()
    grid = TimeGrid.auto(params.beta, 250)
    # criterion 6's pointwise sample rides every Picard pass
    sample = PointwiseSample(n_points=10_000, seed=9)
    return params, logistic_picard_solve(params, grid, n_paths=15_000, seed=11, visitors=(sample,)), sample


def test_criterion_1_consumption_oracle(capsys):
    params = ConsumptionParams()
    beta = params.resolved_beta()
    problem = consumption_problem(params)
    grid = TimeGrid.auto(beta, 200)
    basis = get_experiment("consumption").basis

    t0 = time.monotonic()
    ens = simulate_forward(problem, consumption_optimal_law(params), grid, 50_000, seed=1)

    # recover the control from the Hamiltonian maximizer at sampled nodes,
    # clear of the horizon layer where the zero-terminal costate rolls off
    rng = np.random.default_rng(2)
    last_step = int((grid.horizon - 10.0) / grid.dt)
    p_idx = rng.integers(0, ens.n_paths, size=4000)
    s_idx = rng.integers(0, last_step, size=4000)
    x = ens.states[p_idx, s_idx, :]
    y = np.empty_like(x)

    class Gather(CostateVisitor):
        def __call__(self, node):
            rows = s_idx == node.i
            y[rows] = node.y[p_idx[rows]]

    sol = solve_bsde_lsmc(problem, ens, basis, visitors=(Gather(),))
    y0 = float(sol.y0()[0])
    target = 1.0 / (params.x0 * beta)
    y0_rel = abs(y0 - target) / target

    z = np.empty((x.shape[0], 1, 1))
    for i in np.unique(s_idx):
        rows = np.flatnonzero(s_idx == i)
        z[rows] = sol.z_at(int(i), x[rows])
    u_star, _ = maximize_hamiltonian_in_u(x, y, z, problem)
    dev = np.abs(u_star[:, 0] - beta) / beta
    frac = float((dev <= 0.05).mean())
    elapsed = time.monotonic() - t0

    ok = y0_rel <= 0.05 and frac >= 0.95 and elapsed <= 60.0
    _emit(
        capsys,
        1,
        "consumption oracle",
        ok,
        f"y0 rel err {y0_rel:.4f}, control within 5% at {frac:.1%} of nodes, {elapsed:.1f}s",
    )


def test_criterion_2_production_riccati(capsys):
    params = ProductionPlanningParams()
    oracle = RiccatiOracle(params)
    settled = 40.0 / params.beta
    ode_gap = max(
        abs(float(oracle.phi_at(settled)) - oracle.phi_inf),
        abs(float(oracle.psi_at(settled)) - oracle.psi_inf),
    )

    target = oracle.phi_inf * params.x0 + oracle.psi_inf
    problem = production_problem(params)
    grid = TimeGrid.auto(params.beta, 400)
    ens = simulate_forward(problem, production_optimal_law(params), grid, 20_000, seed=3)
    sol = solve_bsde_lsmc(problem, ens, get_experiment("production").basis)
    y0_rel = abs(float(sol.y0()[0]) - target) / abs(target)

    _, _, sigma_zero_rel = production_sigma_zero_cost(params)

    ok = ode_gap <= 1e-6 and y0_rel <= 0.05 and sigma_zero_rel <= 5e-3
    _emit(
        capsys,
        2,
        "production riccati",
        ok,
        f"ode gap {ode_gap:.2e}, y0 rel err {y0_rel:.4f}, sigma-zero cost err {sigma_zero_rel:.2e}",
    )


def test_criterion_3_cost_dominance(capsys):
    details = []
    ok = True
    for name in ("consumption", "production"):
        result = run_experiment(name, checks=("costs",), seed=4)
        report = result.report_by_name("cost_dominance")
        rows = report.details["competitors"]
        n_dom = sum(1 for r in rows.values() if r["dominated"])
        ok = ok and report.status == "pass" and len(rows) >= 7 and n_dom == len(rows)
        details.append(f"{name} {n_dom}/{len(rows)} dominated")
    _emit(capsys, 3, "cost dominance", ok, "; ".join(details))


def test_criterion_4_stability_decay(capsys):
    params = ProductionPlanningParams()
    problem = production_problem(params)
    basis = get_experiment("production").basis
    beta = params.beta
    horizons = [math.log(1e2) / beta, math.log(1e3) / beta]

    gaps, node0 = [], []
    bounded = True
    for n in horizons:
        steps = int(round(n / 0.05))
        grid = TimeGrid(horizon=n, steps=steps)
        ens = simulate_forward(problem, production_optimal_law(params), grid, 4000, seed=5)
        report = terminal_stability_gap(problem, ens, basis, np.ones(4000))
        limit = 1.25 * math.exp(-beta * n) + 3.0 * report.standard_error
        bounded = bounded and report.statistic <= limit and report.status == "pass"
        gaps.append(report.statistic)
        node0.append(report.details["node0_gap"])

    slope = (math.log(gaps[1]) - math.log(gaps[0])) / (horizons[1] - horizons[0])
    slope_ok = abs(slope - (-beta)) <= 0.2 * beta
    _emit(
        capsys,
        4,
        "stability decay",
        bounded and slope_ok,
        f"gaps {gaps[0]:.2e}/{gaps[1]:.2e}, log-gap slope {slope:.3f} vs -beta {-beta}; "
        f"node-0 gaps {node0[0]:.2e}/{node0[1]:.2e}",
    )


def test_criterion_5_logistic_properties(logistic_fixed_point, capsys):
    params, fixed_point, _ = logistic_fixed_point
    problem = logistic_problem(params)
    law = fixed_point.law
    basis = get_experiment("logistic").basis

    # 1e5 paths in batches of 5000: one 40 MB ensemble of states alive at a time
    fine = TimeGrid(horizon=1.0, steps=1000)
    batches = [
        positivity_check(simulate_forward(problem, law, fine, 5000, seed=6000 + b))
        for b in range(20)
    ]
    crossings = sum(r.details["euler_crossings"] + r.details["floor_clips"] for r in batches)

    grid = TimeGrid.auto(params.beta, 250)
    sandwich = comparison_check(problem, simulate_forward(problem, law, grid, 4000, seed=7))

    ens = simulate_forward(problem, law, grid, 4000, seed=8)
    cyl = cylinder_consistency_check(
        problem, ens, basis, truncation_m=10.0, truncation_p=50.0, cylinder=5.0
    )

    ok = (
        all(r.status == "pass" for r in batches)
        and crossings == 0
        and sandwich.status == "pass"
        and sandwich.statistic <= 1e-3
        and cyl.status == "pass"
        and cyl.statistic <= 1e-8
        and cyl.n_samples > 0
    )
    _emit(
        capsys,
        5,
        "logistic properties",
        ok,
        f"{crossings} crossings in 1e5 paths, sandwich frac {sandwich.statistic:.1e}, "
        f"cylinder gap {cyl.statistic:.1e} on {cyl.n_samples} paths",
    )


def test_criterion_6_logistic_closed_loop(logistic_fixed_point, capsys):
    params, result, sample = logistic_fixed_point
    problem = result.problem

    converged = result.converged and result.iterations <= 20 and result.residuals[-1] <= 1e-4

    pointwise = check_pointwise_max(problem, sample, tol=1e-6)

    constants = {
        name: law
        for name, law in logistic_competitors(params).items()
        if name.startswith("constant_")
    }
    rivals = {
        name: simulate_forward(
            problem, law, result.grid, result.ensemble.n_paths, seed=11,
            noise=result.ensemble.noise,
        )
        for name, law in constants.items()
    }
    dominance = cost_dominance(
        path_costs(problem, result.ensemble), {name: path_costs(problem, ens) for name, ens in rivals.items()}
    )
    n_dom = sum(1 for r in dominance.details["competitors"].values() if r["dominated"])

    ok = (
        converged
        and pointwise.status == "pass"
        and len(constants) == 5
        and dominance.status == "pass"
        and n_dom == 5
    )
    _emit(
        capsys,
        6,
        "logistic closed loop",
        ok,
        f"{result.iterations} iterations, residual {result.residuals[-1]:.1e}, "
        f"pointwise gap {pointwise.statistic:.1e}, {n_dom}/5 constants dominated",
    )


def test_criterion_7_analytic_identities(capsys):
    cases = [
        ("consumption", consumption_problem(ConsumptionParams()), consumption_sample_spec(ConsumptionParams())),
        ("production", production_problem(ProductionPlanningParams()), production_sample_spec(ProductionPlanningParams())),
        ("logistic", logistic_problem(LogisticParams()), logistic_sample_spec(LogisticParams())),
    ]
    worst_gradient = 0.0
    ok = True
    for _, problem, spec in cases:
        report = check_identities(problem, spec, n_points=10_000)
        ok = ok and report.status == "pass"
        worst_gradient = max(worst_gradient, report.statistic)

    ok = ok and worst_gradient <= 1e-6
    _emit(capsys, 7, "analytic identities", ok, f"gradient {worst_gradient:.1e}")


def test_criterion_8_assumption_audits(capsys):
    cases = [
        ("consumption", consumption_problem(ConsumptionParams()), consumption_sample_spec(ConsumptionParams())),
        ("production", production_problem(ProductionPlanningParams()), production_sample_spec(ProductionPlanningParams())),
        ("logistic", logistic_problem(LogisticParams()), logistic_sample_spec(LogisticParams())),
    ]
    ok = all(validate_assumptions(p, s).status == "pass" for _, p, s in cases)

    prod_threshold = beta_threshold(production_problem(ProductionPlanningParams()))
    cons = ConsumptionParams()
    cons_threshold = beta_threshold(consumption_problem(cons))
    exact = prod_threshold == 0.0 and cons_threshold == 2.0 * cons.mu + 2.0 * cons.sigma**2

    _emit(
        capsys,
        8,
        "assumption audits",
        ok and exact,
        f"3 example audits pass, thresholds {prod_threshold:g} and {cons_threshold:g}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "experiment = consumption\n"
        "grid.horizon = 6.0\n"
        "grid.steps = 120\n"
        "run.paths = 2000\n"
        "run.seed = 7\n"
        "run.checks = oracle\n"
    )
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "results.json").read_text())
        payload.pop("metadata")
        outs.append(json.dumps(payload, sort_keys=True).encode())
    ok = outs[0] == outs[1]
    _emit(capsys, 9, "determinism", ok, f"{len(outs[0])} canonical bytes, identical sans metadata")
