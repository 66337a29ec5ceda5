import json
import os
import threading
import warnings

import numpy as np
import pytest

from smpsolve import parallel
from smpsolve.cli import main
from smpsolve.forward import SimulationError, simulate_forward, stream_competitor
from smpsolve.forward import ConstantControl, TimeGrid
from smpsolve.parallel import FORK_MIN_NODES, fork_map
from smpsolve.problems import AssumptionConstants, CoefficientField, ControlDomain, DiscountedProblem
from smpsolve.verify import PathCostSum

ABOVE_GATE = FORK_MIN_NODES

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or parallel.usable_cpus() < 2, reason="fork_map forks only on two or more CPUs"
)


@pytest.fixture
def forks(monkeypatch):
    """The pids returned by every ``os.fork`` this process makes."""
    made, fork = [], os.fork

    def spy():
        pid = fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return made


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _noisy(i: int) -> np.ndarray:
    return np.random.default_rng(i).standard_normal(1000).cumsum() / (i + 1)


def test_results_come_back_in_order_to_the_bit(forks):
    items = list(range(7))
    got = fork_map(_noisy, items, ABOVE_GATE)
    assert len(forks) == 1
    assert [g.tobytes() for g in got] == [_noisy(i).tobytes() for i in items]
    _assert_no_children()


def test_below_the_gate_everything_runs_here(forks):
    assert fork_map(_noisy, [1, 2], FORK_MIN_NODES - 1)[1].tobytes() == _noisy(2).tobytes()
    assert forks == []


def _growth_problem() -> DiscountedProblem:
    # Euler steps of x' = 3 u x from 1 explode at u = 1 (1.24^100 > EXPLOSION_GUARD)
    coeffs = CoefficientField(
        state_dim=1,
        noise_dim=1,
        control_dim=1,
        drift=lambda x, u: 3.0 * x * u,
        diffusion=lambda x, u: np.zeros(x.shape[:-1] + (1, 1)),
        running_cost=lambda x, u: x[..., 0],
        grad_drift=lambda x, u: 3.0 * u[..., None],
        grad_cost=lambda x, u: np.ones_like(x),
    )
    return DiscountedProblem(
        coefficients=coeffs,
        domain=ControlDomain([0.0], [1.0]),
        beta=1.0,
        constants=AssumptionConstants(3.0, 3.0, 0.0, 0.0),
        x0=np.array([1.0]),
    )


def test_a_child_simulation_error_is_raised_here(forks):
    problem = _growth_problem()
    grid = TimeGrid(horizon=8.0, steps=100)
    cand = simulate_forward(problem, ConstantControl([0.0]), grid, 8, seed=0)

    def stream(u: float):
        return stream_competitor(problem, cand, ConstantControl([u]), PathCostSum(problem, grid))

    with pytest.raises(SimulationError) as serial:
        stream(1.0)
    # the exploding law is in the child's half
    with pytest.raises(SimulationError) as forked:
        fork_map(stream, [0.0, 0.5, 1.0], ABOVE_GATE)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value)
    _assert_no_children()


def test_the_first_half_error_wins_and_the_child_is_reaped(forks):
    def fail(i):
        if i in (0, 3):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 0"):
        fork_map(fail, range(4), ABOVE_GATE)
    assert len(forks) == 1
    _assert_no_children()


def test_an_interrupt_here_reaps_the_child(forks):
    def interrupt(i):
        if i == 0:
            raise KeyboardInterrupt
        return i

    with pytest.raises(KeyboardInterrupt):
        fork_map(interrupt, range(2), ABOVE_GATE)
    assert len(forks) == 1
    _assert_no_children()


def test_a_child_that_dies_names_its_exit_status(forks):
    def die(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError, match="exit status 3"):
        fork_map(die, range(2), ABOVE_GATE)
    _assert_no_children()


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    assert fork_map(_noisy, range(4), ABOVE_GATE)[3].tobytes() == _noisy(3).tobytes()


def test_another_thread_keeps_everything_here(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert fork_map(_noisy, range(2), ABOVE_GATE)[1].tobytes() == _noisy(1).tobytes()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_an_unpicklable_child_result_is_an_error_here(forks):
    with pytest.raises(RuntimeError, match="pickle"):
        fork_map(lambda i: (lambda: i), range(2), ABOVE_GATE)
    _assert_no_children()


def test_a_nested_call_in_the_child_runs_serially(forks):
    def nested(i):
        inner = fork_map(lambda j: i * 10 + j, range(4), ABOVE_GATE)
        return inner, parallel._in_child, len(forks)

    here, there = fork_map(nested, range(2), ABOVE_GATE)
    assert here[0] == [0, 1, 2, 3] and there[0] == [10, 11, 12, 13]
    # this process forked twice, the outer call and its own nested one; the
    # child ran its nested call with the one fork it inherited
    assert not here[1] and here[2] == 2
    assert there[1] and there[2] == 1
    _assert_no_children()


def test_a_child_warning_is_issued_here_once():
    def warn(i):
        if i == 1:
            warnings.warn("from the child", RuntimeWarning)
        return i

    with pytest.warns(RuntimeWarning) as record:
        assert fork_map(warn, range(2), ABOVE_GATE) == [0, 1]
    assert [str(w.message) for w in record] == ["from the child"]
    _assert_no_children()


def _outputs(out):
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "results.json":
            payload = json.loads(data)
            payload.pop("metadata")
            data = json.dumps(payload, sort_keys=True).encode()
        files[path.name] = data
    return files


def test_a_forked_run_writes_the_bytes_of_a_one_cpu_run(tmp_path, monkeypatch, forks):
    # the workload size: competitor streams and dumps both above the gate
    argv = ["run", "-e", "production", "--check", "costs", "--check", "positivity", "--dump-paths"]
    argv += ["--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "two")]) == 0
    assert len(forks) == 2
    _assert_no_children()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    assert len(forks) == 2
    two, one = _outputs(tmp_path / "two"), _outputs(tmp_path / "one")
    assert {"paths.csv", "production_states.smp", "production_controls.smp"} <= set(two)
    assert two == one
