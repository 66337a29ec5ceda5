"""Artifact formats: binary arrays, CSV tables, results JSON."""
import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from smpsolve import (
    CostateTable,
    FeedbackControl,
    NoiseBatch,
    PathEnsemble,
    RegressionBasis,
    TimeGrid,
    simulate_forward,
    solve_bsde_lsmc,
)
from smpsolve.experiments import (
    ConsumptionParams,
    consumption_optimal_law,
    consumption_problem,
)
from smpsolve import io as smp_io
from smpsolve.forward import ROW_ALIGN, time_major
from smpsolve.io import (
    COPY_TILE_STEPS,
    FORMAT_VERSION,
    KIND_CONTROLS,
    KIND_COSTATE,
    KIND_GENERIC,
    KIND_STATES,
    KIND_Z,
    MAGIC,
    jsonable,
    read_array,
    save_costates,
    save_ensemble,
    write_array,
    write_curves_csv,
    write_paths_csv,
    write_reports_csv,
    write_results_json,
    write_rows,
)
from smpsolve.problems import ControlDomain
from smpsolve.reports import VerificationReport

CONS_BASIS = RegressionBasis(degree=4, reciprocal=True)


def _small_run(n_paths=60, steps=20):
    params = ConsumptionParams()
    problem = consumption_problem(params)
    grid = TimeGrid(horizon=2.0, steps=steps)
    ens = simulate_forward(problem, consumption_optimal_law(params), grid, n_paths, seed=0)
    table = CostateTable()
    sol = solve_bsde_lsmc(problem, ens, CONS_BASIS, visitors=(table,))
    return ens, sol, table.Y


class TestArrayFormat:
    def test_round_trip_preserves_bits(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((3, 5, 2))
        f = tmp_path / "a.smp"
        write_array(f, arr, KIND_GENERIC)
        kind, back = read_array(f)
        assert kind == KIND_GENERIC
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_zero_dimensional_round_trip(self, tmp_path):
        f = tmp_path / "s.smp"
        write_array(f, np.float64(3.0))
        kind, back = read_array(f)
        assert back.shape == ()
        assert back == 3.0

    def test_header_layout(self, tmp_path):
        f = tmp_path / "b.smp"
        write_array(f, np.zeros((2, 3)), KIND_STATES)
        raw = f.read_bytes()
        assert raw[:4] == MAGIC
        head = np.frombuffer(raw[4:16], dtype="<u4")
        assert tuple(head) == (FORMAT_VERSION, KIND_STATES, 2)

    def test_bad_magic_rejected(self, tmp_path):
        f = tmp_path / "c.smp"
        f.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IOError):
            read_array(f)

    def test_truncated_payload_rejected(self, tmp_path):
        f = tmp_path / "d.smp"
        write_array(f, np.ones(10))
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(IOError):
            read_array(f)

    # a (2, 3) file: magic to byte 4, version/kind/ndim to 16, shape to 24,
    # payload to 72; every cut must raise the documented IOError
    @pytest.mark.parametrize("keep", [4, 6, 10, 15, 20, 27, 29, 64])
    def test_cut_file_rejected(self, tmp_path, keep):
        f = tmp_path / "e.smp"
        write_array(f, np.ones((2, 3)))
        f.write_bytes(f.read_bytes()[:keep])
        with pytest.raises(IOError):
            read_array(f)


class TestEnsembleDump:
    def test_save_ensemble_and_costates(self, tmp_path):
        ens, sol, Y = _small_run()
        efiles = save_ensemble(tmp_path / "run", ens)
        cfiles = save_costates(tmp_path / "run", sol, Y)
        kinds = {}
        for f in efiles + cfiles:
            kind, arr = read_array(f)
            kinds[kind] = arr
        assert np.array_equal(kinds[KIND_STATES], ens.states)
        assert np.array_equal(kinds[KIND_CONTROLS], ens.controls)
        assert np.array_equal(kinds[KIND_COSTATE], Y)
        z = np.stack([sol.z_at(i, ens.states[:, i, :]) for i in range(ens.grid.steps)], axis=1)
        assert z.shape == (ens.n_paths, ens.grid.steps, 1, 1)
        assert np.array_equal(kinds[KIND_Z], z)

    def test_time_major_dump_is_path_major_on_disk(self, tmp_path):
        ens, _, _ = _small_run()
        assert not ens.states.flags.c_contiguous
        states, controls = save_ensemble(tmp_path / "run", ens)
        write_array(tmp_path / "ref.smp", np.ascontiguousarray(ens.states), KIND_STATES)
        assert states.read_bytes() == (tmp_path / "ref.smp").read_bytes()
        write_array(tmp_path / "ref.smp", np.ascontiguousarray(ens.controls), KIND_CONTROLS)
        assert controls.read_bytes() == (tmp_path / "ref.smp").read_bytes()

    @pytest.mark.parametrize("n_paths", [ROW_ALIGN, 3 * ROW_ALIGN + 5])
    def test_computed_tables_dump_as_the_whole_tables_would(self, tmp_path, monkeypatch, n_paths):
        # the controls and Z are computed a block of paths at a time; with
        # blocks of one aligned chunk the files are those of the whole tables
        ens, sol, Y = _small_run(n_paths=n_paths, steps=12)
        monkeypatch.setattr(smp_io, "COMPUTED_BLOCK_BYTES", 1)
        _, controls = save_ensemble(tmp_path / "run", ens)
        _, z_file = save_costates(tmp_path / "run", sol, Y)
        write_array(tmp_path / "ref.smp", ens.controls, KIND_CONTROLS)
        assert controls.read_bytes() == (tmp_path / "ref.smp").read_bytes()
        z = time_major(n_paths, 12, 1, 1)
        for i in range(12):
            z[:, i] = sol.z_at(i, ens.states[:, i, :])
        write_array(tmp_path / "ref.smp", z, KIND_Z)
        assert z_file.read_bytes() == (tmp_path / "ref.smp").read_bytes()

    def test_time_major_dump_copies_one_block_at_a_time(self, tmp_path):
        states = time_major(2000, 401, 1)
        states[...] = np.random.default_rng(0).standard_normal(states.shape)
        tracemalloc.start()
        try:
            write_array(tmp_path / "states.smp", states, KIND_STATES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * states.nbytes
        write_array(tmp_path / "ref.smp", np.ascontiguousarray(states), KIND_STATES)
        assert (tmp_path / "states.smp").read_bytes() == (tmp_path / "ref.smp").read_bytes()

    def test_paths_csv_shape(self, tmp_path):
        ens, _, _ = _small_run(n_paths=7, steps=4)
        f = tmp_path / "paths.csv"
        write_paths_csv(f, ens, max_paths=3)
        rows = list(csv.reader(f.open()))
        assert rows[0] == ["path", "step", "time", "x0", "u0"]
        assert len(rows) == 1 + 3 * 5
        # terminal node has no control entry
        assert rows[5][4] == ""
        assert float(rows[1][3]) == ens.states[0, 0, 0]

    @pytest.mark.parametrize("max_paths", [3, 100])
    def test_paths_csv_matches_element_wise_rows(self, tmp_path, max_paths):
        # reference: one repr per cell, the terminal node padded with blanks
        ens, _, _ = _small_run(n_paths=7, steps=4)
        f = tmp_path / "paths.csv"
        write_paths_csv(f, ens, max_paths=max_paths)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["path", "step", "time", "x0", "u0"])
        times = ens.grid.times()
        for p in range(min(7, max_paths)):
            for i in range(times.shape[0]):
                row = [p, i, repr(float(times[i]))]
                row += [repr(float(v)) for v in ens.states[p, i]]
                if i < ens.controls.shape[1]:
                    row += [repr(float(v)) for v in ens.controls[p, i]]
                else:
                    row += [""]
                writer.writerow(row)
        assert f.read_bytes() == buf.getvalue().encode()


EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, -2.5]


def _edge_ensemble(n_paths=3, steps=5):
    """Two states and two controls per node that cycle through edge values
    (the controls skip the infinities, which the box would clip)."""
    grid = TimeGrid(horizon=1.0, steps=steps)
    states = time_major(n_paths, steps + 1, 2)
    states[...] = np.resize(EDGE_VALUES, states.size).reshape(states.shape)
    applied = time_major(n_paths, steps, 2)
    applied[...] = np.resize([v for v in EDGE_VALUES if not np.isinf(v)], applied.size).reshape(applied.shape)
    law = FeedbackControl(lambda t, x: applied[: x.shape[0], grid.step_at(t)])
    return PathEnsemble(
        grid=grid,
        states=states,
        law=law,
        domain=ControlDomain([-1e17, -1e17], [1e17, 1e17]),
        noise=NoiseBatch(dt=grid.dt, increments=time_major(n_paths, steps, 1)),
        euler_crossed=np.zeros(n_paths, dtype=bool),
        floor_clipped=np.zeros(n_paths, dtype=bool),
        exploded=np.zeros(n_paths, dtype=bool),
    )


class TestDumpKernels:
    def test_paths_csv_is_the_csv_writer_rendering(self, tmp_path):
        # csv.writer renders each float itself; the terminal row ends in
        # two empty control cells
        ens = _edge_ensemble()
        f = tmp_path / "paths.csv"
        write_paths_csv(f, ens)
        controls = ens.controls
        assert np.isnan(controls).any() and (controls == 5e-324).any()
        assert ((controls == 0.0) & np.signbit(controls)).any()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["path", "step", "time", "x0", "x1", "u0", "u1"])
        for p in range(ens.n_paths):
            for i, t in enumerate(ens.grid.times().tolist()):
                u = controls[p, i].tolist() if i < ens.grid.steps else ["", ""]
                writer.writerow([p, i, t, *ens.states[p, i].tolist(), *u])
        assert f.read_bytes() == buf.getvalue().encode()
        assert f.read_bytes().split(b"\r\n")[-2].endswith(b",,")

    @pytest.mark.parametrize("n_paths", [1, 63, 65, 4097])
    def test_time_major_writes_round_trip(self, tmp_path, n_paths):
        # two whole tiles and a short one, in one or several copies per block
        steps = 2 * COPY_TILE_STEPS + 3
        a = time_major(n_paths, steps, 2)
        a[...] = np.random.default_rng(n_paths).standard_normal(a.shape)
        write_array(tmp_path / "a.smp", a)
        write_rows(tmp_path / "r.smp", a.shape, KIND_STATES, lambda rows: a[rows], block_bytes=1 << 16)
        for name, kind in (("a.smp", KIND_GENERIC), ("r.smp", KIND_STATES)):
            got_kind, back = read_array(tmp_path / name)
            assert got_kind == kind and back.shape == a.shape
            assert np.array_equal(back, a)


class TestCsvTables:
    def test_curves_csv_pads_short_columns(self, tmp_path):
        f = tmp_path / "curves.csv"
        write_curves_csv(f, {"b": np.arange(3.0), "a": np.arange(5.0)})
        rows = list(csv.reader(f.open()))
        assert rows[0] == ["a", "b"]
        assert len(rows) == 6
        assert rows[4][1] == ""
        assert float(rows[4][0]) == 3.0

    def test_reports_csv_round_trips_fields(self, tmp_path):
        report = VerificationReport(
            check="demo", status="pass", statistic=0.5, tolerance=1.0, n_samples=10
        )
        f = tmp_path / "reports.csv"
        write_reports_csv(f, [report])
        rows = list(csv.reader(f.open()))
        assert rows[0][:3] == ["check", "status", "statistic"]
        assert rows[1][0] == "demo"
        assert rows[1][1] == "pass"
        assert float(rows[1][2]) == 0.5


class TestJson:
    def test_jsonable_handles_numpy(self):
        out = jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": [np.int32(2)]})
        assert json.dumps(out)
        assert out["a"] == 1.5
        assert out["b"] == [0, 1, 2]

    def test_results_json_is_sorted_and_terminated(self, tmp_path):
        f = tmp_path / "results.json"
        write_results_json(f, {"zeta": 1, "alpha": np.float64(2.0)})
        text = f.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')
        assert json.loads(text) == {"zeta": 1, "alpha": 2.0}
