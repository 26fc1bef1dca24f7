"""Each output check passes on the program's artifacts and fails on a corrupted copy.

    PYTHONPATH=src python3 -m pytest benchmark/tests

The module fixture runs `fpcirc all` at the reference config (about 30 s)
with the benchmark's pinned environment.
"""

from __future__ import annotations

import json
import shutil
import time
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import traced  # noqa: E402


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    runner = run.Runner(work / "runner")
    study = work / "study"
    inv = runner.fpcirc(["all", "--seed", 1, "--snapshot-every", run.SNAPSHOT_EVERY, "--out", study])
    assert inv.rc == 0, inv.log.read_text()
    return study


@pytest.fixture
def study(artifacts, tmp_path):
    """A private copy of the `fpcirc all` output directory."""
    out = tmp_path / "study"
    shutil.copytree(artifacts, out)
    return out


def _edit_csv(path, row, col, fn):
    lines = Path(path).read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_checks_pass_on_program_output(study):
    checks.check_study(study)
    checks.check_revalidate(study, run.N_SNAPSHOTS)


def test_flipped_control_sample_fails_objective(study):
    _edit_csv(study / "controls.csv", 100, 1, lambda u: -u)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_objective(study)


def test_rising_objective_history_fails(study):
    path = study / "report.json"
    report = json.loads(path.read_text())
    report["objective_history"][5] = report["objective_history"][4] + 1.0
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="increases"):
        checks.check_objective(study)


@pytest.mark.parametrize("name", ["diagnostics_optimized.csv", "diagnostics_uncontrolled.csv"])
def test_mass_off_by_1e9_fails(study, name):
    _edit_csv(study / name, 50, 3, lambda m: m + 1e-9)
    with pytest.raises(checks.CheckFailed, match="mass deviates"):
        checks.check_mass(study / name)


def test_reordered_eigenvalue_fails(study):
    path = checks.basis_dir(study) / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    lam1, lam2 = lines[2].split(",")[1], lines[3].split(",")[1]
    lines[2], lines[3] = f"1,{lam2}", f"2,{lam1}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="off the rates"):
        checks.check_eigenvalues(path)


def test_perturbed_stationary_density_fails(study):
    _edit_csv(study / "rho_s.csv", 5100, 2, lambda v: v * (1 + 1e-8))
    with pytest.raises(checks.CheckFailed, match="exp"):
        checks.check_stationary_density(study / "rho_s.csv")


def test_slower_decay_fails(study):
    path = study / "diagnostics_uncontrolled.csv"
    header, data = checks.read_table(path)
    data[:, 1] *= np.exp(0.5 * data[:, 0])
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")
    with pytest.raises(checks.CheckFailed, match="decays"):
        checks.check_decay_rate(path)


def test_failed_or_missing_gate_fails(study):
    path = study / "validation_summary.json"
    summary = json.loads(path.read_text())
    summary["gates"]["tv_optimized"]["pass"] = False
    path.write_text(json.dumps(summary))
    with pytest.raises(checks.CheckFailed, match="tv_optimized"):
        checks.check_gates(study)
    del summary["gates"]["tv_optimized"]
    path.write_text(json.dumps(summary))
    with pytest.raises(checks.CheckFailed, match="8 gates"):
        checks.check_gates(study)


def test_snapshot_missing_or_off_mass_fails(study):
    snaps = sorted((study / "snapshots").glob("rho_*.csv"))
    _edit_csv(snaps[3], 5100, 2, lambda v: v + 1e-9 / 0.08**2)
    with pytest.raises(checks.CheckFailed, match="mass"):
        checks.check_snapshots(study / "snapshots", run.N_SNAPSHOTS)
    snaps[3].unlink()
    with pytest.raises(checks.CheckFailed, match="10 snapshots"):
        checks.check_snapshots(study / "snapshots", run.N_SNAPSHOTS)


def test_changed_byte_fails_identity(study):
    before = checks.file_digests(study)
    _edit_csv(study / "flux_estimate.csv", 10, 2, lambda v: v + 1.0)
    with pytest.raises(checks.CheckFailed, match="flux_estimate.csv"):
        checks.check_same_files(before, checks.file_digests(study), "study")


def _table(names):
    """A flat span table with one 1 ms span per name."""
    return traced.SpanTable({"startup_s": 0.5, "spans": [[n, -1, 0.0, 1e-3] for n in names]})


def test_count_cross_checks(study):
    report = json.loads((study / "report.json").read_text())
    n_eval = report["n_evaluations"]
    calls = ["control.objective_and_gradient"] * (n_eval // 2)
    calls += ["control.objective"] * (n_eval - n_eval // 2)
    assert run._check_evaluations(_table(calls), study) == report["n_iterations"]
    with pytest.raises(checks.CheckFailed, match="objective calls"):
        run._check_evaluations(_table(calls[1:]), study)

    extras = json.loads((study / "validation_summary.json").read_text())["extras"]
    good = ["pde.splu"] * (extras["n_factorizations"] + 1) + ["particles.em_step"] * 800
    run._check_validation_counts(_table(good), study)
    with pytest.raises(checks.CheckFailed, match="splu"):
        run._check_validation_counts(_table(good[1:]), study)
    with pytest.raises(checks.CheckFailed, match="em_step"):
        run._check_validation_counts(_table(good[:-1]), study)


def test_layer_metrics_nesting():
    # simulate > em_step > grad_alpha, and a grad_alpha outside em_step
    doc = {"startup_s": 0.25, "spans": [
        ["particles.simulate", -1, 0.0, 1.0],
        ["particles.em_step", 0, 0.1, 0.5],
        ["particles.grad_alpha", 1, 0.2, 0.3],
        ["particles.grad_alpha", -1, 2.0, 2.5],
        ["control.objective_and_gradient", -1, 3.0, 3.004],
        ["control.rollout", 4, 3.0, 3.001],
    ]}
    m = traced.layer_metrics([traced.SpanTable(doc)], iterations=1)
    assert m["particles.simulate_s"] == pytest.approx(1.0)
    assert m["particles.drift_s"] == pytest.approx(0.1)
    assert m["particles.substeps"] == 1
    assert m["control.adjoint_ms"] == pytest.approx(3.0)
    assert m["control.objective_gradient_ms"] == pytest.approx(4.0)
    assert m["cli.import_s"] == 0.25
    assert m["pde.factorize_ms"] == 0.0


def test_missing_source_exits_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "study", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_nonzero_exit_is_not_correct(monkeypatch, tmp_path):
    # fpcirc exits non-zero when a validation gate fails; the checks never run
    def fake_fpcirc(self, args, spans=None):
        args = [str(a) for a in args]
        rc = 0 if "--dump-config" in args else 3
        return run.Invocation(args, rc, 1.0, 100.0, tmp_path / "log", 1.0)

    monkeypatch.setattr(run, "BENCH", tmp_path)
    monkeypatch.setattr(run.Runner, "fpcirc", fake_fpcirc)
    result = run.run("study", seed=0, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_reference_seconds_scales_by_probe_speed():
    ref = speed.REFERENCE_CHUNK_S
    # chunks at twice the reference time: the core ran at half speed
    samples = [(t, 2 * ref) for t in (0.5, 1.0, 1.5, 2.0, 2.5)]
    # 2 s of wall time minus the probe's own CPU time, halved
    assert speed.reference_seconds(samples, 0.6, 2.6) == pytest.approx((2.0 - 8 * ref) / 2)
    # a short interval borrows the latest chunks before its end
    assert speed.reference_seconds(samples, 2.55, 2.65) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        speed.reference_seconds(samples, 0.0, 0.1)


def test_probe_samples_and_stops():
    probe = speed.Probe()
    probe.start()
    probe.stop()
    assert not probe._thread.is_alive()
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert probe.reference_seconds(0.0, time.perf_counter()) > 0.0
