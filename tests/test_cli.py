"""End-to-end tests of the command-line pipeline.

Runs use a deliberately small 41x41 configuration so a full
eigen/optimize/validate cycle finishes in seconds; the full-resolution
study is exercised by the acceptance suite.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from fpcirc.cli import main
from fpcirc.fields import ScalarField, write_scalar_csv
from fpcirc.operators import SpectralBasis
from fpcirc.problem import ExperimentConfig

from conftest import run_outputs

GOOD_CONFIG = {
    "L": 4.0,
    "nx": 41,
    "ny": 41,
    "D": 2.0,
    "M": 21,
    "t0": 0.0,
    "tf": 1.0,
    "dt": 0.005,
    "n_particles": 4000,
    "seed": 0,
    "coarse_nx": 10,
    "coarse_ny": 10,
    "em_substeps": 2,
}

# too few modes to track the transient: the reduced/full consistency
# gate fails deterministically (initial truncation error is already huge)
BAD_CONFIG = dict(GOOD_CONFIG, M=6, tf=0.4, dt=0.01)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_good")
    cfg_path = write_config(root / "config_in.json", GOOD_CONFIG)
    out = root / "run"
    rc = main(["all", "--config", cfg_path, "--out", str(out), "--max-iters", "400"])
    # later tests rerun stages into out; keep the manifest of `all` itself
    (root / "manifest_all.json").write_bytes((out / "manifest.json").read_bytes())
    return rc, out, cfg_path


# --------------------------------------------------------------- error paths


def test_dump_config_prints_reference_defaults(capsys):
    assert main(["eigen", "--dump-config"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == ExperimentConfig().to_dict()


def test_seed_override_lands_in_config(capsys):
    assert main(["eigen", "--dump-config", "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_missing_config_file_exits_1(tmp_path):
    assert main(["eigen", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_exits_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["eigen", "--config", str(cfg)]) == 1


def test_unknown_config_key_exits_1(tmp_path):
    cfg = write_config(tmp_path / "bad.json", dict(GOOD_CONFIG, bogus=1))
    assert main(["eigen", "--config", cfg]) == 1


@pytest.mark.parametrize("nx", ["41.7", "1e400"])
def test_non_integral_node_count_exits_1(tmp_path, capsys, nx):
    # 1e400 parses as inf
    text = json.dumps(GOOD_CONFIG).replace('"nx": 41', f'"nx": {nx}')
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["eigen", "--config", str(cfg), "--dump-config"]) == 1
    assert "config field nx must be an integer" in capsys.readouterr().err


def test_integral_float_counts_are_stored_as_int(tmp_path, capsys):
    floats = dict(GOOD_CONFIG, nx=41.0, M=21.0, n_particles=4e3)
    cfg = write_config(tmp_path / "floats.json", floats)
    assert main(["eigen", "--config", cfg, "--dump-config"]) == 0
    # compared as text: 41.0 == 41 once parsed
    assert capsys.readouterr().out == ExperimentConfig.from_dict(GOOD_CONFIG).to_json() + "\n"
    assert ExperimentConfig.from_dict(floats).eigen_hash() == (
        ExperimentConfig.from_dict(GOOD_CONFIG).eigen_hash()
    )


def test_nondividing_dt_exits_1(tmp_path):
    cfg = write_config(tmp_path / "bad.json", dict(GOOD_CONFIG, dt=0.3))
    assert main(["eigen", "--config", cfg]) == 1


def test_impossible_mode_count_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", dict(GOOD_CONFIG, nx=5, ny=5, M=30, n_particles=10)
    )
    for command in ("eigen", "optimize", "validate", "all"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2, command
        assert "eigensolver failed" in capsys.readouterr().err


def test_rollout_blowup_exits_3(tmp_path, capsys):
    # the very first rollout of the initial guess overflows
    cfg = write_config(tmp_path / "cfg.json", dict(BAD_CONFIG, u1_init=1e6))
    out = tmp_path / "run"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 3
    assert "optimizer failed" in capsys.readouterr().err
    assert not (out / "controls.csv").exists()


def test_validate_rejects_controls_of_another_design(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", BAD_CONFIG)
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--max-iters", "50"]) == 0
    designed = json.loads((out / "report.json").read_text())["design_hash"]
    assert designed == ExperimentConfig.from_dict(BAD_CONFIG).design_hash()

    # validation-only fields leave the controls valid; this config's
    # consistency gate fails, so validate gets through to exit 4
    revalidate = dict(BAD_CONFIG, seed=3, n_particles=3000, coarse_nx=8, coarse_ny=12)
    assert main(["validate", "--config", write_config(tmp_path / "seed.json", revalidate),
                 "--out", str(out)]) == 4
    assert (out / "validation_summary.json").is_file()
    capsys.readouterr()

    other = dict(BAD_CONFIG, u1_init=0.5)
    assert main(["validate", "--config", write_config(tmp_path / "other.json", other),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert designed in err
    assert ExperimentConfig.from_dict(other).design_hash() in err


def test_validate_rejects_controls_without_design_hash(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", BAD_CONFIG)
    out = tmp_path / "run"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--max-iters", "50"]) == 0
    report = json.loads((out / "report.json").read_text())
    del report["design_hash"]
    (out / "report.json").write_text(json.dumps(report))
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    assert "none recorded" in capsys.readouterr().err
    assert not (out / "validation_summary.json").exists()


# ------------------------------------------------------------- full pipeline


def test_full_pipeline_exits_0(good_run):
    rc, _, _ = good_run
    assert rc == 0


def test_full_pipeline_writes_all_artifacts(good_run):
    _, out, _ = good_run
    expected = [
        "config.json",
        "rho_s.csv",
        "omega_d.csv",
        "controls.csv",
        "reduced_model.json",
        "reduced_states.csv",
        "report.json",
        "diagnostics_optimized.csv",
        "diagnostics_uncontrolled.csv",
        "flux_estimate.csv",
        "validation_summary.json",
        "manifest.json",
    ]
    for name in expected:
        assert (out / name).is_file(), name
    assert list(out.glob("basis_*/eigenvalues.csv"))


def test_manifest_digests_and_figures(good_run):
    _, out, _ = good_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "fpcirc"}
    for name, art in manifest["artifacts"].items():
        p = out / art["path"]
        if p.is_file():
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            assert digest == art["sha256"], name
    figures = manifest["figures"]
    for key in ("fig1", "fig2", "fig3", "fig4_optimized", "fig4_uncontrolled", "fig5"):
        assert key in figures


def test_all_validation_gates_pass_on_good_config(good_run):
    _, out, _ = good_run
    summary = json.loads((out / "validation_summary.json").read_text())
    failing = [k for k, g in summary["gates"].items() if not g["pass"]]
    assert failing == []


def test_report_history_is_monotone(good_run):
    _, out, _ = good_run
    report = json.loads((out / "report.json").read_text())
    hist = report["objective_history"]
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert report["grad_check_max_rel_error"] is None
    assert report["objective"] == hist[-1]


def test_all_manifest_keeps_eigensolve_time(good_run):
    # optimize and validate reuse the basis that eigen just computed; that
    # must not overwrite the eigensolve time
    _, out, _ = good_run
    manifest = json.loads((out.parent / "manifest_all.json").read_text())
    assert manifest["timings"]["eigen"] > 0.0


def test_all_reuses_basis_and_matches_separate_stages(tmp_path, monkeypatch):
    from fpcirc import cli

    # the small failing config runs every stage fastest; validate exits 4
    cfg = write_config(tmp_path / "cfg.json", BAD_CONFIG)
    staged = tmp_path / "staged"
    rcs = [main([stage, "--config", cfg, "--out", str(staged), "--max-iters", "400"])
           for stage in ("eigen", "optimize", "validate")]
    assert rcs == [0, 0, 4]

    def no_load(directory):
        raise AssertionError("`all` reloaded the basis it computed")

    calls = []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    monkeypatch.setattr(cli.SpectralBasis, "load", no_load)
    monkeypatch.setattr(cli.RunManifest, "add_dir_artifact",
                        counted("add_dir_artifact", cli.RunManifest.add_dir_artifact))
    for name in ("eigenbasis", "assemble_reduced_model", "reference_problem"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    together = tmp_path / "together"
    assert main(["all", "--config", cfg, "--out", str(together), "--max-iters", "400"]) == 4
    assert sorted(calls) == ["add_dir_artifact", "assemble_reduced_model",
                             "eigenbasis", "reference_problem"]
    files = run_outputs(together)
    assert any(name.endswith(".csv") for name in files)
    assert files == run_outputs(staged)


def test_old_csv_basis_cache_is_recomputed(good_run, tmp_path):
    # the cache layout before the binary file: one CSV per mode plus rho_s.csv
    _, good_out, cfg_path = good_run
    out = tmp_path / "run"
    shutil.copytree(good_out, out)
    bdir = next(out.glob("basis_*"))
    fresh = {p.name: p.read_bytes() for p in bdir.iterdir()}
    basis = SpectralBasis.load(bdir)
    (bdir / SpectralBasis.ARRAYS_FILE).unlink()
    files = []
    for m, mode in enumerate(basis.modes):
        files.append(f"mode_{m:03d}.csv")
        write_scalar_csv(ScalarField(basis.grid, mode), bdir / files[-1])
    write_scalar_csv(basis.rho_s, bdir / "rho_s.csv")
    manifest = json.loads((bdir / "manifest.json").read_text())
    (bdir / "manifest.json").write_text(json.dumps(dict(manifest, files=files)))

    assert main(["validate", "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["timings"]["eigen"] > 0.0
    assert {p.name: p.read_bytes() for p in bdir.iterdir()} == fresh


def test_validate_reuses_cached_basis_and_controls(good_run, capsys):
    rc0, out, cfg_path = good_run
    assert rc0 == 0
    rc = main(["validate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["timings"]["eigen"] == 0.0
    assert "optimize" not in manifest["timings"]  # controls.csv was reused


def test_validation_failure_exits_4_and_names_gate(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", BAD_CONFIG)
    out = tmp_path / "run"
    rc = main(["all", "--config", cfg, "--out", str(out), "--max-iters", "400"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "reduced_full_consistency" in captured.err
    summary = json.loads((out / "validation_summary.json").read_text())
    gate = summary["gates"]["reduced_full_consistency"]
    assert not gate["pass"]
    assert gate["initial_truncation_ratio"] > 0.5


def test_check_grad_records_result(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", BAD_CONFIG)
    out = tmp_path / "run"
    rc = main([
        "optimize", "--config", cfg, "--out", str(out),
        "--check-grad", "--max-iters", "5",
    ])
    assert rc == 0
    assert "gradient check" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["grad_check_max_rel_error"] < 1e-6
