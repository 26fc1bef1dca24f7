"""Command-line pipeline: eigenbasis, reduction, optimization, validation.

Every run first builds its study once: the problem, the generator and
its two control operators (assembled once), the eigenbasis (loaded from
the cache keyed by the fields that determine it, or computed and
cached), the reduced model and the initial state.  The
subcommands then share it and compose through an output directory:
`eigen` reports the basis, `optimize` writes the control and
reduced-trajectory artifacts, `validate` replays the full equation and
the particle ensemble and grades the run.  `all` runs the three in
order.  Every artifact is listed in manifest.json with a content
digest; the outputs are deterministic for a fixed config and seed.

Exit codes: 0 ok, 1 config error (including controls designed under
another config), 2 eigensolver failure, 3 optimizer failure, 4
validation gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .fields import ScalarField, _write_rows, write_scalar_csv
from .problem import (
    ExperimentConfig,
    ReferenceProblem,
    build_initial_density,
    desired_vorticity,
    reference_problem,
    validate_shape_bcs,
)
from .operators import (
    ControlledOperator,
    EigensolverError,
    SpectralBasis,
    controlled_operator,
    eigenbasis,
)
from .reduction import ReducedModel, assemble_reduced_model, consistency_tracker, project
from .control import (
    ControlTrajectory,
    LineSearchError,
    RolloutBlowupError,
    check_gradient,
    optimize,
    rollout_state,
    total_variation,
)
from .pde import compute_flux, integrate_fpe, vorticity_error
from .particles import (
    angular_momentum,
    estimate_flux,
    histogram_tv_distance,
    sample_initial,
    simulate,
)
from .gates import CIRCULATION_RADIUS, settling_ratio, validation_gates

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EIGEN = 2
EXIT_OPTIMIZER = 3
EXIT_VALIDATION = 4


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class RunManifest:
    """Accumulates artifacts, timings and residuals; serialized as JSON."""

    def __init__(self, out_dir: Path, config: ExperimentConfig):
        self.out_dir = out_dir
        self.data = {
            "config_hash": config.config_hash(),
            "eigen_hash": config.eigen_hash(),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "fpcirc": __version__,
            },
            "artifacts": {},
            "figures": {},
            "timings": {},
            "residuals": {},
            "gates": {},
        }

    def add_artifact(self, name: str, path: Path, figure: str | None = None) -> None:
        rel = str(Path(path).relative_to(self.out_dir))
        self.data["artifacts"][name] = {"path": rel, "sha256": _sha256(path)}
        if figure:
            self.data["figures"][figure] = rel

    def add_dir_artifact(self, name: str, path: Path) -> None:
        files = sorted(p for p in Path(path).rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for p in files:
            digest.update(p.name.encode())
            digest.update(bytes.fromhex(_sha256(p)))
        self.data["artifacts"][name] = {
            "path": str(Path(path).relative_to(self.out_dir)),
            "sha256": digest.hexdigest(),
            "n_files": len(files),
        }

    def write(self) -> None:
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        text = Path(args.config).read_text()
        cfg = ExperimentConfig.from_json(text)
    else:
        cfg = ExperimentConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
    return cfg


def _basis_dir(out: Path, cfg: ExperimentConfig) -> Path:
    return out / f"basis_{cfg.eigen_hash()[:16]}"


class Study(NamedTuple):
    """What every stage of a run shares, built once per run."""

    prob: ReferenceProblem
    op: ControlledOperator
    basis: SpectralBasis
    model: ReducedModel
    omega_d: ScalarField
    rho0: ScalarField
    c0: np.ndarray


def _get_basis(out: Path, cfg: ExperimentConfig, op: ControlledOperator, manifest: RunManifest):
    """The run's eigenbasis: loaded from the cache, or computed and cached.

    A directory that is not a complete cache (an older layout, or a
    save cut short) is replaced.
    """
    bdir = _basis_dir(out, cfg)
    if SpectralBasis.is_cached(bdir):
        basis = SpectralBasis.load(bdir)
        manifest.data["timings"]["eigen"] = 0.0
    else:
        shutil.rmtree(bdir, ignore_errors=True)
        t0 = time.perf_counter()
        basis = eigenbasis(op, cfg.M)
        manifest.data["timings"]["eigen"] = time.perf_counter() - t0
        basis.save(bdir)
    manifest.data["residuals"]["eigen"] = basis.residuals
    manifest.add_dir_artifact("basis", bdir)
    return basis


def build_study(cfg: ExperimentConfig, out: Path, manifest: RunManifest) -> Study:
    """Build the run's study and write rho_s.csv and omega_d.csv.

    Raises EigensolverError when the basis is not cached and cannot be
    computed.
    """
    prob = reference_problem(cfg)
    op = controlled_operator(prob.shapes, prob.rho_s, prob.w, cfg.D)
    basis = _get_basis(out, cfg, op, manifest)
    omega_d = desired_vorticity(prob.shapes)
    model = assemble_reduced_model(basis, op, prob.shapes, omega_d)
    rho0 = build_initial_density(prob.initial, prob.grid, prob.w)
    rho_path = out / "rho_s.csv"
    write_scalar_csv(prob.rho_s, rho_path)
    manifest.add_artifact("rho_s", rho_path, figure="fig1")
    om_path = out / "omega_d.csv"
    write_scalar_csv(omega_d, om_path)
    manifest.add_artifact("omega_d", om_path, figure="fig2")
    return Study(prob, op, basis, model, omega_d, rho0, project(rho0, basis))


def cmd_eigen(study: Study, out: Path, manifest: RunManifest, args) -> int:
    bc = validate_shape_bcs(study.prob.shapes)
    manifest.data["residuals"]["shape_bcs"] = {
        "max_alpha_normal": bc.max_alpha_normal,
        "max_phi_perp_normal": bc.max_phi_perp_normal,
        "alpha_ok": bc.alpha_ok,
        "phi_ok": bc.phi_ok,
    }
    basis = study.basis
    print(f"eigenbasis ({basis.M} modes), residuals "
          f"{json.dumps(basis.residuals, default=str)}")
    print(" m  lambda")
    for m, lam in enumerate(basis.eigenvalues):
        print(f"{m:3d}  {lam: .6f}")
    return EXIT_OK


def _write_reduced_states(path: Path, traj: ControlTrajectory, C: np.ndarray) -> None:
    times = np.concatenate([traj.times, [traj.tf]])
    _write_rows(path, ["t"] + [f"c{m}" for m in range(C.shape[1])], [times, *C.T])


def cmd_optimize(study: Study, out: Path, manifest: RunManifest, args) -> int:
    cfg, model, c0 = study.prob.config, study.model, study.c0
    traj0 = ControlTrajectory.from_constant(
        cfg.t0, cfg.tf, cfg.dt, cfg.u1_init, cfg.u2_init
    )

    grad_check = None
    if args.check_grad:
        grad_check = check_gradient(
            model, traj0, c0, cfg.weights, n_directions=20, eps=1e-6, seed=cfg.seed
        )
        print(f"gradient check: max relative error {grad_check:.3e}")

    t0 = time.perf_counter()
    try:
        report = optimize(
            model, traj0, c0, cfg.weights,
            gtol=args.gtol, max_iterations=args.max_iters,
        )
    except (LineSearchError, RolloutBlowupError) as exc:
        print(f"optimizer failed: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    elapsed = time.perf_counter() - t0
    manifest.data["timings"]["optimize"] = elapsed

    traj = report.trajectory
    controls_path = out / "controls.csv"
    traj.write_csv(controls_path)
    manifest.add_artifact("controls", controls_path, figure="fig3")

    model_path = out / "reduced_model.json"
    model.save(model_path)
    manifest.add_artifact("reduced_model", model_path)

    C = rollout_state(model, traj, c0)
    states_path = out / "reduced_states.csv"
    _write_reduced_states(states_path, traj, C)
    manifest.add_artifact("reduced_states", states_path)

    rep = dict(report.summary())
    rep["objective_history"] = report.objective_history
    rep["grad_check_max_rel_error"] = grad_check
    rep["design_hash"] = cfg.design_hash()
    rep["total_variation"] = {
        "u1": total_variation(traj.u1),
        "u2": total_variation(traj.u2),
    }
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(rep, fh, indent=2)
    manifest.add_artifact("report", report_path)
    manifest.data["residuals"]["optimizer"] = report.summary()

    print(
        f"optimize: J {report.objective_history[0]:.4f} -> {report.objective:.4f} "
        f"in {report.n_iterations} iterations ({elapsed:.1f}s), "
        f"stationarity {report.stationarity:.3e}"
    )
    return EXIT_OK


def _stale_controls(out: Path, cfg: ExperimentConfig) -> str | None:
    """Why out/controls.csv was not designed under cfg, or None if it was.

    optimize records the config's design hash in report.json; seed,
    particle count and histogram fields do not enter it.
    """
    try:
        recorded = json.loads((out / "report.json").read_text()).get("design_hash")
    except (OSError, ValueError):
        recorded = None
    current = cfg.design_hash()
    if recorded == current:
        return None
    return (f"controls.csv was designed under design hash {recorded or '(none recorded)'}, "
            f"the current config has {current}; rerun optimize")


def cmd_validate(study: Study, out: Path, manifest: RunManifest, args) -> int:
    prob, op, basis, model, omega_d, rho0, c0 = study
    cfg = prob.config
    controls_path = out / "controls.csv"
    if not controls_path.exists():
        rc = cmd_optimize(study, out, manifest, args)
        if rc != EXIT_OK:
            return rc
    stale = _stale_controls(out, cfg)
    if stale is not None:
        print(f"stale controls: {stale}", file=sys.stderr)
        return EXIT_CONFIG
    traj = ControlTrajectory.read_csv(controls_path)

    u_zero = ControlTrajectory.from_constant(cfg.t0, cfg.tf, cfg.dt, 0.0, 0.0)
    ratios, track_ratio = consistency_tracker(rollout_state(model, traj, c0), basis, rho0)

    t0 = time.perf_counter()
    res_opt = integrate_fpe(
        op, rho0, traj, prob.shapes, omega_d,
        snapshot_every=args.snapshot_every,
        snapshot_dir=(out / "snapshots") if args.snapshot_every else None,
        callback=track_ratio,
    )
    res_unc = integrate_fpe(op, rho0, u_zero, prob.shapes, omega_d)
    manifest.data["timings"]["pde"] = time.perf_counter() - t0

    d_opt = out / "diagnostics_optimized.csv"
    res_opt.series.write_csv(d_opt)
    manifest.add_artifact("diagnostics_optimized", d_opt, figure="fig4_optimized")
    d_unc = out / "diagnostics_uncontrolled.csv"
    res_unc.series.write_csv(d_unc)
    manifest.add_artifact("diagnostics_uncontrolled", d_unc, figure="fig4_uncontrolled")

    t0 = time.perf_counter()
    ens = sample_initial(prob.initial, cfg.n_particles, cfg.seed, cfg.L)
    (ens_opt, rec_opt), (ens_unc, rec_unc) = simulate(
        ens, [traj, u_zero], prob.shapes,
        velocity_window=cfg.velocity_window, em_substeps=cfg.em_substeps,
    )
    manifest.data["timings"]["particles"] = time.perf_counter() - t0

    flux_est = estimate_flux(ens_opt, rec_opt, cfg.coarse_nx, cfg.coarse_ny)
    flux_path = out / "flux_estimate.csv"
    flux_est.write_csv(flux_path)
    manifest.add_artifact("flux_estimate", flux_path, figure="fig5")

    tv_opt = histogram_tv_distance(
        ens_opt, res_opt.final_density, prob.w, cfg.coarse_nx, cfg.coarse_ny
    )
    tv_unc = histogram_tv_distance(
        ens_unc, res_unc.final_density, prob.w, cfg.coarse_nx, cfg.coarse_ny
    )

    gates = validation_gates(
        res_opt.series, res_unc.series, ratios, basis.eigenvalues, c0,
        angular_momentum(rec_opt, CIRCULATION_RADIUS),
        angular_momentum(rec_unc, CIRCULATION_RADIUS),
        tv_opt, tv_unc, t0=cfg.t0, tf=cfg.tf, dt=traj.dt,
    )
    e_om01 = vorticity_error(
        compute_flux(rho0, 0.0, 1.0, prob.shapes, prob.rho_s),
        omega_d, prob.rho_s, prob.w,
    )
    extras = {
        "e_omega_final_optimized": float(res_opt.series.e_omega[-1]),
        "e_omega_initial_u01": float(e_om01),
        "e_omega_settling_ratio": settling_ratio(res_opt.series.e_omega[-1], e_om01),
        "boundary_flux_ratio_max": res_opt.boundary_flux_ratio_max,
        "n_factorizations": res_opt.n_factorizations,
        "n_refine_sweeps": res_opt.n_refine_sweeps,
    }

    manifest.data["gates"] = gates
    summary_path = out / "validation_summary.json"
    with open(summary_path, "w") as fh:
        json.dump({"gates": gates, "extras": extras}, fh, indent=2, sort_keys=True)
    manifest.add_artifact("validation_summary", summary_path)

    failing = [name for name, g in gates.items() if not g["pass"]]
    for name, g in gates.items():
        print(f"  [{'PASS' if g['pass'] else 'FAIL'}] {name}: "
              f"{json.dumps({k: v for k, v in g.items() if k != 'pass'}, default=str)}")
    if failing:
        print(f"validation gates failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fpcirc",
        description="Design and validate circulation-inducing controls for "
        "an overdamped diffusion in a box.",
    )
    p.add_argument("command", choices=["eigen", "optimize", "validate", "all"])
    p.add_argument("--config", help="JSON config path (defaults: reference study)")
    p.add_argument("--out", default="runs/latest", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--check-grad", action="store_true",
                   help="finite-difference check of the adjoint gradient")
    p.add_argument("--gtol", type=float, default=1e-8,
                   help="gradient max-norm tolerance")
    p.add_argument("--max-iters", type=int, default=2000,
                   help="optimizer iteration cap")
    p.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                   help="write density snapshots every K steps during validate")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved config and exit")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        print(cfg.to_json())
        return EXIT_OK

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    manifest = RunManifest(out, cfg)
    manifest.add_artifact("config", out / "config.json")
    try:
        study = build_study(cfg, out, manifest)
    except EigensolverError as exc:
        print(f"eigensolver failed: {exc}", file=sys.stderr)
        manifest.write()
        return EXIT_EIGEN

    steps = {
        "eigen": [cmd_eigen],
        "optimize": [cmd_optimize],
        "validate": [cmd_validate],
        "all": [cmd_eigen, cmd_optimize, cmd_validate],
    }[args.command]
    rc = EXIT_OK
    for step in steps:
        rc = step(study, out, manifest, args)
        if rc != EXIT_OK:
            break
    manifest.write()
    return rc


if __name__ == "__main__":
    sys.exit(main())
