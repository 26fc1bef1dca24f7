"""Run the fpcirc command line with spans recorded around its layers.

    python3 benchmark/traced.py SPANS_JSON fpcirc-arguments...

The program is imported from the checkout's ``src`` (PYTHONPATH), its
public functions and methods are wrapped from here, without changing a
program file, and ``fpcirc.cli.main`` runs with the remaining
arguments.  Spans stay in memory and are written to SPANS_JSON when
main returns.  The recorder keeps one stack, so it
assumes the program runs on one thread (FPCIRC_THREADS=1).

If BENCH_SPAWN_WALL holds the wall-clock time at which the parent
started this process, the seconds from then to the call of main are
recorded as ``startup_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types

# Span names, grouped by layer.  Each entry: (span, module, attribute
# path, scope).  scope "all" rebinds the function in every fpcirc module
# that imported it; "own" only in the named module, so that only the
# calls made from there are timed.
TARGETS = [
    ("operators.eigenbasis", "fpcirc.operators", "eigenbasis", "all"),
    ("operators.assemble_generator", "fpcirc.operators", "assemble_generator", "all"),
    ("operators.assemble_control", "fpcirc.operators", "assemble_control_operators", "all"),
    ("operators.basis_save", "fpcirc.operators", "SpectralBasis.save", "all"),
    ("operators.basis_load", "fpcirc.operators", "SpectralBasis.load", "all"),
    ("reduction.assemble", "fpcirc.reduction", "assemble_reduced_model", "all"),
    ("reduction.reconstruct", "fpcirc.reduction", "reconstruct", "all"),
    ("control.optimize", "fpcirc.control", "optimize", "all"),
    ("control.objective_and_gradient", "fpcirc.control", "objective_and_gradient", "all"),
    ("control.objective", "fpcirc.control", "objective", "all"),
    ("control.rollout", "fpcirc.control", "rollout_state", "all"),
    ("pde.integrate", "fpcirc.pde", "integrate_fpe", "all"),
    ("pde.step", "fpcirc.pde", "ImplicitStepper.step", "all"),
    ("pde.compute_flux", "fpcirc.pde", "compute_flux", "own"),
    ("pde.weighted_norm", "fpcirc.pde", "weighted_norm", "own"),
    ("particles.sample", "fpcirc.particles", "sample_initial", "all"),
    ("particles.simulate", "fpcirc.particles", "simulate", "all"),
    ("particles.em_step", "fpcirc.particles", "em_step", "all"),
    ("particles.potential_grad", "fpcirc.problem", "QuadraticPotential.grad", "all"),
    ("particles.grad_alpha", "fpcirc.problem", "ShapeFunctions.grad_alpha_at", "all"),
    ("particles.scaled_perp_phi", "fpcirc.problem", "ShapeFunctions.scaled_perp_phi_at", "all"),
    ("particles.estimate_flux", "fpcirc.particles", "estimate_flux", "all"),
    ("particles.angular_momentum", "fpcirc.particles", "angular_momentum", "all"),
    ("particles.histogram_tv", "fpcirc.particles", "histogram_tv_distance", "all"),
    ("fields.write_scalar_csv", "fpcirc.fields", "write_scalar_csv", "all"),
    ("cli.write.controls", "fpcirc.control", "ControlTrajectory.write_csv", "all"),
    ("cli.write.reduced_model", "fpcirc.reduction", "ReducedModel.save", "all"),
    ("cli.write.diagnostics", "fpcirc.pde", "DiagnosticsSeries.write_csv", "all"),
    ("cli.write.flux", "fpcirc.particles", "FluxEstimate.write_csv", "all"),
    ("cli.write.manifest", "fpcirc.cli", "RunManifest.write", "all"),
    ("cli.digest", "fpcirc.cli", "RunManifest.add_artifact", "all"),
    ("cli.digest_dir", "fpcirc.cli", "RunManifest.add_dir_artifact", "all"),
]


class Recorder:
    """Nested spans [name, parent index, start, end] in perf_counter seconds."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()

        return traced


class _Proxy(types.ModuleType):
    """A module stand-in whose listed attributes are replaced."""

    def __init__(self, module, **replaced) -> None:
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(recorder: Recorder) -> None:
    """Wrap every target in the imported fpcirc modules."""
    import importlib

    modules = {
        name: importlib.import_module(name)
        for name in ("fpcirc.fields", "fpcirc.problem", "fpcirc.operators", "fpcirc.reduction",
                     "fpcirc.control", "fpcirc.pde", "fpcirc.particles", "fpcirc.cli")
    }
    for span, modname, path, scope in TARGETS:
        owner = modules[modname]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(recorder.wrap(span, raw.__func__)))
            else:
                setattr(owner, attr, recorder.wrap(span, raw))
            continue
        orig = getattr(owner, attr)
        wrapped = recorder.wrap(span, orig)
        targets = [owner] if scope == "own" else list(modules.values())
        for mod in targets:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
    # splu as the full-grid stepper calls it (the eigensolver's own
    # factorization goes through scipy internals and is not counted)
    pde = modules["fpcirc.pde"]
    pde.spla = _Proxy(pde.spla, splu=recorder.wrap("pde.splu", pde.spla.splu))


class SpanTable:
    """The spans of one traced process, with durations and self times."""

    def __init__(self, doc: dict) -> None:
        self.startup_s = doc["startup_s"] or 0.0
        self.spans = doc["spans"]
        self.dur = [end - start for _, _, start, end in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, parent, _, _), d in zip(self.spans, self.dur):
            if parent >= 0:
                covered[parent] += d
        self.self_time = [d - c for d, c in zip(self.dur, covered)]

    def _ancestors(self, i: int):
        parent = self.spans[i][1]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][1]

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def total(self, *names: str, under: str | None = None) -> float:
        """Wall seconds inside spans of these names, nested calls counted once.

        With under, only spans that run inside a span of that name count.
        """
        names_set = set(names)
        out = 0.0
        for i, (name, *_rest) in enumerate(self.spans):
            if name not in names_set:
                continue
            ancestors = set(self._ancestors(i))
            if ancestors & names_set or (under is not None and under not in ancestors):
                continue
            out += self.dur[i]
        return out

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] == name)


def layer_metrics(tables: list[SpanTable], iterations: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its processes.

    iterations is the optimizer iteration count from the round's
    report.json files; means per call are 0 when there was no call.
    """

    def total(*names, under=None):
        return sum(t.total(*names, under=under) for t in tables)

    def count(*names):
        return sum(t.count(*names) for t in tables)

    def mean_ms(seconds, calls):
        return 1e3 * seconds / calls if calls else 0.0

    evaluations = count("control.objective", "control.objective_and_gradient")
    n_og = count("control.objective_and_gradient")
    simulate_s = total("particles.simulate")
    substeps = count("particles.em_step")
    return {
        "operators.eigenbasis_s": total("operators.eigenbasis"),
        "operators.assemble_s": total("operators.assemble_generator", "operators.assemble_control"),
        "operators.basis_save_s": total("operators.basis_save"),
        "operators.basis_load_s": total("operators.basis_load"),
        "operators.basis_loads": count("operators.basis_load"),
        "reduction.assemble_s": total("reduction.assemble"),
        "reduction.reconstruct_s": total("reduction.reconstruct"),
        "reduction.reconstructs": count("reduction.reconstruct"),
        "control.optimize_s": total("control.optimize"),
        "control.iterations": iterations,
        "control.evaluations": evaluations,
        "control.evaluations_per_iteration": evaluations / iterations if iterations else 0.0,
        "control.objective_gradient_ms": mean_ms(total("control.objective_and_gradient"), n_og),
        "control.objective_ms": mean_ms(total("control.objective"), count("control.objective")),
        "control.rollout_ms": mean_ms(total("control.rollout"), count("control.rollout")),
        "control.adjoint_ms": mean_ms(
            sum(t.self_total("control.objective_and_gradient") for t in tables), n_og
        ),
        "pde.integrate_s": total("pde.integrate"),
        "pde.factorizations": count("pde.splu"),
        "pde.factorize_ms": mean_ms(total("pde.splu"), count("pde.splu")),
        "pde.solve_s": sum((t.self_total("pde.step") for t in tables), 0.0),
        "pde.diagnostics_s": total("pde.compute_flux", "pde.weighted_norm", under="pde.integrate"),
        "particles.simulate_s": simulate_s,
        "particles.substeps": substeps,
        "particles.substeps_per_s": substeps / simulate_s if simulate_s else 0.0,
        "particles.drift_s": total(
            "particles.potential_grad", "particles.grad_alpha", "particles.scaled_perp_phi",
            under="particles.em_step",
        ),
        "particles.sample_s": total("particles.sample"),
        "particles.analysis_s": total(
            "particles.estimate_flux", "particles.angular_momentum", "particles.histogram_tv"
        ),
        "fields.csv_write_s": total("fields.write_scalar_csv"),
        "fields.csv_files": count("fields.write_scalar_csv"),
        "cli.import_s": sum(t.startup_s for t in tables),
        "cli.artifact_write_s": total(
            "cli.write.controls", "cli.write.reduced_model", "cli.write.diagnostics",
            "cli.write.flux", "cli.write.manifest",
        ),
        "cli.digest_s": total("cli.digest", "cli.digest_dir"),
    }


def main(argv: list[str]) -> int:
    spans_path, program_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import fpcirc.cli

    spawn = os.environ.get("BENCH_SPAWN_WALL")
    startup = time.time() - float(spawn) if spawn else None
    try:
        rc = fpcirc.cli.main(program_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"startup_s": startup, "spans": recorder.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
