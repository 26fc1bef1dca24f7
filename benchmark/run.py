"""Benchmark of the fpcirc command line, timed end to end and per module.

    python3 benchmark/run.py --workload {study,revalidate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src``.  One harness process starts one program process at a time (a
closed loop), each with one BLAS thread and one particle thread, all on
one core, beside the speed probe of speed.py.  After
the workload's set-up, whole rounds run until the next one would end
past S seconds (always at least one).  Every round's outputs are checked
against references computed in checks.py, which imports nothing from
fpcirc.  With --trace 1 one more round runs under traced.py, which
times the program's modules from outside.

The last line of standard output is one JSON object: correct, attempted
and failed operations (one operation is one program invocation with its
output checks), and the metrics: round_s, peak_rss_mib and setup_s with
--trace 0, the per-layer metrics with --trace 1.  round_s and setup_s
are in seconds at the probe's reference speed; the line before the
result has the raw wall seconds and the probe's slowdown.  Work
directories go to benchmark/work/ and are removed at the end of the run.
"""

import time

_T_START = time.perf_counter()  # the run's deadline counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import traced  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fixed, not defaults: the optimizer's stopping iteration, and so every
# artifact, depends on the BLAS thread count.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FPCIRC_THREADS": "1",
}
SNAPSHOT_EVERY = 20
N_SNAPSHOTS = checks.N_STEPS // SNAPSHOT_EVERY + 1
EM_SUBSTEPS = 2
DEADLINE_S = 170.0  # the whole run must end within 180 s


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


@dataclass
class Invocation:
    args: list
    rc: int
    wall_s: float
    rss_mib: float
    log: Path
    ref_s: float  # wall_s at the probe's reference speed


@dataclass
class Round:
    wall_s: float = 0.0
    ref_s: float = 0.0
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    iterations: int = 0


class Runner:
    """Starts program processes one at a time and records wall and RSS.

    With a probe, each process's wall time is also converted to the
    probe's reference speed; without one, ref_s is the wall time.
    """

    def __init__(self, work: Path, probe: speed.Probe | None = None) -> None:
        self.work = work
        self.probe = probe
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.n = 0
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
        env.update(PINNED_ENV, PYTHONPATH=str(SRC))
        self.env = env

    def fpcirc(self, args, spans: Path | None = None) -> Invocation:
        args = [str(a) for a in args]
        self.n += 1
        log = self.logs / f"{self.n:03d}_{args[0]}.log"
        env = dict(self.env)
        if spans is None:
            cmd = [sys.executable, "-m", "fpcirc.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), *args]
        timeout = DEADLINE_S - (time.perf_counter() - _T_START)
        if timeout <= 0:
            raise TimeoutError("no time left in the run")
        with open(log, "w") as fh:
            env["BENCH_SPAWN_WALL"] = repr(time.time())
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ref = self.probe.reference_seconds(t0, t1) if self.probe else t1 - t0
        return Invocation(args, proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0, log, ref)


def _file_stats(root: Path) -> dict:
    """(mtime, size) of every file under root."""
    return {p: (st.st_mtime_ns, st.st_size) for p in root.rglob("*") if p.is_file() for st in [p.stat()]}


def _written_bytes(root: Path, before: dict) -> int:
    """Size of the files under root that are new or changed since before."""
    return sum(stat[1] for p, stat in _file_stats(root).items() if before.get(p) != stat)


class Workload:
    """Set-up once, then rounds; each round returns a Round."""

    name = ""

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed
        self.work = runner.work

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, spans_dir: Path | None) -> Round:
        raise NotImplementedError

    # helpers -----------------------------------------------------------

    def _setup_call(self, args) -> None:
        inv = self.runner.fpcirc(args)
        if inv.rc != 0:
            raise SetupError(f"set-up `fpcirc {' '.join(inv.args)}` exited {inv.rc}; see {inv.log}")

    def _operation(self, rnd: Round, args, spans_dir, tag, check) -> None:
        """One invocation plus its checks; check(span_table) may raise CheckFailed."""
        spans = spans_dir / f"{tag}.json" if spans_dir is not None else None
        inv = self.runner.fpcirc(args, spans)
        rnd.attempted += 1
        rnd.wall_s += inv.wall_s
        rnd.ref_s += inv.ref_s
        rnd.rss_mib = max(rnd.rss_mib, inv.rss_mib)
        if inv.rc != 0:
            # fpcirc exits non-zero when a validation gate fails, so this is
            # a wrong output as much as a failed operation
            rnd.failed += 1
            rnd.wrong.append(f"`fpcirc {' '.join(inv.args)}` exited {inv.rc}; see {inv.log}")
            return
        table = None
        if spans is not None:
            table = traced.SpanTable(json.loads(spans.read_text()))
            rnd.spans.append(table)
        try:
            check(table)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            rnd.failed += 1
            rnd.wrong.append(f"{tag}: {exc}")


def _check_evaluations(table, out: Path) -> int:
    """Wrapper-counted objective calls equal report.json's n_evaluations.

    Returns the report's iteration count.
    """
    report = json.loads((out / "report.json").read_text())
    counted = table.count("control.objective", "control.objective_and_gradient")
    if counted != report["n_evaluations"]:
        raise checks.CheckFailed(f"{out}: {counted} objective calls traced, report says {report['n_evaluations']}")
    return int(report["n_iterations"])


def _check_validation_counts(table, out: Path) -> None:
    """splu calls = n_factorizations + 1 (uncontrolled); em_step = 2 K substeps."""
    extras = json.loads((out / "validation_summary.json").read_text())["extras"]
    splu = table.count("pde.splu")
    if splu != extras["n_factorizations"] + 1:
        raise checks.CheckFailed(f"{out}: {splu} splu calls traced, summary says {extras['n_factorizations']} + 1")
    em = table.count("particles.em_step")
    if em != 2 * checks.N_STEPS * EM_SUBSTEPS:
        raise checks.CheckFailed(f"{out}: {em} em_step calls, expected {2 * checks.N_STEPS * EM_SUBSTEPS}")


class Study(Workload):
    """`fpcirc all` at the reference config into a fresh directory."""

    name = "study"

    def setup(self) -> None:
        # warm-up start of the command line: imports and the file cache
        self._setup_call(["all", "--dump-config"])
        self.first_csvs = None

    def round(self, index, spans_dir) -> Round:
        rnd = Round()
        out = self.work / f"study_{index}"

        def check(table):
            checks.check_study(out)
            digests = checks.file_digests(out)
            if self.first_csvs is None:
                self.first_csvs = digests
            checks.check_same_files(self.first_csvs, digests, f"{out} CSVs vs the run's first round")
            if table is not None:
                rnd.iterations += _check_evaluations(table, out)
                _check_validation_counts(table, out)

        self._operation(rnd, ["all", "--seed", self.seed, "--out", out], spans_dir, "all", check)
        self.bytes_written = _written_bytes(out, {}) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        return rnd


class Revalidate(Workload):
    """`fpcirc validate` with snapshots on a directory optimized at set-up."""

    name = "revalidate"

    def setup(self) -> None:
        self.out = self.work / "study"
        self._setup_call(["eigen", "--out", self.out])
        self._setup_call(["optimize", "--out", self.out])
        self.kept = self._kept_digests()

    def _kept_digests(self) -> dict:
        digests = checks.file_digests(checks.basis_dir(self.out), "*")
        digests.update(checks.file_digests(self.out, "controls.csv"))
        return digests

    def round(self, index, spans_dir) -> Round:
        rnd = Round()
        out = self.out
        before = _file_stats(out)

        def check(table):
            checks.check_revalidate(out, N_SNAPSHOTS)
            checks.check_same_files(self.kept, self._kept_digests(), f"{out} basis and controls before/after")
            if table is not None:
                _check_validation_counts(table, out)

        args = ["validate", "--snapshot-every", SNAPSHOT_EVERY, "--seed", self.seed, "--out", out]
        self._operation(rnd, args, spans_dir, "validate", check)
        self.bytes_written = _written_bytes(out, before)
        return rnd


WORKLOADS = {w.name: w for w in (Study, Revalidate)}


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    for mod in (numpy, scipy):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            blas[mod.__name__] = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": PINNED_ENV,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "fpcirc" / "cli.py").is_file():
        raise SetupError(f"no fpcirc source under {SRC}")
    work = BENCH / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    probe = speed.Probe()
    try:
        probe.start()
        wl = WORKLOADS[workload](Runner(work, probe), seed)
        s0 = time.perf_counter()
        wl.setup()
        setup_raw_s = time.perf_counter() - s0
        setup_s = probe.reference_seconds(s0, s0 + setup_raw_s)

        rounds: list[Round] = []
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            rounds.append(wl.round(len(rounds), None))
            longest = max(longest, time.perf_counter() - r0)
            elapsed = time.perf_counter() - t0
            if elapsed + longest > seconds or (time.perf_counter() - _T_START) + 2 * longest > DEADLINE_S:
                break
        walls = [r.wall_s for r in rounds]
        refs = [r.ref_s for r in rounds]
        traced_round = None
        if trace:
            spans_dir = work / "spans"
            spans_dir.mkdir()
            traced_round = wl.round(len(rounds), spans_dir)
            bytes_written = wl.bytes_written
        everything = rounds + ([traced_round] if traced_round else [])
        result = {
            "correct": not any(r.wrong for r in everything),
            "attempted": sum(r.attempted for r in everything),
            "failed": sum(r.failed for r in everything),
        }
        for r in everything:
            for msg in r.wrong:
                print(f"[{workload}] {msg}", file=sys.stderr)
        if trace:
            metrics = traced.layer_metrics(traced_round.spans, traced_round.iterations)
            metrics["cli.bytes_written_mib"] = bytes_written / 2**20
            metrics["trace.overhead_s"] = traced_round.wall_s - statistics.median(walls)
            units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        else:
            metrics = {
                "round_s": statistics.median(refs),
                "peak_rss_mib": max(r.rss_mib for r in rounds),
                "setup_s": setup_s,
            }
            units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
        print(json.dumps({"workload": workload, "rounds": len(rounds), "round_wall_s": walls,
                          "round_ref_s": refs, "setup_wall_s": setup_raw_s,
                          "cores": sorted(os.sched_getaffinity(0)),
                          "probe_slowdown": probe.slowdown(), "environment": environment()}))
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        return result
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)


def _declared(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    speed.pin_to_one_core()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, TimeoutError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
