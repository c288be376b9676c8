"""Closed-loop benchmark of the linksched command line.

    python3 perfbench/run.py --workload train-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One process, one thread: the
benchmark imports ``linksched`` from ``src/`` and drives its commands
in-process through ``linksched.cli.main``, each command waiting for the one
before it. A unit is a few commands on inputs made from ``--seed``; a pass
runs every unit once, and passes repeat until ``--seconds`` is used up.
Every run of a unit must write byte-identical artifacts. Times are scaled
to a reference machine speed by a calibration kernel timed around each
unit (see ``Calibration``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each unit
untraced and then traced, and prints the per-layer metrics, which come from
spans around every public function of the package (see tracer.py). The
metric names and units are read from BENCHMARK.json; the last line of
standard output is the JSON result. README.md in this directory has the
details.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread. numpy is first imported after this, inside setup().
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
# A core that was idle runs at about half speed for up to a second after it
# gets work, so the run keeps it busy this long before timing anything.
SPIN_UP_S = 1.5
MIN_PASSES = 3
SPAN_STATS = ("calls", "self_s", "us_per_call", "ms_p50", "ms_p90")

# The default curriculum, pinned here so that a change of defaults does not
# change the workload. It starts from the identity GCN, so the starting
# weights (and with them how many LGS rounds the schedules take) do not
# depend on the seed.
TRAIN_CONFIG = """\
graph_mix = star30:0.8,ba-m2:0.2
loads = 0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08
horizon = 64
lookahead = 5
batch_size = 64
layer_dims = 1,1
init = identity
"""
TRAIN_HORIZON = 64
TRAIN_NODES = {"star30": 31, "ba-m2": 70}
EVAL_MUS = "0.02,0.07"
# Set-up warms up on the same inputs whatever the seed, so that set-up time
# does not depend on what a seed draws.
WARM_SEED = 0

# Median time of one Calibration.kernel() run on the reference machine
# (2-core x86_64 container, Python 3.11.7, numpy 2.4.6, one BLAS thread).
# Measured times are scaled by CALIBRATION_REF_S / (kernel time around them).
CALIBRATION_REF_S = 0.0085


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class UnitRun:
    """One run of one unit: a few commands on inputs of the unit's own."""

    main_s: float = 0.0          # wall time of the main command
    total_s: float = 0.0         # wall time of all commands of the unit
    link_slots: int = 0          # link-slots simulated by the main command
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    # behaviour samples: per-episode win rates or per-instance ARs
    samples: dict = field(default_factory=dict)
    spans: tuple[int, int] | None = None   # span index range when traced
    scale: float = 1.0           # calibration factor for the times above


class Calibration:
    """A fixed kernel timed around every measured step.

    The machine this runs on is shared, and its speed drifts by tens of
    percent over seconds to minutes; the drift slows the program and this
    kernel alike. The kernel mixes what the program spends its time on:
    masked max over a small boolean adjacency (LGS), a larger boolean
    reduction (dense kernels at V=300), integer bit tricks (exact solver)
    and CSV-line parsing (trace loading). It uses no code of the program, so
    a change to the program does not change it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.np = np
        self.small = rng.random((48, 48)) > 0.8
        self.weights = rng.random(48)
        self.large = rng.random((300, 300)) > 0.9
        self.lines = [f"{t},{v},{(t * 7 + v) % 5},{(t * 13 + v) % 97}"
                      for t in range(40) for v in range(100)]
        self.kernel()
        self.last = self.time()

    def kernel(self) -> float:
        np = self.np
        acc = 0.0
        active = np.ones(48, dtype=bool)
        for i in range(160):
            nbr = self.small & active[None, :]
            best = np.where(nbr, self.weights[None, :], -np.inf).max(axis=1)
            acc += float((self.weights > best).sum())
            active[i % 48] = not active[i % 48]
        for i in range(16):
            acc += float((self.large & self.large[i][None, :]).any(axis=0).sum())
        full = (1 << 40) - 1
        mask = full
        for i in range(12000):
            low = mask & -mask
            acc += low.bit_length()
            mask ^= low
            if not mask:
                mask = full - i
        for line in self.lines:
            t, v, a, r = (int(x) for x in line.split(","))
            acc += a + r
        return acc

    def time(self) -> float:
        """Median of three kernel runs, so one interrupted run does not
        skew the scale."""
        times = []
        for _ in range(3):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self) -> float:
        """Reference speed over the speed since the previous call: the
        factor that turns a time measured in between into reference time."""
        before, self.last = self.last, self.time()
        return CALIBRATION_REF_S / ((before + self.last) / 2)


def unit_seed(seed: int, unit: int) -> int:
    """A non-negative command seed for one unit of a run."""
    digest = hashlib.sha256(f"{seed}:{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_cli(cli, argv: list[str]) -> tuple[int, float]:
    """Run one command in-process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaped error fails the command, not the run
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, perf_counter() - start


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def graph_nodes(path: Path) -> int:
    """Node count from the ``nodes <V>`` header of a graph file."""
    with open(path) as fh:
        head = fh.readline().split()
    if len(head) != 2 or head[0] != "nodes":
        raise ValueError(f"{path}: bad graph header")
    return int(head[1])


class TrainMix:
    """``train`` on the default star30/ba-m2 curriculum."""

    name = "train-mix"
    # Short units let the calibration around each one follow fast drift.
    units = 8
    episodes = 8               # per unit
    warm_episodes = 2
    instances = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = work / "train.cfg"

    def prepare(self, cli) -> None:
        self.config.write_text(TRAIN_CONFIG)

    def warm_up(self, cli) -> UnitRun:
        return self._run(cli, "warm", WARM_SEED, self.warm_episodes)

    def run_unit(self, cli, unit: int) -> UnitRun:
        return self._run(cli, str(unit), unit_seed(self.seed, unit),
                         self.episodes)

    def _run(self, cli, tag: str, seed: int, episodes: int) -> UnitRun:
        out = self.work / f"train-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        code, wall = run_cli(cli, [
            "train", "--config", str(self.config),
            "--episodes", str(episodes), "--seed", str(seed),
            "--out", str(out)])
        result = UnitRun(main_s=wall, total_s=wall, attempted=episodes)
        rows = read_rows(out / "training_log.csv") if code == 0 else []
        if len(rows) != episodes:
            result.failed = episodes
            return result
        result.failed = sum(not math.isfinite(float(r["loss"])) for r in rows)
        result.link_slots = TRAIN_HORIZON * sum(TRAIN_NODES[r["graph_model"]]
                                                for r in rows)
        result.digest = digest_files([out / "training_log.csv",
                                      out / "checkpoint.ckpt"])
        result.samples["train.win_rate"] = [float(r["win_rate"]) for r in rows]
        return result


class EvalWorkload:
    """``generate`` one instance at a light and one at a heavy load, then
    ``eval`` them with the fixture checkpoint."""

    name = ""
    family = ""
    policies: tuple[str, ...] = ()
    units = 16
    horizon = 64
    instances = len(EVAL_MUS.split(","))   # per unit

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.checkpoint = work / "fixture.ckpt"

    def prepare(self, cli) -> None:
        write_fixture_checkpoint(self.checkpoint)

    def warm_up(self, cli) -> UnitRun:
        return self._run(cli, "warm", WARM_SEED)

    def run_unit(self, cli, unit: int) -> UnitRun:
        return self._run(cli, str(unit), unit_seed(self.seed, unit))

    def _run(self, cli, tag: str, seed: int) -> UnitRun:
        instances = self.work / f"instances-{tag}"
        out = self.work / f"eval-{tag}"
        shutil.rmtree(instances, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        count = self.instances
        result = UnitRun(attempted=2 * count)  # generated + evaluated
        gen_code, gen_s = run_cli(cli, [
            "generate", "--config", self.family, "--instances", "1",
            "--mu", EVAL_MUS, "--horizon", str(self.horizon),
            "--seed", str(seed), "--out", str(instances)])
        result.total_s = gen_s
        dirs = sorted(instances.glob("instance_*"))
        if gen_code != 0 or len(dirs) != count:
            result.failed = 2 * count
            return result
        eval_code, eval_s = run_cli(cli, [
            "eval", "--instances", str(instances),
            "--policies", ",".join(self.policies),
            "--checkpoint", str(self.checkpoint), "--out", str(out)])
        result.main_s = eval_s
        result.total_s += eval_s
        nodes = {d.name: graph_nodes(d / "graph.txt") for d in dirs}
        result.link_slots = (sum(nodes.values()) * self.horizon
                             * len(self.policies))
        ars = read_rows(out / "ars.csv") if eval_code == 0 else []
        by_instance: dict[str, dict[str, dict]] = {}
        for row in ars:
            by_instance.setdefault(row["instance"], {})[row["policy"]] = row
        for name in nodes:
            rows = by_instance.get(name, {})
            if set(rows) != set(self.policies) or any(
                    float(rows[p][key]) != 1.0 for p in ("baseline", "greedy")
                    for key in ("ar_mean", "ar_median", "ar_p95")):
                result.failed += 1
        result.digest = digest_files(
            sorted(p for d in dirs for p in d.iterdir())
            + sorted(out.glob("*.csv")))
        for policy in ("gcn", "exact"):
            if policy in self.policies:
                result.samples[f"eval.ar_{policy}"] = [
                    float(r["ar_median"]) for r in ars if r["policy"] == policy]
        return result


class EvalBamix(EvalWorkload):
    """BA graphs of 100-300 nodes: the dense V x V kernels and trace I/O."""

    name = "eval-bamix"
    family = "ba-mix"
    policies = ("baseline", "greedy", "gcn")
    horizon = 32


class EvalStar30(EvalWorkload):
    """31-node stars, the one family where the exact solver is admitted."""

    name = "eval-star30"
    family = "star30"
    policies = ("baseline", "greedy", "exact", "gcn")
    horizon = 64


WORKLOADS = {w.name: w for w in (TrainMix, EvalBamix, EvalStar30)}


def write_fixture_checkpoint(path: Path) -> None:
    """Write the stored trained parameters as a checkpoint file."""
    import numpy as np
    from linksched.gcn import GcnParams, save_checkpoint
    fixture = json.loads((HERE / "fixture.json").read_text())
    params = GcnParams(tuple(fixture["layer_dims"]),
                       [np.array(t) for t in fixture["theta0"]],
                       [np.array(t) for t in fixture["theta1"]])
    save_checkpoint(path, params, slope=fixture["slope"])


def import_cli():
    """Import ``linksched.cli`` afresh from this checkout's ``src/``."""
    if not (SRC / "linksched" / "cli.py").is_file():
        raise SetupError(f"no linksched sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "linksched" or m.startswith("linksched.")]:
        del sys.modules[name]
    cli = importlib.import_module("linksched.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"linksched imported from {cli.__file__}, not {SRC}")
    return cli


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def spin_up(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        sum(range(10_000))


def setup(workload) -> tuple[float, object, list[UnitRun], Calibration]:
    """Import, write fixtures and warm up, ``SETUP_REPEATS`` times.

    Returns the set-up time (numpy's one-time import plus the median of the
    repeats, in reference time), the imported CLI module, the warm-up runs
    and the calibration.
    """
    start = perf_counter()
    import numpy  # noqa: F401
    numpy_s = perf_counter() - start
    calibration = Calibration()
    times, scales, warm = [], [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_cli()
        workload.prepare(cli)
        warm.append(workload.warm_up(cli))
        elapsed = perf_counter() - start
        scales.append(calibration.scale())
        times.append(elapsed * scales[-1])
    setup_s = numpy_s * scales[0] + statistics.median(times)
    return setup_s, cli, warm, calibration


@dataclass
class Runs:
    """Every timed run of a measurement, by unit."""

    untraced: list[list[UnitRun]]
    traced: list[list[UnitRun]]
    passes: int = 0

    def all(self) -> list[UnitRun]:
        return [r for unit in self.untraced + self.traced for r in unit]


def measure(workload, cli, calibration: Calibration, seconds: float,
            tracer=None) -> Runs:
    """Run passes over all units until ``seconds`` are used, at least
    ``MIN_PASSES`` of them. With a tracer, each unit runs untraced and then
    traced in every pass."""
    runs = Runs([[] for _ in range(workload.units)],
                [[] for _ in range(workload.units)])
    durations: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        for unit in range(workload.units):
            result = workload.run_unit(cli, unit)
            result.scale = calibration.scale()
            runs.untraced[unit].append(result)
            if tracer is None:
                continue
            first = len(tracer)
            tracer.install()
            try:
                with tracer.span("bench.unit"):
                    result = workload.run_unit(cli, unit)
            finally:
                tracer.uninstall()
            result.spans = (first, len(tracer))
            result.scale = calibration.scale()
            runs.traced[unit].append(result)
        runs.passes += 1
        durations.append(perf_counter() - began)
        elapsed = perf_counter() - start
        if (runs.passes >= MIN_PASSES
                and elapsed + statistics.median(durations) > seconds):
            return runs


def rate(per_unit: list[list[UnitRun]], attr: str, scaled: bool = True,
         ) -> float:
    """Link-slots per second of a pass rebuilt from each unit's median
    time, in reference time unless ``scaled`` is false."""
    slots = sum(unit[0].link_slots for unit in per_unit)
    seconds = sum(statistics.median(getattr(r, attr) * (r.scale if scaled
                                                        else 1.0)
                                    for r in unit)
                  for unit in per_unit)
    return slots / seconds if seconds else 0.0


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, workload, runs: Runs, lgs_rounds: list,
                  audit: dict) -> dict:
    """Per-layer values, per pass, from the spans of the traced runs."""
    import numpy as np
    ids, _, starts, ends, self_time = tracer.arrays()
    dur = ends - starts
    chosen = np.zeros(len(ids), dtype=bool)
    traced = [r for unit in runs.traced for r in unit]
    for r in traced:
        chosen[r.spans[0]:r.spans[1]] = True
    rounds = [n for idx, n in lgs_rounds if chosen[idx]]
    passes = runs.passes
    values: dict[str, float] = {}
    for nid, label in enumerate(tracer.labels):
        mask = chosen & (ids == nid)
        calls = int(mask.sum())
        busy = float(self_time[mask].sum())
        values[f"{label}.calls"] = calls / passes
        values[f"{label}.self_s"] = busy / passes
        values[f"{label}.us_per_call"] = busy / calls * 1e6 if calls else 0.0
        values[f"{label}.ms_p50"] = percentile(dur[mask] * 1e3, 50)
        values[f"{label}.ms_p90"] = percentile(dur[mask] * 1e3, 90)
    get = values.get
    lookahead = chosen & (ids == tracer.label_id("sim.lookahead_compare"))
    episodes = get("train.collect_episode.calls", 0.0)
    slots = episodes * TRAIN_HORIZON
    instances = workload.instances * workload.units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values.update({
        "solvers.lgs.rounds_mean": statistics.fmean(rounds) if rounds else 0.0,
        "train.lgs_calls_per_slot": ratio(get("solvers.lgs.calls", 0.0), slots),
        "train.forward_calls_per_slot":
            ratio(get("gcn.forward.calls", 0.0), slots),
        "train.laplacians_per_episode":
            ratio(get("graph.normalized_laplacian.calls", 0.0), episodes),
        "train.lookahead_share": ratio(float(dur[lookahead].sum()),
                                       sum(r.main_s for r in traced))
        if episodes else 0.0,
        "cli.eval.trace_loads_per_instance":
            ratio(get("sim.load_trace.calls", 0.0), instances),
        "cli.eval.checkpoint_loads_per_instance":
            ratio(get("gcn.load_checkpoint.calls", 0.0), instances),
        "trace.overhead_pct": 100.0 * (rate(runs.untraced, "total_s")
                                       / rate(runs.traced, "total_s") - 1.0),
        "trace.audit_mismatches": float(len(audit)),
    })
    return values


def emit(correct: bool, attempted: int, failed: int, values: dict,
         listed: list[dict]) -> None:
    metrics = {}
    for spec in listed:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in SPAN_STATS:
            value = 0.0  # the function was never called in this workload
        else:
            raise KeyError(f"metric {name!r} is not computed")
        if not math.isfinite(value):
            correct = False
            value = -1.0
        metrics[name] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, spec, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(args, spec: dict, work: Path) -> int:
    if not (SRC / "linksched" / "cli.py").is_file():
        raise SetupError(f"no linksched sources under {SRC}")
    workload = WORKLOADS[args.workload](work, args.seed)
    spin_up(SPIN_UP_S)
    setup_s, cli, warm, calibration = setup(workload)
    tracer = None
    lgs_rounds: list[tuple[int, int]] = []   # (span index, rounds used)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.observers["solvers.lgs"] = \
            lambda idx, schedule: lgs_rounds.append((idx, schedule.rounds_used))
    runs = measure(workload, cli, calibration, args.seconds, tracer)
    audit: dict = {}
    if tracer is not None:
        audit_runs = []
        audit = tracer.audit(lambda: audit_runs.append(workload.warm_up(cli)))
        warm += audit_runs

    done = runs.all() + warm
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    consistent = len({r.digest for r in warm}) == 1 and all(
        len({r.digest for r in unit + runs.traced[k]}) == 1
        for k, unit in enumerate(runs.untraced))
    first_pass = [unit[0] for unit in runs.untraced]
    behaviour = {"train.win_rate": 0.0, "eval.ar_gcn": 0.0,
                 "eval.ar_exact": 0.0}
    for name in behaviour:
        samples = [x for r in first_pass for x in r.samples.get(name, [])]
        if samples:
            behaviour[name] = statistics.fmean(samples)
    behaviour["bench.error_rate"] = failed / attempted
    info = {"workload": workload.name, "seed": args.seed,
            "passes": runs.passes, "digests_consistent": consistent,
            "pass_s": [round(sum(unit[i].total_s for unit in runs.untraced), 4)
                       for i in range(runs.passes)],
            "unscaled": {
                "main_link_slots_per_s": rate(runs.untraced, "main_s", False),
                "pass_link_slots_per_s": rate(runs.untraced, "total_s", False)},
            "scale_median": statistics.median(
                r.scale for unit in runs.untraced for r in unit),
            "behaviour": behaviour, "fingerprint": fingerprint()}

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "main_link_slots_per_s": rate(runs.untraced, "main_s"),
            "pass_link_slots_per_s": rate(runs.untraced, "total_s"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    else:
        values = layer_metrics(tracer, workload, runs, lgs_rounds, audit)
        values.update(behaviour)
        listed = spec["per_layer"]
        info["audit_mismatches"] = audit
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_path, json.dumps(info))
        info["spans"] = str(spans_path.relative_to(ROOT))
    print("info: " + json.dumps(info))
    correct = failed == 0 and consistent and not audit
    emit(correct, attempted, failed, values, listed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
