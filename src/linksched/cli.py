"""Command-line workbench: instance generation, training, evaluation sweeps,
the deterministic star-topology demo, and report aggregation.

Commands: ``generate``, ``train``, ``eval``, ``toy``, ``report``. All output
is CSV or plain text; every command is a deterministic function of its
configuration and seed. Exit code 0 on success, 1 with a diagnostic on any
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .gcn import load_checkpoint
from .graph import (ConflictGraph, centralization, decode_text, load_graph,
                    save_graph)
from .policies import GcnLgsPolicy, SolverPolicy
from .presets import parse_graph_config
from .sim import (RATE_MEAN, MetricsBundle, TrafficTrace, backlog_ratio,
                  compute_metrics, load_trace, ratio_quartiles, run_episode,
                  sample_traffic, save_trace, steady_state_mean)
from .solvers import EXACT_NODE_CAP
from .train import TrainConfig, train

POLICY_NAMES = ("baseline", "greedy", "exact", "gcn")
# The solver behind each CLI policy name but ``gcn``, which schedules with LGS.
SOLVER_NAMES = {"baseline": "lgs", "greedy": "greedy", "exact": "exact"}

PER_INSTANCE_HEADER = ["instance", "policy", "mean", "median", "p95",
                       "objective", "rounds_mean"]
AR_HEADER = ["instance", "policy", "ar_mean", "ar_median", "ar_p95",
             "trace_checksum"]
SUMMARY_HEADER = ["config", "instances", "centralization", "policy", "metric",
                  "ar_mean", "ar_q25", "ar_median", "ar_q75"]
LOG_HEADER = ["episode", "loss", "win_rate", "lr", "graph_model"]
# The most queue entries (rows x (T + 1) x V, a row per instance and
# policy) one eval group holds: 2 MB of int64 queues, as much of float64
# utilities, and an eighth of that of bool schedules, whose independence
# check after the last slot packs them eight to a byte. The traces' rates
# are broadcast over the policies, never copied per row. Past a few traces
# a group shares each slot's fixed cost (one weighing of every row, one
# call per solver) so widely that a larger one gains little, while its
# memory would grow with the instance count; this bounds it whatever the
# directory holds.
EVAL_GROUP_ENTRIES = 2**18


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


# --- key=value configuration files --------------------------------------------


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment. Errors carry the
    offending line number."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}: line {ln}: empty key")
        if key in out:
            raise ConfigError(f"{source}: line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def load_kv_file(path) -> dict[str, str]:
    """The ``key = value`` pairs of the file at ``path`` (a ``train
    --config`` file or ``manifest.txt``), decoded by
    :func:`~linksched.graph.decode_text`: bytes that are not UTF-8 are
    refused at their line, as :func:`parse_kv_text` refuses a bad line."""
    data = Path(path).read_bytes()
    return parse_kv_text(decode_text(data, path), source=str(path))


def _parse_pair(value: str) -> tuple[str, float]:
    name, weight = value.rsplit(":", 1)
    return name.strip(), float(weight)


def _parser(kind) -> Callable[[str], object]:
    """The value-text parser for a TrainConfig field type: int, float, str,
    a comma-separated ``tuple[X, ...]``, or a ``name:weight`` pair."""
    if kind in (int, float, str):
        return kind
    args = get_args(kind)
    if get_origin(kind) is tuple and args[1:] == (Ellipsis,):
        item = _parser(args[0])
        return lambda value: tuple(item(part) for part in value.split(","))
    if get_origin(kind) is tuple and args == (str, float):
        return _parse_pair
    raise TypeError(f"no config parser for type {kind}")


_TRAIN_TYPES = get_type_hints(TrainConfig)
_TRAIN_KEYS = {f.name: _parser(_TRAIN_TYPES[f.name])
               for f in fields(TrainConfig)}


def config_text(value) -> str:
    """A TrainConfig value written as the value text its parser reads back."""
    if isinstance(value, tuple) and value and isinstance(value[0], str):
        name, weight = value
        return f"{name}:{weight!r}"
    if isinstance(value, tuple):
        return ",".join(config_text(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def train_config_from_kv(kv: dict[str, str], source: str = "<config>",
                         ) -> TrainConfig:
    """Build a TrainConfig from key=value pairs: each key is a TrainConfig
    field, and its value is parsed by the field's declared type. Unknown
    keys and unparsable values raise ConfigError."""
    values = {}
    for key, value in kv.items():
        if key not in _TRAIN_KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        try:
            values[key] = _TRAIN_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{source}: bad value for {key}: {value!r}") \
                from None
    config = TrainConfig(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return config


# --- experiment configuration --------------------------------------------------


@dataclass
class ExperimentConfig:
    """Instance-generation / evaluation setup."""

    graph_config: str
    mus: tuple[float, ...]
    instances: int = 100
    horizon: int = 64
    policies: tuple[str, ...] = ("baseline",)
    seed: int = 0
    checkpoint: Path | None = None

    def validate(self) -> None:
        preset = parse_graph_config(self.graph_config)
        if self.instances < 1:
            raise ConfigError("instance count must be at least 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.mus or any(not 0.0 < mu < 1.0 for mu in self.mus):
            raise ConfigError("traffic loads must lie in (0, 1)")
        for i, policy in enumerate(self.policies):
            if policy not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {policy!r}; "
                                  f"choose from {', '.join(POLICY_NAMES)}")
            if policy in self.policies[:i]:
                raise ConfigError(f"policy {policy!r} named more than once")
        if "exact" in self.policies and preset.max_nodes > EXACT_NODE_CAP:
            raise ConfigError(
                f"exact policy only allowed for configs with at most "
                f"{EXACT_NODE_CAP} nodes; {self.graph_config} has up to "
                f"{preset.max_nodes}")
        if "gcn" in self.policies and self.checkpoint is None:
            raise ConfigError("gcn policy requires --checkpoint")


def _write_kv(path: Path, pairs: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))


def cmd_generate(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Materialize scheduling instances: graph file, traffic trace, metadata.

    Re-running with the same configuration and seed reproduces byte-identical
    files. ``manifest.txt`` is written last, so only a complete run has one.
    """
    config.validate()
    preset = parse_graph_config(config.graph_config)
    master = np.random.default_rng(config.seed)
    total = config.instances * len(config.mus)
    graph_seeds = master.integers(2**63, size=total)
    traffic_seeds = master.integers(2**63, size=total)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.txt"
    manifest.unlink(missing_ok=True)
    dirs = []
    mus = [mu for mu in config.mus for _ in range(config.instances)]
    for k, mu in enumerate(mus):
        # drawn before anything of the instance is written
        graph = preset.build(int(graph_seeds[k]))
        lam = mu * RATE_MEAN
        trace = sample_traffic(graph, config.horizon, lam,
                               int(traffic_seeds[k]))
        inst_dir = out_dir / f"instance_{k:04d}"
        inst_dir.mkdir(exist_ok=True)
        save_graph(graph, inst_dir / "graph.txt")
        save_trace(trace, inst_dir / "trace.csv")
        _write_kv(inst_dir / "meta.txt", {
            "config": preset.name, "instance": k, "mu": repr(mu),
            "lambda": repr(lam), "horizon": config.horizon,
            "graph_seed": int(graph_seeds[k]),
            "traffic_seed": int(traffic_seeds[k]),
        })
        dirs.append(inst_dir)
    _write_kv(manifest, {
        "config": preset.name, "instances": total, "horizon": config.horizon,
        "mus": ",".join(repr(mu) for mu in config.mus), "seed": config.seed,
    })
    return dirs


def _make_policy(name: str, config: ExperimentConfig):
    """The policy behind a validated CLI policy name; a checkpoint whose
    GCN does not read one feature per link is refused."""
    if name == "gcn":
        ckpt = load_checkpoint(config.checkpoint)
        if ckpt.params.layer_dims[0] != 1:
            raise ValueError(f"{config.checkpoint}: GCN input width "
                             f"{ckpt.params.layer_dims[0]}, expected 1")
        return GcnLgsPolicy(ckpt.params, ckpt.slope)
    return SolverPolicy(SOLVER_NAMES[name])


@dataclass
class EvaluationReport:
    """Per-instance metrics and approximation ratios for each policy;
    ``summary`` holds :meth:`aggregate`'s rows once :func:`cmd_eval` has
    computed them."""

    config_name: str
    metrics: list[dict] = field(default_factory=list)
    ars: list[dict] = field(default_factory=list)
    centralization_mean: float = float("nan")
    summary: list[dict] = field(default_factory=list)

    def aggregate(self) -> list[dict]:
        """Mean and quartiles of the per-instance ARs, per policy and
        metric; an inf AR (x/0) makes the mean inf and the quartiles follow
        :func:`~linksched.sim.ratio_quartiles`."""
        rows = []
        policies = sorted({row["policy"] for row in self.ars})
        count = len({row["instance"] for row in self.ars})
        for policy in policies:
            per_metric = {"mean": [], "median": [], "p95": []}
            for row in self.ars:
                if row["policy"] == policy:
                    per_metric["mean"].append(row["ar_mean"])
                    per_metric["median"].append(row["ar_median"])
                    per_metric["p95"].append(row["ar_p95"])
            for metric, values in per_metric.items():
                arr = np.asarray(values, dtype=np.float64)
                q25, median, q75 = ratio_quartiles(arr)
                rows.append({
                    "config": self.config_name, "instances": count,
                    "centralization": self.centralization_mean,
                    "policy": policy, "metric": metric,
                    "ar_mean": float(arr.mean()), "ar_q25": q25,
                    "ar_median": median, "ar_q75": q75,
                })
        return rows


def cmd_eval(config: ExperimentConfig, instances_dir: Path,
             out_dir: Path | None = None) -> EvaluationReport:
    """Evaluate the selected policies on every stored instance.

    Each policy is built once. Instances are read in sorted order and
    grouped: a group is a run of consecutive instances whose ``graph.txt``
    is byte-identical to the first one's and whose traces have one
    horizon, up to :data:`EVAL_GROUP_ENTRIES` queue entries. A group's
    graph file is parsed once, so its instances share one
    :class:`~linksched.graph.ConflictGraph` and its cached tables, and each
    trace is loaded once; every policy then replays every trace of the
    group in one lockstep :func:`run_episode` call, whose results equal
    one call per instance bit for bit. A policy's backlog x rate rows are
    read-only, so a policy that writes into them fails with ValueError
    instead of changing what the others schedule on. Approximation ratios
    are each policy's backlog metrics divided by the baseline's, by
    :func:`~linksched.sim.backlog_ratio`'s convention (0/0 is 1.0, x/0 is
    inf), as Python floats. The report's ``summary`` is aggregated once,
    for ``summary.csv`` and the caller alike.
    """
    config.validate()
    instance_dirs = sorted(p for p in Path(instances_dir).glob("instance_*")
                           if p.is_dir())
    if not instance_dirs:
        raise ConfigError(f"no instances found under {instances_dir}")
    policies = [(name, _make_policy(name, config)) for name in config.policies]
    max_nodes = parse_graph_config(config.graph_config).max_nodes
    report = EvaluationReport(config.graph_config)
    centralizations = []
    # one group's traces and trajectories are alive at a time, as one
    # instance's were: a group is evaluated, and its results dropped, before
    # the next graph or trace that cannot join it is loaded, and
    # EVAL_GROUP_ENTRIES caps how much a group holds
    graph, graph_text, group = None, None, []
    for inst_dir in instance_dirs:
        text = (inst_dir / "graph.txt").read_bytes()
        if text != graph_text:
            _evaluate_group(report, policies, graph, group)
            group = []
            graph = load_graph(inst_dir / "graph.txt", max_nodes)
            graph_text = text
            graph_centralization = centralization(graph)
        centralizations.append(graph_centralization)
        trace = load_trace(inst_dir / "trace.csv", graph.node_count)
        entries = ((len(group) + 1) * len(policies) * (trace.horizon + 1)
                   * graph.node_count)
        if group and (trace.horizon != group[0][1].horizon
                      or entries > EVAL_GROUP_ENTRIES):
            _evaluate_group(report, policies, graph, group)
            group = []
        group.append((inst_dir.name, trace))
    _evaluate_group(report, policies, graph, group)
    report.centralization_mean = float(np.mean(centralizations))
    report.summary = report.aggregate()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "per_instance.csv", PER_INSTANCE_HEADER,
                   report.metrics)
        if report.ars:
            _write_csv(out_dir / "ars.csv", AR_HEADER, report.ars)
            _write_csv(out_dir / "summary.csv", SUMMARY_HEADER,
                       report.summary)
    return report


def _evaluate_group(report: EvaluationReport, policies: list,
                    graph: ConflictGraph,
                    group: list[tuple[str, TrafficTrace]]) -> None:
    """Append the metric and AR rows of each (instance name, trace) of
    ``group``, in order, from one :func:`run_episode` call of every policy
    on every trace over ``graph``; an empty group appends nothing."""
    if not group:
        return
    results = run_episode(graph, [policy for _, policy in policies],
                          *(trace for _, trace in group))
    count = len(policies)
    for k, (name, trace) in enumerate(group):
        per_policy: dict[str, MetricsBundle] = {
            policy_name: compute_metrics(result) for (policy_name, _), result
            in zip(policies, results[k * count:(k + 1) * count])}
        for policy_name, metrics in per_policy.items():
            report.metrics.append({
                "instance": name, "policy": policy_name,
                "mean": metrics.mean, "median": metrics.median,
                "p95": metrics.p95, "objective": metrics.objective,
                "rounds_mean": metrics.rounds_mean,
            })
        if "baseline" in per_policy:
            checksum = trace.checksum()
            base = per_policy["baseline"]
            for policy_name, metrics in per_policy.items():
                ar_mean, ar_median, ar_p95 = backlog_ratio(
                    [metrics.mean, metrics.median, metrics.p95],
                    [base.mean, base.median, base.p95]).tolist()
                report.ars.append({
                    "instance": name, "policy": policy_name,
                    "ar_mean": ar_mean, "ar_median": ar_median,
                    "ar_p95": ar_p95, "trace_checksum": checksum,
                })


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row[key] is None else
                             (repr(row[key]) if isinstance(row[key], float)
                              else row[key]) for key in header])


# --- the deterministic star demo ------------------------------------------------


@dataclass
class ToyReport:
    """Steady-state outcome of the 6-link star under both schedulers."""

    exact_mean: float
    greedy_mean: float
    exact_cycle: tuple[np.ndarray, np.ndarray]
    greedy_cycle: tuple[np.ndarray, np.ndarray]


def cmd_toy(horizon: int = 128, burn_in: int = 20) -> ToyReport:
    """Run the 6-link star with unit arrivals and rate 2 under the per-slot
    optimal and greedy schedulers, each on backlog x rate at rate 2.

    The steady-state figure is the average start-of-slot backlog per link
    over slots [burn_in, horizon), and each cycle is the last two states
    q(horizon - 2) and q(horizon - 1), so the horizon must be at least 2.
    """
    if horizon < 2:
        raise ValueError(
            f"toy horizon must be at least 2 slots, got {horizon}")
    preset = parse_graph_config("star5")
    graph = preset.build(0)
    n = graph.node_count
    trace = TrafficTrace(np.ones((horizon, n), dtype=np.int64),
                         np.full((horizon, n), 2, dtype=np.int64))
    exact, greedy = run_episode(graph, [SolverPolicy("exact"),
                                        SolverPolicy("greedy")], trace)
    return ToyReport(steady_state_mean(exact, burn_in),
                     steady_state_mean(greedy, burn_in),
                     (exact.queues[horizon - 2], exact.queues[horizon - 1]),
                     (greedy.queues[horizon - 2], greedy.queues[horizon - 1]))


def _format_state(q: np.ndarray) -> str:
    return f"hub={q[0]} peripherals={q[1]}" if len(set(q[1:].tolist())) == 1 \
        else str(q.tolist())


# --- report aggregation ----------------------------------------------------------


def _read_report_csv(path: Path, columns: dict[str, Callable]) -> list[dict]:
    """The named columns of an eval report CSV's rows, each value parsed
    by its column's function. A missing column, a row short of fields or a
    value its parser refuses raises ConfigError naming the file (and the
    line), and bytes that are not UTF-8 raise ValueError naming both
    (:func:`~linksched.graph.decode_text`)."""
    text = decode_text(path.read_bytes(), path)
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for column in columns:
        if column not in (reader.fieldnames or ()):
            raise ConfigError(f"{path}: missing column {column!r}")
    rows = []
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        if any(row[column] is None for column in columns):
            raise ConfigError(f"{where}: expected "
                              f"{len(reader.fieldnames)} fields")
        parsed = {}
        for column, parse in columns.items():
            try:
                parsed[column] = parse(row[column])
            except ValueError:
                raise ConfigError(f"{where}: bad value for {column}: "
                                  f"{row[column]!r}") from None
        rows.append(parsed)
    return rows


def _ratio(text: str) -> float:
    """An AR as eval writes it: by :func:`~linksched.sim.backlog_ratio`'s
    convention never NaN and never below 0 (0/0 is 1, x/0 is inf)."""
    value = float(text)
    if not value >= 0.0:
        raise ValueError(text)
    return value


def cmd_report(eval_dir: Path) -> list[dict]:
    """Re-aggregate a previous evaluation's per-instance ARs; an AR that is
    NaN or below 0 is refused at its line."""
    ars_path = Path(eval_dir) / "ars.csv"
    if not ars_path.exists():
        raise ConfigError(f"{ars_path}: not found (run eval first)")
    report = EvaluationReport("?")
    report.ars = _read_report_csv(ars_path, {
        "instance": str, "policy": str, "ar_mean": _ratio,
        "ar_median": _ratio, "ar_p95": _ratio})
    summary_path = Path(eval_dir) / "summary.csv"
    if summary_path.exists():
        rows = _read_report_csv(summary_path,
                                {"config": str, "centralization": float})
        if rows:
            report.config_name = rows[0]["config"]
            report.centralization_mean = rows[0]["centralization"]
    return report.aggregate()


# --- argument parsing -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: each parse_args call fills a fresh namespace
    # from the defaults, so nothing of one command reaches the next
    parser = argparse.ArgumentParser(
        prog="linksched",
        description="Delay-oriented link-scheduling workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize scheduling instances")
    gen.add_argument("--config", required=True,
                     help="graph configuration name (e.g. Star30, BA-m2, ER)")
    gen.add_argument("--instances", type=int, default=100)
    gen.add_argument("--mu", default="0.07",
                     help="traffic load(s), comma-separated")
    gen.add_argument("--horizon", type=int, default=64)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    tr = sub.add_parser("train", help="train the GCN scheduler")
    tr.add_argument("--config", help="key=value training configuration file")
    tr.add_argument("--episodes", type=int, help="override episode count")
    tr.add_argument("--seed", type=int, help="override training seed")
    tr.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate policies on stored instances")
    ev.add_argument("--instances", required=True,
                    help="directory produced by generate")
    ev.add_argument("--policies", default="baseline,gcn",
                    help="comma-separated: baseline, greedy, exact, gcn (LGS "
                    "on the checkpoint's GCN of backlog x rate)")
    ev.add_argument("--checkpoint", help="GCN checkpoint (required for gcn)")
    ev.add_argument("--out", help="output directory for CSV reports")

    toy = sub.add_parser("toy", help="deterministic 6-link star demo")
    toy.add_argument("--horizon", type=int, default=128)
    toy.add_argument("--burn-in", type=int, default=20)

    rep = sub.add_parser("report", help="re-aggregate an evaluation directory")
    rep.add_argument("--eval-dir", required=True)
    return parser


def _print_ars(rows: list[dict]) -> None:
    for row in rows:
        print(f"{row['policy']:>8s} {row['metric']:>6s} AR: "
              f"mean {row['ar_mean']:.4f} "
              f"quartiles [{row['ar_q25']:.4f}, {row['ar_median']:.4f}, "
              f"{row['ar_q75']:.4f}]")


def _run(args: argparse.Namespace) -> int:
    if args.command == "generate":
        try:
            mus = _parser(tuple[float, ...])(args.mu)
        except ValueError:
            raise ConfigError(f"bad value for --mu: {args.mu!r}") from None
        config = ExperimentConfig(args.config, mus, instances=args.instances,
                                  horizon=args.horizon, seed=args.seed)
        dirs = cmd_generate(config, Path(args.out))
        print(f"wrote {len(dirs)} instances under {args.out}")
        return 0

    if args.command == "train":
        kv = load_kv_file(args.config) if args.config else {}
        for key in ("episodes", "seed"):  # the overrides, parsed as keys
            if getattr(args, key) is not None:
                kv[key] = str(getattr(args, key))
        config = train_config_from_kv(kv, args.config or "<defaults>")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_kv(out / "config.txt",
                  {k: config_text(v) for k, v in asdict(config).items()})
        result = train(config, checkpoint_dir=out)
        _write_csv(out / "training_log.csv", LOG_HEADER, result.log)
        print(f"trained {config.episodes} episodes; "
              f"win rate {result.win_rate():.3f}; checkpoint at "
              f"{out / 'checkpoint.ckpt'}")
        return 0

    if args.command == "eval":
        instances_dir = Path(args.instances)
        manifest = instances_dir / "manifest.txt"
        if not manifest.exists():
            raise ConfigError(f"{manifest}: not found (run generate first)")
        kv = load_kv_file(manifest)
        values = []  # ExperimentConfig's first four fields, in order
        for key, parse in (("config", str),
                           ("mus", _parser(tuple[float, ...])),
                           ("instances", int), ("horizon", int)):
            try:
                values.append(parse(kv[key]))
            except KeyError:
                raise ConfigError(f"{manifest}: missing key {key!r}") \
                    from None
            except ValueError:
                raise ConfigError(f"{manifest}: bad value for {key}: "
                                  f"{kv[key]!r}") from None
        policies = tuple(p.strip() for p in args.policies.split(","))
        config = ExperimentConfig(
            *values, policies=policies,
            checkpoint=Path(args.checkpoint) if args.checkpoint else None)
        out = Path(args.out) if args.out else None
        _print_ars(cmd_eval(config, instances_dir, out).summary)
        return 0

    if args.command == "toy":
        report = cmd_toy(horizon=args.horizon, burn_in=args.burn_in)
        print(f"exact scheduler steady-state backlog per link: "
              f"{report.exact_mean:.6f}")
        print(f"  cycle: {_format_state(report.exact_cycle[0])} <-> "
              f"{_format_state(report.exact_cycle[1])}")
        print(f"greedy scheduler steady-state backlog per link: "
              f"{report.greedy_mean:.6f}")
        print(f"  cycle: {_format_state(report.greedy_cycle[0])} <-> "
              f"{_format_state(report.greedy_cycle[1])}")
        return 0

    if args.command == "report":
        _print_ars(cmd_report(Path(args.eval_dir)))
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, RuntimeError, MemoryError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
