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
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcn import load_checkpoint
from .graph import ConflictGraph, centralization, load_graph, save_graph
from .policies import GcnLgsPolicy, SolverPolicy
from .presets import parse_graph_config
from .sim import (RATE_MEAN, MetricsBundle, TrafficTrace, compute_metrics,
                  load_trace, run_episode, sample_traffic, save_trace,
                  steady_state_mean)
from .solvers import exact_mwis, greedy_centralized, lgs
from .train import TrainConfig, train, write_training_log

EXACT_NODE_CAP = 40
POLICY_NAMES = ("baseline", "greedy", "exact", "gcn")

PER_INSTANCE_HEADER = ["instance", "policy", "mean", "median", "p95",
                       "objective", "rounds_mean"]
AR_HEADER = ["instance", "policy", "ar_mean", "ar_median", "ar_p95",
             "trace_checksum"]
SUMMARY_HEADER = ["config", "instances", "centralization", "policy", "metric",
                  "ar_mean", "ar_q25", "ar_median", "ar_q75"]


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
    return parse_kv_text(Path(path).read_text(), source=str(path))


def _parse_bool(value: str, source: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{source}: expected a boolean, got {value!r}")


def _parse_graph_mix(value: str, source: str) -> tuple[tuple[str, float], ...]:
    mix = []
    for part in value.split(","):
        if ":" not in part:
            raise ConfigError(f"{source}: graph_mix entries look like name:weight")
        name, weight = part.rsplit(":", 1)
        try:
            mix.append((name.strip(), float(weight)))
        except ValueError:
            raise ConfigError(f"{source}: bad graph_mix weight {weight!r}") from None
    return tuple(mix)


def train_config_from_kv(kv: dict[str, str], source: str = "<config>",
                         ) -> TrainConfig:
    """Build a TrainConfig from key=value pairs (unknown keys rejected)."""
    config = TrainConfig()
    converters = {
        "episodes": int, "horizon": int, "lookahead": int, "batch_size": int,
        "replay_capacity": int, "checkpoint_interval": int, "seed": int,
        "rate_mean": float, "rate_std": float, "leaky_slope": float,
        "base_lr": float, "lr_decay": float, "beta1": float, "beta2": float,
        "eps": float, "phi": str, "init": str, "utility_kind": str,
    }
    for key, value in kv.items():
        if key in converters:
            try:
                setattr(config, key, converters[key](value))
            except ValueError:
                raise ConfigError(f"{source}: bad value for {key}: {value!r}") \
                    from None
        elif key == "graph_mix":
            config.graph_mix = _parse_graph_mix(value, source)
        elif key == "loads":
            try:
                config.loads = tuple(float(x) for x in value.split(","))
            except ValueError:
                raise ConfigError(f"{source}: bad loads list: {value!r}") from None
        elif key == "layer_dims":
            try:
                config.layer_dims = tuple(int(x) for x in value.split(","))
            except ValueError:
                raise ConfigError(f"{source}: bad layer_dims: {value!r}") from None
        elif key == "recompute_unscheduled":
            config.recompute_unscheduled = _parse_bool(value, source)
        else:
            raise ConfigError(f"{source}: unknown key {key!r}")
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
    utility_kind: str = "product"
    seed: int = 0
    checkpoint: Path | None = None

    def validate(self) -> None:
        preset = parse_graph_config(self.graph_config)
        if self.instances < 1:
            raise ConfigError("instance count must be at least 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not self.mus or any(not 0.0 < mu < 1.0 for mu in self.mus):
            raise ConfigError("traffic loads must lie in (0, 1)")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {policy!r}; "
                                  f"choose from {', '.join(POLICY_NAMES)}")
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
    files.
    """
    config.validate()
    preset = parse_graph_config(config.graph_config)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = np.random.default_rng(config.seed)
    total = config.instances * len(config.mus)
    graph_seeds = master.integers(2**63, size=total)
    traffic_seeds = master.integers(2**63, size=total)
    _write_kv(out_dir / "manifest.txt", {
        "config": preset.name, "instances": total, "horizon": config.horizon,
        "mus": ",".join(repr(mu) for mu in config.mus), "seed": config.seed,
    })
    dirs = []
    k = 0
    for mu in config.mus:
        for _ in range(config.instances):
            inst_dir = out_dir / f"instance_{k:04d}"
            inst_dir.mkdir(exist_ok=True)
            graph = preset.build(int(graph_seeds[k]))
            lam = mu * RATE_MEAN
            trace = sample_traffic(graph, config.horizon, lam,
                                   int(traffic_seeds[k]))
            save_graph(graph, inst_dir / "graph.txt")
            save_trace(trace, inst_dir / "trace.csv")
            _write_kv(inst_dir / "meta.txt", {
                "config": preset.name, "instance": k, "mu": repr(mu),
                "lambda": repr(lam), "horizon": config.horizon,
                "graph_seed": int(graph_seeds[k]),
                "traffic_seed": int(traffic_seeds[k]),
            })
            dirs.append(inst_dir)
            k += 1
    return dirs


def _make_policy(name: str, config: ExperimentConfig):
    """The policy behind a validated CLI policy name."""
    if name == "gcn":
        ckpt = load_checkpoint(config.checkpoint)
        return GcnLgsPolicy(ckpt.params, ckpt.slope, config.utility_kind)
    # Looked up at call time, so rebinding a solver in this module takes
    # effect on the next evaluation.
    solvers = {"baseline": lgs, "greedy": greedy_centralized,
               "exact": exact_mwis}
    return SolverPolicy(solvers[name], config.utility_kind)


def _ratio(value: float, reference: float) -> float:
    """Approximation ratio with the 0/0 == 1 convention."""
    if reference == 0.0:
        return 1.0 if value == 0.0 else float("inf")
    return value / reference


@dataclass
class EvaluationReport:
    """Per-instance metrics and approximation ratios for each policy."""

    config_name: str
    metrics: list[dict] = field(default_factory=list)
    ars: list[dict] = field(default_factory=list)
    centralization_mean: float = float("nan")

    def aggregate(self) -> list[dict]:
        """Mean and quartiles of the per-instance ARs, per policy and metric."""
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
                rows.append({
                    "config": self.config_name, "instances": count,
                    "centralization": self.centralization_mean,
                    "policy": policy, "metric": metric,
                    "ar_mean": float(arr.mean()),
                    "ar_q25": float(np.percentile(arr, 25)),
                    "ar_median": float(np.percentile(arr, 50)),
                    "ar_q75": float(np.percentile(arr, 75)),
                })
        return rows


def cmd_eval(config: ExperimentConfig, instances_dir: Path,
             out_dir: Path | None = None) -> EvaluationReport:
    """Evaluate the selected policies on every stored instance.

    Each policy is built once, and each instance's trace is loaded once and
    replayed by every policy. The trace arrays are made read-only first, so
    a policy that writes into its rates fails with ValueError instead of
    changing what later policies replay. Approximation ratios are each
    policy's backlog metrics divided by the baseline's.
    """
    config.validate()
    instance_dirs = sorted(p for p in Path(instances_dir).glob("instance_*")
                           if p.is_dir())
    if not instance_dirs:
        raise ConfigError(f"no instances found under {instances_dir}")
    policies = [(name, _make_policy(name, config)) for name in config.policies]
    report = EvaluationReport(config.graph_config)
    centralizations = []
    for inst_dir in instance_dirs:
        name = inst_dir.name
        graph = load_graph(inst_dir / "graph.txt")
        if "exact" in config.policies and graph.node_count > EXACT_NODE_CAP:
            raise ConfigError(f"{name}: exact policy refused, "
                              f"{graph.node_count} nodes > {EXACT_NODE_CAP}")
        centralizations.append(centralization(graph))
        trace = load_trace(inst_dir / "trace.csv")
        trace.arrivals.setflags(write=False)
        trace.rates.setflags(write=False)
        checksum = trace.checksum()
        per_policy: dict[str, MetricsBundle] = {}
        for policy_name, policy in policies:
            metrics = compute_metrics(run_episode(graph, policy, trace))
            per_policy[policy_name] = metrics
            report.metrics.append({
                "instance": name, "policy": policy_name,
                "mean": metrics.mean, "median": metrics.median,
                "p95": metrics.p95, "objective": metrics.objective,
                "rounds_mean": metrics.rounds_mean,
            })
        if "baseline" in per_policy:
            base = per_policy["baseline"]
            for policy_name, metrics in per_policy.items():
                report.ars.append({
                    "instance": name, "policy": policy_name,
                    "ar_mean": _ratio(metrics.mean, base.mean),
                    "ar_median": _ratio(metrics.median, base.median),
                    "ar_p95": _ratio(metrics.p95, base.p95),
                    "trace_checksum": checksum,
                })
    report.centralization_mean = float(np.mean(centralizations))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "per_instance.csv", PER_INSTANCE_HEADER,
                   report.metrics)
        if report.ars:
            _write_csv(out_dir / "ars.csv", AR_HEADER, report.ars)
            _write_csv(out_dir / "summary.csv", SUMMARY_HEADER,
                       report.aggregate())
    return report


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
    """Run the 6-link star with unit arrivals, rate 2, and queue-length
    utilities under the per-slot optimal and greedy schedulers.

    The steady-state figure is the average start-of-slot backlog per link
    over slots [burn_in, horizon).
    """
    preset = parse_graph_config("star5")
    graph = preset.build(0)
    n = graph.node_count
    trace = TrafficTrace(np.ones((horizon, n), dtype=np.int64),
                         np.full((horizon, n), 2, dtype=np.int64))
    results = {}
    for name, policy in (("exact", SolverPolicy(exact_mwis, "queue")),
                         ("greedy", SolverPolicy(greedy_centralized, "queue"))):
        result = run_episode(graph, policy, trace)
        results[name] = (steady_state_mean(result, burn_in),
                         (result.queues[horizon - 2].copy(),
                          result.queues[horizon - 1].copy()))
    return ToyReport(results["exact"][0], results["greedy"][0],
                     results["exact"][1], results["greedy"][1])


def _format_state(q: np.ndarray) -> str:
    return f"hub={q[0]} peripherals={q[1]}" if len(set(q[1:].tolist())) == 1 \
        else str(q.tolist())


# --- report aggregation ----------------------------------------------------------


def cmd_report(eval_dir: Path) -> list[dict]:
    """Re-aggregate a previous evaluation's per-instance ARs."""
    ars_path = Path(eval_dir) / "ars.csv"
    if not ars_path.exists():
        raise ConfigError(f"{ars_path}: not found (run eval first)")
    report = EvaluationReport("?")
    with open(ars_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            report.ars.append({
                "instance": row["instance"], "policy": row["policy"],
                "ar_mean": float(row["ar_mean"]),
                "ar_median": float(row["ar_median"]),
                "ar_p95": float(row["ar_p95"]),
            })
    summary_path = Path(eval_dir) / "summary.csv"
    if summary_path.exists():
        with open(summary_path, newline="") as fh:
            first = next(csv.DictReader(fh), None)
            if first:
                report.config_name = first["config"]
                report.centralization_mean = float(first["centralization"])
    return report.aggregate()


# --- argument parsing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
                    help="comma-separated: baseline, greedy, exact, gcn")
    ev.add_argument("--checkpoint", help="GCN checkpoint (required for gcn)")
    ev.add_argument("--utility", default="product", choices=["product", "min"])
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
        mus = tuple(float(x) for x in args.mu.split(","))
        config = ExperimentConfig(args.config, mus, instances=args.instances,
                                  horizon=args.horizon, seed=args.seed)
        dirs = cmd_generate(config, Path(args.out))
        print(f"wrote {len(dirs)} instances under {args.out}")
        return 0

    if args.command == "train":
        kv = load_kv_file(args.config) if args.config else {}
        source = args.config or "<defaults>"
        config = train_config_from_kv(kv, source=str(source))
        if args.episodes is not None:
            config.episodes = args.episodes
        if args.seed is not None:
            config.seed = args.seed
        out = Path(args.out)
        result = train(config, checkpoint_dir=out)
        write_training_log(result.log, out / "training_log.csv")
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
        policies = tuple(p.strip() for p in args.policies.split(","))
        try:
            config = ExperimentConfig(
                kv["config"], tuple(float(x) for x in kv["mus"].split(",")),
                instances=int(kv["instances"]), horizon=int(kv["horizon"]),
                policies=policies, utility_kind=args.utility,
                checkpoint=Path(args.checkpoint) if args.checkpoint else None)
        except KeyError as exc:
            raise ConfigError(f"{manifest}: missing key {exc.args[0]!r}") \
                from None
        out = Path(args.out) if args.out else None
        _print_ars(cmd_eval(config, instances_dir, out).aggregate())
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
