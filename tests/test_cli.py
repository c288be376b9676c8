import hashlib
import importlib.util
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import linksched.cli as cli
from linksched.cli import (ConfigError, ExperimentConfig, cmd_eval,
                           cmd_generate, cmd_report, cmd_toy, config_text,
                           main, parse_kv_text, train_config_from_kv)
from linksched.gcn import (GcnParams, identity_params, init_params,
                           load_checkpoint, save_checkpoint)
from linksched.graph import (ConflictGraph, generate_star, load_graph,
                             save_graph)
from linksched.policies import GcnLgsPolicy, SolverPolicy
from linksched.presets import parse_graph_config
from linksched.sim import (compute_metrics, load_trace, run_episode,
                           sample_traffic, save_trace)
from linksched import train as train_module
from linksched.train import SIZE_CAPS, TrainConfig
from test_sim import write_trace_lines

TRAIN_FIELDS = [f.name for f in fields(TrainConfig)]

# every TrainConfig key, each (but init) away from its default
ALL_KEYS_CONFIG = """\
episodes = 3
horizon = 6
lookahead = 2
batch_size = 4
replay_capacity = 10
graph_mix = star5:0.5,ba-m2:0.5
loads = 0.03,0.06
layer_dims = 1,3,1
init = glorot
base_lr = 0.002
lr_decay = 0.99
checkpoint_interval = 2
seed = 9
"""

# the keys removed from TrainConfig, and a config.txt that
# `train --episodes 0` wrote while they existed
REMOVED_KEYS = ("phi", "utility_kind", "leaky_slope", "recompute_unscheduled")
OLD_CONFIG_TXT = """\
episodes = 0
horizon = 64
lookahead = 5
phi = heaviside
batch_size = 64
replay_capacity = 4096
graph_mix = star30:0.8,ba-m2:0.2
loads = 0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08
utility_kind = product
layer_dims = 1,1
leaky_slope = 0.2
init = glorot
base_lr = 0.001
lr_decay = 0.999
recompute_unscheduled = no
checkpoint_interval = 0
seed = 0
"""


def bench_tracer():
    """A fresh ``Tracer`` of the benchmark's ``perfbench/tracer.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def dir_checksums(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root)] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


class TestConfigParsing:
    def test_kv_basic(self):
        kv = parse_kv_text("a = 1\n# comment\nb= two\n\nc =3 # tail\n")
        assert kv == {"a": "1", "b": "two", "c": "3"}

    def test_kv_line_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv_text("a = 1\nbroken line\n", source="conf")

    def test_kv_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_train_config_keys(self):
        kv = parse_kv_text(
            "episodes = 10\nlookahead = 3\nlayer_dims = 1,4,1\n"
            "graph_mix = star10:0.5,er:0.5\nloads = 0.02,0.04\nseed = 5\n")
        config = train_config_from_kv(kv)
        assert config.episodes == 10
        assert config.lookahead == 3
        assert config.layer_dims == (1, 4, 1)
        assert config.graph_mix == (("star10", 0.5), ("er", 0.5))
        assert config.loads == (0.02, 0.04)

    def test_train_config_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            train_config_from_kv({"episodess": "10"})

    def test_train_config_bad_value(self):
        with pytest.raises(ConfigError, match="episodes"):
            train_config_from_kv({"episodes": "ten"})

    @pytest.mark.parametrize("name", TRAIN_FIELDS)
    def test_schema_default_round_trip(self, name):
        # every field is a key whose default, written as text, parses back
        default = getattr(TrainConfig(), name)
        config = train_config_from_kv({name: config_text(default)})
        assert getattr(config, name) == default
        assert config == TrainConfig()

    def test_schema_all_keys_round_trip(self):
        default = TrainConfig()
        kv = {name: config_text(getattr(default, name))
              for name in TRAIN_FIELDS}
        assert train_config_from_kv(kv, source="all.cfg") == default

    # any text is a valid str; validate() refuses unknown str choices
    @pytest.mark.parametrize("name", [
        name for name, kind in get_type_hints(TrainConfig).items()
        if kind is not str])
    def test_schema_unparsable_value_names_key(self, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"my.cfg: bad value for {name}: '?'")):
            train_config_from_kv({name: "?"}, source="my.cfg")

    def test_all_keys_config_sets_every_key(self):
        kv = parse_kv_text(ALL_KEYS_CONFIG)
        assert list(kv) == TRAIN_FIELDS
        config = train_config_from_kv(kv)
        assert [name for name in TRAIN_FIELDS if getattr(config, name)
                == getattr(TrainConfig(), name)] == ["init"]

    def test_schema_type_without_parser_refused(self):
        with pytest.raises(TypeError, match="no config parser"):
            cli._parser(dict[str, int])

    @pytest.mark.parametrize("name", sorted(SIZE_CAPS))
    def test_size_caps_name_the_key(self, name):
        cap = SIZE_CAPS[name]
        value = (1, cap, 1) if name == "layer_dims" else cap
        config = TrainConfig(**{name: value})
        config.validate()
        assert getattr(config, name) == value
        over = (1, cap + 1, 1) if name == "layer_dims" else cap + 1
        with pytest.raises(ConfigError, match=re.escape(
                f"my.cfg: {name} must be at most {cap}")):
            train_config_from_kv({name: config_text(over)}, source="my.cfg")

    def test_exact_policy_cap(self):
        config = ExperimentConfig("ba-m2", (0.07,), policies=("exact",))
        with pytest.raises(ConfigError, match="exact"):
            config.validate()

    def test_gcn_requires_checkpoint(self):
        config = ExperimentConfig("star5", (0.07,), policies=("gcn",))
        with pytest.raises(ConfigError, match="checkpoint"):
            config.validate()


class TestToy:
    def test_values(self):
        report = cmd_toy()
        assert report.exact_mean == pytest.approx(13 / 6, abs=1e-9)
        assert report.greedy_mean == pytest.approx(1.5, abs=1e-9)

    def test_greedy_cycle_states(self):
        report = cmd_toy()
        states = {tuple(q.tolist()) for q in report.greedy_cycle}
        assert states == {(2, 1, 1, 1, 1, 1), (1, 2, 2, 2, 2, 2)}

    def test_exact_cycle_states(self):
        report = cmd_toy()
        states = {tuple(q.tolist()) for q in report.exact_cycle}
        assert states == {(6, 1, 1, 1, 1, 1), (5, 2, 2, 2, 2, 2)}

    @pytest.mark.parametrize("horizon", [1, 0, -3])
    def test_horizon_below_two_refused(self, horizon, capsys):
        # the cycle is the last two states, q(horizon - 2) and
        # q(horizon - 1); a shorter horizon has none to show
        assert main(["toy", "--horizon", str(horizon), "--burn-in",
                     "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: toy horizon must be at least 2 "
                                f"slots, got {horizon}\n")
        assert main(["toy", "--horizon", "2", "--burn-in", "0"]) == 0


class TestGenerate:
    def test_layout_and_count(self, tmp_path):
        config = ExperimentConfig("star5", (0.05,), instances=3, horizon=8,
                                  seed=1)
        dirs = cmd_generate(config, tmp_path / "out")
        assert len(dirs) == 3
        for inst in dirs:
            assert (inst / "graph.txt").exists()
            assert (inst / "trace.csv").exists()
            assert (inst / "meta.txt").exists()

    def test_single_instance(self, tmp_path):
        config = ExperimentConfig("er", (0.07,), instances=1, horizon=4)
        assert len(cmd_generate(config, tmp_path / "out")) == 1

    def test_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig("ba-m2", (0.07,), instances=2, horizon=6,
                                  seed=7)
        cmd_generate(config, tmp_path / "a")
        cmd_generate(config, tmp_path / "b")
        assert dir_checksums(tmp_path / "a") == dir_checksums(tmp_path / "b")

    def test_golden_instance_bytes(self, tmp_path):
        # the instance files of one small fixed-seed run, pinned to the bytes
        # of the row-by-row csv writer this format started from, plus the
        # graph's "edges <E>" line
        cmd_generate(ExperimentConfig("ba-mix", (0.05,), instances=1,
                                      horizon=8, seed=3), tmp_path)
        inst = tmp_path / "instance_0000"
        digests = {name: hashlib.sha256((inst / name).read_bytes()).hexdigest()
                   for name in ("graph.txt", "trace.csv")}
        assert digests == {
            "graph.txt": "8df3cf9bd0287395d2665ee0a268d8d7ce2f74d6a5cb29d8a"
                         "7614750c285a867",
            "trace.csv": "9d9d9620724b0b989c816e138df90aec4bf64ba8b93a0a08d"
                         "c8d8ad3a6e5955a",
        }

    def test_seed_changes_output(self, tmp_path):
        base = dict(instances=1, horizon=6)
        cmd_generate(ExperimentConfig("er", (0.07,), seed=1, **base),
                     tmp_path / "a")
        cmd_generate(ExperimentConfig("er", (0.07,), seed=2, **base),
                     tmp_path / "b")
        assert dir_checksums(tmp_path / "a") != dir_checksums(tmp_path / "b")


@pytest.fixture
def small_instances(tmp_path):
    config = ExperimentConfig("star5", (0.07,), instances=4, horizon=16,
                              seed=3)
    out = tmp_path / "instances"
    cmd_generate(config, out)
    return config, out


class TestEval:
    def test_baseline_self_ars_are_one(self, small_instances, tmp_path):
        config, instances = small_instances
        config.policies = ("baseline",)
        report = cmd_eval(config, instances, tmp_path / "eval")
        assert report.ars
        for row in report.ars:
            assert row["ar_mean"] == 1.0
            assert row["ar_median"] == 1.0
            assert row["ar_p95"] == 1.0
        assert (tmp_path / "eval" / "per_instance.csv").exists()
        assert (tmp_path / "eval" / "ars.csv").exists()
        assert (tmp_path / "eval" / "summary.csv").exists()

    def test_identity_gcn_ars_exactly_one(self, small_instances, tmp_path):
        config, instances = small_instances
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, identity_params())
        config.policies = ("baseline", "gcn")
        config.checkpoint = ckpt
        report = cmd_eval(config, instances, None)
        gcn_rows = [r for r in report.ars if r["policy"] == "gcn"]
        assert gcn_rows
        for row in gcn_rows:
            assert row["ar_mean"] == 1.0
            assert row["ar_median"] == 1.0
            assert row["ar_p95"] == 1.0

    def test_metrics_equal_each_policy_alone(self, small_instances,
                                             tmp_path):
        # one lockstep episode per instance; each policy's row of
        # per_instance.csv is that policy's metrics when run by itself
        config, instances = small_instances
        ckpt = tmp_path / "deep.ckpt"
        save_checkpoint(ckpt, init_params((1, 4, 1), 2))
        config.policies = ("gcn", "greedy", "baseline", "exact")
        config.checkpoint = ckpt
        report = cmd_eval(config, instances, None)
        network = load_checkpoint(ckpt)
        alone = {"gcn": GcnLgsPolicy(network.params, network.slope),
                 "greedy": SolverPolicy("greedy"),
                 "baseline": SolverPolicy("lgs"),
                 "exact": SolverPolicy("exact")}
        assert len(report.metrics) == 4 * 4
        for row in report.metrics:
            inst = instances / row["instance"]
            graph = load_graph(inst / "graph.txt", 6)
            trace = load_trace(inst / "trace.csv", 6)
            result, = run_episode(graph, [alone[row["policy"]]], trace)
            want = compute_metrics(result)
            assert (row["mean"], row["median"], row["p95"],
                    row["objective"], row["rounds_mean"]) == \
                (want.mean, want.median, want.p95, want.objective,
                 want.rounds_mean)

    def test_trace_checksums_shared(self, small_instances, tmp_path):
        config, instances = small_instances
        config.policies = ("baseline", "greedy", "exact")
        report = cmd_eval(config, instances, None)
        by_instance = {}
        for row in report.ars:
            by_instance.setdefault(row["instance"], set()).add(
                row["trace_checksum"])
        for checksums in by_instance.values():
            assert len(checksums) == 1

    def test_loads_each_input_once(self, small_instances, tmp_path,
                                   monkeypatch):
        config, instances = small_instances
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, identity_params())
        config.policies = ("baseline", "greedy", "gcn")
        config.checkpoint = ckpt
        calls = {"load_trace": 0, "load_checkpoint": 0, "load_graph": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        counted("load_trace")
        counted("load_checkpoint")
        counted("load_graph")
        cmd_eval(config, instances, None)
        # the 4 star5 instances share one graph.txt, parsed once
        assert calls == {"load_trace": 4, "load_checkpoint": 1,
                         "load_graph": 1}

    def test_policy_writing_rates_fails(self, small_instances, monkeypatch,
                                        capsys):
        # a policy's input, its rows of backlog x rate, is read-only
        _, instances = small_instances

        class Vandal(SolverPolicy):
            def utilities(self, graph, x):
                x[:] = 0
                return super().utilities(graph, x)

        monkeypatch.setattr(cli, "_make_policy",
                            lambda name, config: Vandal("lgs"))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,greedy"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "read-only" in err

    def test_policy_writing_rates_fails_beside_lgs_policies(
            self, small_instances, monkeypatch, capsys, tmp_path):
        # baseline and gcn are solved in one batch each slot; the vandal
        # beside them still meets read-only backlog x rate rows
        _, instances = small_instances
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, identity_params())
        make_policy = cli._make_policy

        class Vandal(SolverPolicy):
            def utilities(self, graph, x):
                x[:] = 0
                return super().utilities(graph, x)

        monkeypatch.setattr(
            cli, "_make_policy", lambda name, config:
            Vandal("greedy") if name == "greedy"
            else make_policy(name, config))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,gcn,greedy", "--checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "read-only" in err

    def test_checkpoint_of_another_input_width_refused(
            self, small_instances, capsys, tmp_path):
        # load_checkpoint accepts a network of two input features; the
        # scheduler feeds one, so eval refuses it when it builds the
        # policy, naming the file and its width, before any instance
        _, instances = small_instances
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(ckpt, GcnParams((2, 1), [np.ones((2, 1))],
                                        [np.ones((2, 1))]))
        assert load_checkpoint(ckpt).params.layer_dims == (2, 1)
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,gcn", "--checkpoint", str(ckpt), "--out",
                   str(tmp_path / "eval")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {ckpt}: GCN input width 2, expected 1\n"

    def test_same_outputs_under_bench_tracer(self, small_instances,
                                             tmp_path):
        # the benchmark's tracer rebinds every package function, the
        # solvers included; eval must still batch, write the same files and
        # leave no call of a traced function unrecorded
        config, instances = small_instances
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, init_params((1, 4, 1), 2))
        config.policies = ("baseline", "greedy", "exact", "gcn")
        config.checkpoint = ckpt
        cmd_eval(config, instances, tmp_path / "plain")
        tracer = bench_tracer()
        assert tracer.audit(lambda: cli.cmd_eval(config, instances,
                                                 tmp_path / "traced")) == {}
        calls = Counter(tracer.labels[i] for i in tracer.name_ids)
        # the 4 star5 instances share a graph: one lockstep episode for the
        # group, one batched solve per solver and slot, and one weighing
        # of every row per slot
        assert calls["sim.run_episode"] == 1
        assert calls["solvers.lgs_rows"] == 16
        assert calls["solvers.greedy_centralized"] == 16
        assert calls["solvers.exact_mwis"] == 16
        assert calls["solvers.baseline_utility"] == 16
        for name in ("per_instance.csv", "ars.csv", "summary.csv"):
            assert (tmp_path / "traced" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_missing_instances(self, tmp_path):
        config = ExperimentConfig("star5", (0.07,))
        with pytest.raises(ConfigError):
            cmd_eval(config, tmp_path / "nope", None)


@pytest.fixture
def mixed_instances(tmp_path):
    """Eight star5-config instances in one directory, as A A A D A B B A:
    A of horizon 16 and B of horizon 12 share the star5 graph.txt, and D
    is a 6-node star centred on node 5, another graph.txt."""
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_generate(ExperimentConfig("star5", (0.07,), instances=5, horizon=16,
                                  seed=3), a)
    cmd_generate(ExperimentConfig("star5", (0.05,), instances=2, horizon=12,
                                  seed=4), b)
    out = tmp_path / "mixed"
    out.mkdir()
    (out / "manifest.txt").write_bytes((a / "manifest.txt").read_bytes())
    sources = [a / "instance_0000", a / "instance_0001", a / "instance_0002",
               None, a / "instance_0003", b / "instance_0000",
               b / "instance_0001", a / "instance_0004"]
    for k, source in enumerate(sources):
        inst = out / f"instance_{k:04d}"
        inst.mkdir()
        if source is None:
            graph = ConflictGraph.from_edges(6, [(5, v) for v in range(5)])
            save_graph(graph, inst / "graph.txt")
            save_trace(sample_traffic(graph, 16, 3.0, 8), inst / "trace.csv")
        else:
            for name in ("graph.txt", "trace.csv"):
                (inst / name).write_bytes((source / name).read_bytes())
    return out


class TestEvalGroups:
    POLICIES = ("baseline", "greedy", "exact", "gcn")

    def config(self, tmp_path):
        ckpt = tmp_path / "deep.ckpt"
        save_checkpoint(ckpt, init_params((1, 4, 1), 2))
        return ExperimentConfig("star5", (0.07,), policies=self.POLICIES,
                                checkpoint=ckpt)

    def test_same_outputs_as_each_instance_alone(self, mixed_instances,
                                                 tmp_path, monkeypatch):
        # a group holds two instances of horizon 16 here; it breaks on
        # the cap, on the distinct graph and on the horizon
        config = self.config(tmp_path)
        per_instance = len(self.POLICIES) * 17 * 6
        traces_per_call, graphs_parsed = [], []
        episode, parse = cli.run_episode, cli.load_graph

        def counted_episode(graph, policies, *traces, **kwargs):
            traces_per_call.append([trace.horizon for trace in traces])
            return episode(graph, policies, *traces, **kwargs)

        def counted_parse(path, max_nodes):
            graphs_parsed.append(Path(path).parent.name)
            return parse(path, max_nodes)
        monkeypatch.setattr(cli, "run_episode", counted_episode)
        monkeypatch.setattr(cli, "load_graph", counted_parse)
        monkeypatch.setattr(cli, "EVAL_GROUP_ENTRIES", 2 * per_instance)
        grouped = cmd_eval(config, mixed_instances, tmp_path / "grouped")
        assert traces_per_call == [[16, 16], [16], [16], [16], [12, 12],
                                   [16]]
        assert graphs_parsed == ["instance_0000", "instance_0003",
                                 "instance_0004"]
        # a cap below one instance leaves every instance alone
        traces_per_call.clear()
        monkeypatch.setattr(cli, "EVAL_GROUP_ENTRIES", 1)
        alone = cmd_eval(config, mixed_instances, tmp_path / "alone")
        assert traces_per_call == [[16]] * 5 + [[12]] * 2 + [[16]]
        assert len(grouped.metrics) == 8 * len(self.POLICIES)
        assert grouped.summary == alone.summary
        for name in ("per_instance.csv", "ars.csv", "summary.csv"):
            assert (tmp_path / "grouped" / name).read_bytes() == \
                (tmp_path / "alone" / name).read_bytes()

    @pytest.mark.parametrize("inst, name", [
        ("instance_0001", "graph.txt"), ("instance_0001", "trace.csv"),
        ("instance_0006", "trace.csv"), ("instance_0007", "graph.txt")])
    def test_malformed_file_in_a_group(self, mixed_instances, tmp_path,
                                       capsys, inst, name, monkeypatch):
        # a file that breaks a group's run of identical graphs, or a trace
        # inside one, gives the one error line its own loader raises
        path = mixed_instances / inst / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + "x y\n")
        with pytest.raises(ValueError) as raised:
            if name == "graph.txt":
                load_graph(path, 6)
            else:
                load_trace(path, 6)
        for cap in (cli.EVAL_GROUP_ENTRIES, 1):
            monkeypatch.setattr(cli, "EVAL_GROUP_ENTRIES", cap)
            assert main(["eval", "--instances", str(mixed_instances),
                         "--policies", "baseline,greedy,exact"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {raised.value}\n"
            assert captured.out == ""


class TestInfiniteArs:
    def test_eval_and_report_quartiles(self, tmp_path, capsys):
        # at load 0.01 the baseline's median backlog is 0 on one of three
        # star5 instances, where an inverted GCN's is not: that AR is
        # x/0 = inf, and the quartiles of [1, 1, inf] are [1, 1, inf]
        instances, out = tmp_path / "inst", tmp_path / "eval"
        ckpt = tmp_path / "inverted.ckpt"
        save_checkpoint(ckpt, GcnParams((1, 1), [np.array([[-0.634]])],
                                        [np.array([[0.292]])]))
        assert main(["generate", "--config", "star5", "--instances", "3",
                     "--mu", "0.01", "--horizon", "16", "--seed", "1",
                     "--out", str(instances)]) == 0
        capsys.readouterr()
        assert main(["eval", "--instances", str(instances), "--policies",
                     "baseline,gcn", "--checkpoint", str(ckpt), "--out",
                     str(out)]) == 0
        medians = [float(row.split(",")[3]) for row in
                   (out / "ars.csv").read_text().splitlines()
                   if ",gcn," in row]
        assert sorted(medians) == [1.0, 1.0, np.inf]
        summary = (out / "summary.csv").read_text().splitlines()
        assert "star5,3,3.0,gcn,median,inf,1.0,1.0,inf" \
            in summary
        assert not any("nan" in row for row in summary)
        printed = capsys.readouterr().out
        assert "median AR: mean inf quartiles [1.0000, 1.0000, inf]" \
            in printed
        assert main(["report", "--eval-dir", str(out)]) == 0
        assert capsys.readouterr().out == printed


class TestReport:
    def test_matches_eval_aggregate(self, small_instances, tmp_path):
        config, instances = small_instances
        config.policies = ("baseline", "greedy")
        out = tmp_path / "eval"
        report = cmd_eval(config, instances, out)
        rows = cmd_report(out)
        want = report.aggregate()
        assert len(rows) == len(want)
        for got, expect in zip(rows, want):
            assert got["policy"] == expect["policy"]
            assert got["metric"] == expect["metric"]
            assert got["ar_mean"] == pytest.approx(expect["ar_mean"])

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_report(tmp_path)


class TestMainEntry:
    def test_toy_command(self, capsys):
        assert main(["toy"]) == 0
        out = capsys.readouterr().out
        assert "2.166667" in out
        assert "1.500000" in out

    def test_generate_then_eval(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = main(["generate", "--config", "Star5", "--instances", "2",
                   "--mu", "0.07", "--horizon", "8", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rc = main(["eval", "--instances", str(out), "--policies",
                   "baseline,greedy", "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert (tmp_path / "eval" / "summary.csv").exists()
        rc = main(["report", "--eval-dir", str(tmp_path / "eval")])
        assert rc == 0

    def test_train_zero_episodes_equals_init(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("episodes = 0\nseed = 4\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        ckpt = load_checkpoint(out / "checkpoint.ckpt")
        from linksched.train import TrainConfig, initial_params
        master = np.random.default_rng(4)
        expected = initial_params(TrainConfig(seed=4),
                                  np.random.default_rng(master.integers(2**63)))
        assert np.array_equal(ckpt.params.theta0[0], expected.theta0[0])
        assert np.array_equal(ckpt.params.theta1[0], expected.theta1[0])
        log = (out / "training_log.csv").read_text().splitlines()
        assert log == ["episode,loss,win_rate,lr,graph_model"]

    def test_train_under_bench_tracer(self, tmp_path, monkeypatch):
        # the bench's train-mix config, 3 episodes: the tracer misses no
        # call, the outputs are those of an untraced run, and each episode
        # runs the GCN's layer loop once per main-trajectory slot (horizon +
        # lookahead - 1), with no re-forward for the reward's utilities,
        # and the replay batch one forward, through that loop, and one
        # backward per node count; each main-trajectory slot is one greedy
        # call, and LGS runs only in the baseline's rollouts: one lgs_rows
        # call per episode for the first step from every state, then one
        # per step of the rollouts that leave the trajectory. At seed 15
        # those are 4 steps in all, of the 3 * (5 - 1) a rollout of every
        # state would take
        conf = tmp_path / "train.cfg"
        conf.write_text("graph_mix = star30:0.8,ba-m2:0.2\n"
                        "loads = 0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08\n"
                        "horizon = 64\nlookahead = 5\nbatch_size = 64\n"
                        "layer_dims = 1,1\ninit = identity\n")

        def run(name):  # through the module, as the tracer rebinds it
            return cli.main(["train", "--config", str(conf), "--episodes",
                             "3", "--seed", "15", "--out",
                             str(tmp_path / name)])
        sizes = []
        batch_gradients = train_module.batch_gradients

        def counting(params, batch):
            sizes.append(len({item.graph.node_count for item in batch}))
            return batch_gradients(params, batch)
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "batch_gradients", counting)
            assert run("plain") == 0
        # seed 15 trains on star30, ba-m2, star30: the last two batches
        # hold items of 31 and of 70 nodes
        assert sizes == [1, 2, 2]
        tracer = bench_tracer()
        codes = []
        assert tracer.audit(lambda: codes.append(run("traced"))) == {}
        assert codes == [0]
        for name in ("training_log.csv", "checkpoint.ckpt"):
            assert (tmp_path / "traced" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()
        calls = Counter(tracer.labels[i] for i in tracer.name_ids)
        assert calls["train.collect_episode"] == 3
        assert calls["gcn.propagate"] == 3 * (64 + 5 - 1) + sum(sizes)
        assert calls["gcn.forward"] == sum(sizes)
        assert calls["gcn.backward"] == sum(sizes)
        assert calls["solvers.greedy_centralized"] == 3 * (64 + 5 - 1)
        assert calls["solvers.lgs_rows"] == 3 + 4

    def test_train_smoke_log_rows(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("episodes = 2\nhorizon = 6\nlookahead = 2\n"
                        "graph_mix = star5:1.0\nbatch_size = 4\nseed = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "training_log.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 episodes

    def test_parser_cache_leaks_no_override(self, tmp_path, capsys):
        # the second run omits --seed, so it trains at its config's seed
        conf = tmp_path / "train.conf"
        conf.write_text("episodes = 0\nseed = 4\n")
        runs = [(["--seed", "5"], "seed = 5\n"), ([], "seed = 4\n")]
        for k, (extra, line) in enumerate(runs):
            out = tmp_path / f"run{k}"
            assert main(["train", "--config", str(conf), *extra,
                         "--out", str(out)]) == 0
            assert line in (out / "config.txt").read_text()
        assert cli._build_parser() is cli._build_parser()

    def test_parse_error_between_calls(self, monkeypatch, capsys):
        # an argparse error between two calls changes neither of them
        seen = []
        monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args)))
        main(["toy", "--horizon", "9"])
        with pytest.raises(SystemExit) as exc:
            main(["toy", "--horizon", "x", "--burn-in", "3"])
        assert exc.value.code == 2
        main(["toy"])
        assert seen == [{"command": "toy", "horizon": 9, "burn_in": 20},
                        {"command": "toy", "horizon": 128, "burn_in": 20}]

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["eval", "--instances", str(tmp_path / "missing")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_missing_key(self, small_instances, capsys):
        _, instances = small_instances
        manifest = instances / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(f"{line}\n" for line in lines
                                    if not line.startswith("horizon")))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(manifest) in err and "'horizon'" in err

    @pytest.mark.parametrize("key, value", [("mus", "abc"),
                                            ("instances", "2.5"),
                                            ("horizon", "x")])
    def test_manifest_bad_value_names_key(self, small_instances, capsys, key,
                                          value):
        _, instances = small_instances
        manifest = instances / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(
            f"{key} = {value}\n" if line.startswith(f"{key} = ")
            else f"{line}\n" for line in lines))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {manifest}: bad value for {key}: '{value}'\n"

    @pytest.mark.parametrize("command", ["train", "train-config", "generate"])
    def test_negative_seed_refused_before_output(self, tmp_path, capsys,
                                                 command):
        # refused by name when the configuration is read, before the output
        # directory or any file in it is made
        conf = tmp_path / "train.cfg"
        conf.write_text("seed = -1\n")
        argv, source = {
            "train": (["train", "--seed", "-1"], "<defaults>: "),
            "train-config": (["train", "--config", str(conf)], f"{conf}: "),
            "generate": (["generate", "--config", "star5", "--seed", "-1"], ""),
        }[command]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {source}seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_oversized_trace_header(self, small_instances, capsys):
        # metadata promising 10^22 rows must not reach an allocation
        _, instances = small_instances
        trace = instances / "instance_0000" / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[0] = "# seed=1 nodes=100000000000 horizon=100000000000"
        write_trace_lines(trace, lines)
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: line 1: ")
        assert "Traceback" not in err

    def test_exact_refused_on_oversized_instance(self, tmp_path, capsys,
                                                 monkeypatch):
        # a manifest hand-edited to a small config lets validation pass;
        # load_graph must still refuse a graph above the config's size
        instances = tmp_path / "inst"
        cmd_generate(ExperimentConfig("ba-m2", (0.07,), instances=2,
                                      horizon=8, seed=1), instances)
        manifest = instances / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(
            "config = star30\n" if line.startswith("config") else f"{line}\n"
            for line in lines))
        runs = []
        monkeypatch.setattr(cli, "run_episode",
                            lambda *args, **kwargs: runs.append(args))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,exact"])
        assert rc == 1
        graph = instances / "instance_0000" / "graph.txt"
        assert capsys.readouterr().err.startswith(f"error: {graph}: line 1: ")
        assert runs == []

    def test_oversized_graph_header(self, small_instances, capsys):
        # a header promising 10^11 nodes must be refused before anything is
        # sized by it
        _, instances = small_instances
        graph = instances / "instance_0000" / "graph.txt"
        lines = graph.read_text().splitlines()
        lines[0] = "nodes 100000000000"
        graph.write_text("".join(f"{line}\n" for line in lines))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {graph}: line 1: ")
        assert "Traceback" not in err

    def test_trace_width_mismatch_names_trace(self, small_instances,
                                              capsys):
        # a star6 trace (7 nodes) in a star5 instance (6 nodes)
        _, instances = small_instances
        trace = instances / "instance_0000" / "trace.csv"
        save_trace(sample_traffic(generate_star(6), 16, 3.5, 1), trace)
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: line 1: trace of 16 slots x 7 nodes; the graph has 6")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["generate", "--config", "star5",
                      "--instances", "10000000000000000"], id="instances"),
        pytest.param(["generate", "--config", "star5",
                      "--horizon", "100000000000000"], id="horizon"),
        pytest.param(["generate", "--config", "star100000000000"], id="star"),
        pytest.param(["toy", "--horizon", "100000000000000"], id="toy"),
    ])
    def test_oversized_sizes_fail_closed(self, tmp_path, capsys, argv):
        # each size is far beyond any address space, so numpy refuses the
        # allocation at once, and a star that large is refused at parsing
        if argv[0] == "generate":
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_policy_named_twice(self, small_instances, tmp_path, capsys,
                                monkeypatch):
        _, instances = small_instances
        ckpt = tmp_path / "id.ckpt"
        save_checkpoint(ckpt, identity_params())
        runs = []
        monkeypatch.setattr(cli, "run_episode",
                            lambda *args, **kwargs: runs.append(args))
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,gcn,gcn", "--checkpoint", str(ckpt)])
        assert rc == 1
        assert "policy 'gcn' named more than once" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("name, column", [("ars.csv", "ar_median"),
                                              ("summary.csv", "config")])
    def test_report_missing_column(self, small_instances, tmp_path, capsys,
                                   name, column):
        config, instances = small_instances
        config.policies = ("baseline", "greedy")
        out = tmp_path / "eval"
        cmd_eval(config, instances, out)
        path = out / name
        header, *rows = [line.split(",") for line in
                         path.read_text().splitlines()]
        keep = [k for k, field in enumerate(header) if field != column]
        path.write_text("".join(",".join(line[k] for k in keep) + "\n"
                                for line in [header, *rows]))
        assert main(["report", "--eval-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: missing column '{column}'" in err

    def test_report_short_row(self, small_instances, tmp_path, capsys):
        config, instances = small_instances
        config.policies = ("baseline",)
        out = tmp_path / "eval"
        cmd_eval(config, instances, out)
        path = out / "ars.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:4])  # cut from ar_p95 on
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--eval-dir", str(out)]) == 1
        assert f"error: {path}: line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("name, column", [
        ("ars.csv", "ar_median"), ("summary.csv", "centralization")])
    def test_report_bad_value_named(self, small_instances, tmp_path, capsys,
                                    name, column):
        config, instances = small_instances
        config.policies = ("baseline", "greedy")
        out = tmp_path / "eval"
        cmd_eval(config, instances, out)
        path = out / name
        header, *rows = [line.split(",") for line in
                         path.read_text().splitlines()]
        rows[1][header.index(column)] = "abc"
        path.write_text("".join(",".join(line) + "\n"
                                for line in [header, *rows]))
        assert main(["report", "--eval-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 3: bad value for {column}: 'abc'\n"

    @pytest.mark.parametrize("column", ["ar_mean", "ar_median", "ar_p95"])
    @pytest.mark.parametrize("value, refused", [
        ("nan", True), ("-1.0", True), ("-inf", True), ("inf", False),
        ("-0.0", False)])
    def test_report_ar_outside_convention(self, small_instances, tmp_path,
                                          capsys, column, value, refused):
        # backlog_ratio's ARs are never NaN and never below 0; x/0 is inf
        config, instances = small_instances
        config.policies = ("baseline", "greedy")
        out = tmp_path / "eval"
        cmd_eval(config, instances, out)
        path = out / "ars.csv"
        header, *rows = [line.split(",") for line in
                         path.read_text().splitlines()]
        rows[1][header.index(column)] = value
        path.write_text("".join(",".join(line) + "\n"
                                for line in [header, *rows]))
        code = main(["report", "--eval-dir", str(out)])
        err = capsys.readouterr().err
        if refused:
            assert code == 1
            assert err == (f"error: {path}: line 3: bad value for {column}: "
                           f"{value!r}\n")
        else:
            assert code == 0 and err == ""

    @pytest.mark.parametrize("mu", ["abc", "0.05,"])
    def test_generate_bad_mu_named(self, tmp_path, capsys, mu):
        out = tmp_path / "gen"
        assert main(["generate", "--config", "star5", "--mu", mu,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad value for --mu: {mu!r}\n"
        assert not out.exists()

    def test_bad_config_file_diagnostics(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("episodes == 3\n")
        rc = main(["train", "--config", str(conf), "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 1" in err or "bad value" in err

    @pytest.mark.parametrize("config", [None, ALL_KEYS_CONFIG],
                             ids=["default", "all-keys"])
    def test_config_txt_reproduces_run(self, tmp_path, capsys, config):
        # config.txt records the effective config, overrides included, and
        # training from it rewrites the run byte for byte
        argv = ["train", "--episodes", "2", "--seed", "5"]
        if config is not None:
            (tmp_path / "in.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "in.cfg")]
        first = tmp_path / "first"
        assert main(argv + ["--out", str(first)]) == 0
        text = (first / "config.txt").read_text()
        assert [line.split(" = ")[0] for line in text.splitlines()] \
            == TRAIN_FIELDS
        assert "episodes = 2\n" in text and "seed = 5\n" in text
        again = tmp_path / "again"
        assert main(["train", "--config", str(first / "config.txt"),
                     "--out", str(again)]) == 0
        assert {"config.txt", "training_log.csv", "checkpoint.ckpt"} \
            <= {path.name for path in first.iterdir()}
        assert dir_checksums(again) == dir_checksums(first)

    @pytest.mark.parametrize("key", [*REMOVED_KEYS, None],
                             ids=[*REMOVED_KEYS, "old-config.txt"])
    def test_removed_key_refused_by_name(self, tmp_path, capsys, key):
        # each removed key alone among the kept keys of an old config.txt,
        # then the whole file, whose first removed key is phi
        conf = tmp_path / "old.cfg"
        conf.write_text("".join(
            f"{line}\n" for line in OLD_CONFIG_TXT.splitlines()
            if key is None or line.split(" = ")[0] not in REMOVED_KEYS
            or line.startswith(f"{key} = ")))
        out = tmp_path / "out"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {conf}: unknown key '{key or 'phi'}'\n"
        assert not out.exists()

    def test_eval_utility_flag_refused(self, tmp_path, capsys):
        # the GCN's input is fixed by training, not chosen at eval
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--instances", str(tmp_path), "--utility", "min"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --utility min" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["2,1", "1,3", "1", "1,0,1"])
    def test_bad_layer_dims_refused_before_output(self, tmp_path, capsys,
                                                  dims):
        # refused by name when the file is read, not in the first episode
        conf = tmp_path / "train.cfg"
        conf.write_text(f"layer_dims = {dims}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {conf}: layer_dims ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_failed_generate_leaves_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "inst"
        out.mkdir()
        (out / "manifest.txt").write_text("config = star5\n")  # a stale one
        assert main(["generate", "--config", "star5", "--instances", "2",
                     "--horizon", "100000000000000", "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        capsys.readouterr()
        assert main(["eval", "--instances", str(out), "--policies",
                     "baseline"]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'manifest.txt'}: not found (run generate first)\n")

    def test_format_1_checkpoint_refused(self, small_instances, tmp_path,
                                         capsys):
        _, instances = small_instances
        ckpt = tmp_path / "old.ckpt"
        save_checkpoint(ckpt, identity_params())
        blob = ckpt.read_bytes()
        # format 1 kept five Adam settings after the slope
        ckpt.write_bytes(b"LNKSGCN1" + blob[8:28] + bytes(40) + blob[28:])
        assert main(["eval", "--instances", str(instances), "--checkpoint",
                     str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: checkpoint format 1 ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("0,0,100000000000000000000000,5",
         "line 3: expected four integer fields, each within int64"),
        ("0,0,-1,5", "line 3: arrival -1"),
    ], ids=["overflow", "negative"])
    def test_trace_field_out_of_int64_names_line(self, small_instances,
                                                 capsys, row, message):
        _, instances = small_instances
        trace = instances / "instance_0000" / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[2] = row
        write_trace_lines(trace, lines)
        assert main(["eval", "--instances", str(instances), "--policies",
                     "baseline"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["trace.csv", "graph.txt"])
    def test_hand_edited_instance_refused(self, tmp_path, capsys, name):
        # generate writes one layout per file, and eval reads no other: two
        # trace rows swapped, or a blank line among the edges, is refused
        # at its line before any output is written
        instances = tmp_path / "inst"
        cmd_generate(ExperimentConfig("star30", (0.05,), instances=2,
                                      horizon=4, seed=2), instances)
        path = instances / "instance_0001" / name
        lines = path.read_text().splitlines()
        if name == "trace.csv":
            lines[3], lines[4] = lines[4], lines[3]  # rows (0, 1) and (0, 2)
            reason = "line 4: (t, node) = (0, 2), expected (0, 1)"
        else:
            lines.insert(10, "")
            reason = "line 11: expected 'i j' pair"
        if name == "trace.csv":
            write_trace_lines(path, lines)
        else:
            path.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "eval"
        assert main(["eval", "--instances", str(instances), "--policies",
                     "baseline,greedy", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("base_lr = -1", "base_lr must be positive and finite, got -1.0"),
        ("lr_decay = -0.5", "lr_decay must lie in (0, 1], got -0.5"),
        ("lr_decay = 0", "lr_decay must lie in (0, 1], got 0.0"),
        ("lr_decay = 10", "lr_decay must lie in (0, 1], got 10.0"),
    ], ids=["base_lr-negative", "lr_decay-negative", "lr_decay-0",
            "lr_decay-10"])
    def test_learning_rate_refused_by_key(self, tmp_path, capsys, line,
                                          message):
        # gradient ascent, a step whose sign flips every episode, learning
        # that stops after episode 0, a rate ten times larger each episode:
        # each refused by its key when the configuration is read
        key, value = (part.strip() for part in line.split("="))
        with pytest.raises(ConfigError, match=re.escape(f"<t>: {message}")):
            train_config_from_kv({key: value}, "<t>")
        conf = tmp_path / "train.cfg"
        conf.write_text(f"{line}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(conf), "--episodes", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {conf}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["graph.txt", "trace.csv",
                                      "manifest.txt", "train.cfg", "ars.csv",
                                      "summary.csv"])
    def test_non_utf8_byte_named_with_file_and_line(self, small_instances,
                                                    tmp_path, capsys, name):
        # a 0xff byte at the start of line 3: each reader names the file
        # and the line, where Python's codec error names neither
        config, instances = small_instances
        config.policies = ("baseline", "greedy")
        out = tmp_path / "eval"
        cmd_eval(config, instances, out)
        (tmp_path / "train.cfg").write_text("episodes = 0\nseed = 1\n"
                                            "horizon = 4\n")
        path = {"graph.txt": instances / "instance_0000" / name,
                "trace.csv": instances / "instance_0000" / name,
                "manifest.txt": instances / name,
                "train.cfg": tmp_path / name}.get(name, out / name)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        argv = {"train.cfg": ["train", "--config", str(path), "--out",
                              str(tmp_path / "run")],
                "ars.csv": ["report", "--eval-dir", str(out)],
                "summary.csv": ["report", "--eval-dir", str(out)]}.get(
            name, ["eval", "--instances", str(instances), "--policies",
                   "baseline"])
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: line 3: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("name", ["star030", "star\uff13\uff10",
                                      "ba-m02", "ba-m\uff12"],
                             ids=["star030", "star30-full-width", "ba-m02",
                                  "ba-m2-full-width"])
    def test_family_count_read_as_written(self, tmp_path, capsys, name):
        # a count with a leading zero or in full-width digits names no
        # family: it resolved to star30 or ba-m2 under the name as typed,
        # which then reached manifest.txt, summary.csv and training_log.csv
        message = f"unknown graph configuration: {name!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph_config(name)
        out = tmp_path / "gen"
        assert main(["generate", "--config", name, "--instances", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ConfigError, match=re.escape(f"<t>: {message}")):
            train_config_from_kv({"graph_mix": f"{name}:1"}, "<t>")
        # case and surrounding spaces are still ignored
        for typed in ("Star30", " star30 ", "BA-M2"):
            assert parse_graph_config(typed).name == typed.strip().lower()

    def test_replay_capacity_overflow_fails_closed(self, tmp_path, capsys):
        conf = tmp_path / "train.cfg"
        conf.write_text("replay_capacity = 100000000000000000000\n")
        assert main(["train", "--config", str(conf), "--episodes", "1",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {conf}: replay_capacity must be at "
                              "most ")
        assert "Traceback" not in err

    def test_arrivals_past_int64_name_trace(self, tmp_path, capsys):
        # star5, 4 slots, 2**62 arrivals per slot on every link: each
        # field fits int64, but a queue would pass 2**63 - 1 in slot 1
        instances = tmp_path / "inst"
        cmd_generate(ExperimentConfig("star5", (0.07,), instances=1,
                                      horizon=4, seed=1), instances)
        trace = instances / "instance_0000" / "trace.csv"
        rows = [f"{t},{v},{2**62},5" for t in range(4) for v in range(6)]
        write_trace_lines(trace, ["# seed=1 nodes=6 horizon=4",
                                  "t,node,arrival,rate"] + rows)
        assert main(["eval", "--instances", str(instances), "--policies",
                     "baseline"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {trace}: arrivals on link 0 sum past "
                       "2**63 - 1 by slot 1\n")


def junk_variants(lines: list[str]):
    """(case id, edited lines) pairs: the file truncated after each line
    count, each line replaced by junk, and each line's last field replaced
    by an integer that does not fit in int64."""
    for k in range(len(lines)):
        yield f"truncate-{k}", lines[:k]
        yield f"junk-{k}", lines[:k] + ["junk"] + lines[k + 1:]
        huge = re.sub(r"[^=, ]*$", str(10**23), lines[k])
        yield f"huge-{k}", lines[:k] + [huge] + lines[k + 1:]


class TestFuzz:
    """Every corruption of an input exits 0 or 1, never with an uncaught
    exception, and a failure is one ``error:`` line."""

    def outcome(self, capsys, argv) -> int:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1), argv
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return rc

    @pytest.fixture
    def eval_inputs(self, tmp_path):
        instances = tmp_path / "inst"
        cmd_generate(ExperimentConfig("star5", (0.07,), instances=1,
                                      horizon=3, seed=2), instances)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params((1, 1), 0))
        argv = ["eval", "--instances", str(instances), "--policies",
                "baseline,gcn", "--checkpoint", str(ckpt)]
        return instances, ckpt, argv

    @pytest.mark.parametrize("name", ["manifest.txt",
                                      "instance_0000/graph.txt",
                                      "instance_0000/trace.csv"])
    def test_eval_text_inputs(self, eval_inputs, capsys, name):
        instances, _, argv = eval_inputs
        path = instances / name
        good = path.read_text().splitlines()
        assert self.outcome(capsys, argv) == 0

        def write(lines):  # with the line ends the file was written with
            if name.endswith("trace.csv"):
                write_trace_lines(path, lines)
            else:
                path.write_text("".join(f"{line}\n" for line in lines))
        outcomes = {}
        for case, lines in junk_variants(good):
            write(lines)
            outcomes[case] = self.outcome(capsys, argv)
        write(good)
        # what a corrupted file may still mean: eval reads no manifest seed
        # and sizes nothing by its instance count or horizon; a graph states
        # its edge count and a trace its size, so no cut of either is valid
        valid = {
            "manifest.txt": {"truncate-4", "huge-1", "huge-2", "huge-4"},
            "instance_0000/graph.txt": set(),
            "instance_0000/trace.csv": set(),
        }[name]
        assert {case for case, rc in outcomes.items() if rc == 0} == valid

    def test_eval_checkpoint(self, eval_inputs, capsys):
        _, ckpt, argv = eval_inputs
        good = ckpt.read_bytes()
        fields_at = [(0, 8), (8, 12), (12, 16), (16, 20), (20, 28), (28, 36),
                     (36, 44)]  # magic, L, g_0, g_1, slope, theta0, theta1
        assert len(good) == 44
        for cut in range(len(good)):
            ckpt.write_bytes(good[:cut])
            assert self.outcome(capsys, argv) == 1
        for start, end in fields_at:
            ckpt.write_bytes(good[:start] + b"\xff" * (end - start)
                             + good[end:])
            assert self.outcome(capsys, argv) == 1

    def test_train_config(self, tmp_path, capsys):
        conf = tmp_path / "train.cfg"
        good = ["horizon = 3", "graph_mix = star5:1.0", "lookahead = 2",
                "batch_size = 4", "replay_capacity = 8", "layer_dims = 1,2,1",
                "loads = 0.05", "checkpoint_interval = 1", "seed = 1",
                "base_lr = 0.01"]
        argv = ["train", "--config", str(conf), "--episodes", "1", "--out",
                str(tmp_path / "out")]
        outcomes = {}
        for case, lines in junk_variants(good):
            conf.write_text("".join(f"{line}\n" for line in lines))
            outcomes[case] = self.outcome(capsys, argv)
        # any prefix is a config; a batch larger than the buffer shrinks to
        # it, and a huge checkpoint interval, seed or finite lr is valid
        assert {case for case, rc in outcomes.items() if rc == 0} == \
            {f"truncate-{k}" for k in range(len(good))} | \
            {"huge-3", "huge-7", "huge-8", "huge-9"}
