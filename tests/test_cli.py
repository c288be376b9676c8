import hashlib
from pathlib import Path

import numpy as np
import pytest

import linksched.cli as cli
from linksched.cli import (ConfigError, ExperimentConfig, cmd_eval,
                           cmd_generate, cmd_report, cmd_toy, main,
                           parse_kv_text, train_config_from_kv)
from linksched.gcn import identity_params, load_checkpoint, save_checkpoint
from linksched.solvers import lgs


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
            "episodes = 10\nlookahead = 3\nphi = linear\n"
            "graph_mix = star10:0.5,er:0.5\nloads = 0.02,0.04\nseed = 5\n")
        config = train_config_from_kv(kv)
        assert config.episodes == 10
        assert config.lookahead == 3
        assert config.phi == "linear"
        assert config.graph_mix == (("star10", 0.5), ("er", 0.5))
        assert config.loads == (0.02, 0.04)

    def test_train_config_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            train_config_from_kv({"episodess": "10"})

    def test_train_config_bad_value(self):
        with pytest.raises(ConfigError, match="episodes"):
            train_config_from_kv({"episodes": "ten"})

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
        calls = {"load_trace": 0, "load_checkpoint": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        counted("load_trace")
        counted("load_checkpoint")
        cmd_eval(config, instances, None)
        assert calls == {"load_trace": 4, "load_checkpoint": 1}

    def test_policy_writing_rates_fails(self, small_instances, monkeypatch,
                                        capsys):
        _, instances = small_instances

        def vandal(graph, q, r):
            r[:] = 0
            return lgs(graph, q.astype(float))

        monkeypatch.setattr(cli, "_make_policy", lambda name, config: vandal)
        rc = main(["eval", "--instances", str(instances), "--policies",
                   "baseline,greedy"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "read-only" in err

    def test_missing_instances(self, tmp_path):
        config = ExperimentConfig("star5", (0.07,))
        with pytest.raises(ConfigError):
            cmd_eval(config, tmp_path / "nope", None)


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

    def test_train_smoke_log_rows(self, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_text("episodes = 2\nhorizon = 6\nlookahead = 2\n"
                        "graph_mix = star5:1.0\nbatch_size = 4\nseed = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "training_log.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 episodes

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

    def test_exact_refused_on_oversized_instance(self, tmp_path, capsys,
                                                 monkeypatch):
        # a manifest hand-edited to a small config lets validation pass;
        # the per-instance size check must still refuse the exact solver
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
        assert "exact policy refused" in capsys.readouterr().err
        assert runs == []

    def test_bad_config_file_diagnostics(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("episodes == 3\n")
        rc = main(["train", "--config", str(conf), "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 1" in err or "bad value" in err
