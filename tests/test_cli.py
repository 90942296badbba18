import json

import numpy as np
import pytest

from dacs.cli import COMPARE_MAX_ROWS, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from dacs.config import RunConfig, parse_run_config
from dacs.core import FeatureMatrix, Rng
from dacs.formats import ParseError, write_embeddings, write_embeddings_csv


def unit(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


@pytest.fixture
def pool_file(tmp_path):
    gen = Rng(0, "cli").generator()
    centers = unit(gen.normal(size=(3, 16)))
    pts = np.concatenate(
        [centers[i] + 0.3 * gen.normal(size=(34, 16)) for i in range(3)]
    )[:100]
    x = FeatureMatrix(unit(pts), unit_norm=True)
    path = tmp_path / "pool.bin"
    write_embeddings(path, x)
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("0\n34\n68\n")
    return path, labeled


class TestParseRunConfig:
    def test_defaults_when_file_is_empty(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# nothing but comments\n\n")
        assert parse_run_config(path) == RunConfig()

    def test_overrides_and_lists(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "classes = 3\n"
            "per_class = 40  # small pool\n"
            "strategies = dacs, random\n"
            "seeds = 4, 5\n"
            "lr_decay = off\n"
            "hidden = 8\n"
        )
        config = parse_run_config(path)
        assert config.classes == 3
        assert config.per_class == 40
        assert config.strategies == ["dacs", "random"]
        assert config.seeds == [4, 5]
        assert config.lr_decay is False
        assert config.hidden == 8
        assert config.dim == 32  # untouched default

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes = 3\nbogus = 1\n")
        with pytest.raises(ParseError, match="line 2: unknown key 'bogus'"):
            parse_run_config(path)

    def test_duplicate_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes = 3\nclasses = 4\n")
        with pytest.raises(ParseError, match="line 2: duplicate key"):
            parse_run_config(path)

    def test_bad_value_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ParseError, match="line 1: bad value for 'epochs'"):
            parse_run_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs\n")
        with pytest.raises(ParseError, match="expected 'key = value'"):
            parse_run_config(path)

    @pytest.mark.parametrize(
        "line",
        [
            "dataset = parquet",
            "strategies = oracle",
            "window = sliding",
            "reference = all",
            "test_fraction = 1.5",
            "cycles = -1",
        ],
    )
    def test_semantic_validation(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ParseError):
            parse_run_config(path)

    def test_env_seed_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 0, 1, 2\n")
        monkeypatch.setenv("DACS_SEED", "9")
        assert parse_run_config(path).seeds == [9]
        monkeypatch.setenv("DACS_SEED", "many")
        with pytest.raises(ParseError, match="DACS_SEED"):
            parse_run_config(path)


class TestSelectCommand:
    def run_select(self, pool_file, tmp_path, *extra):
        pool, labeled = pool_file
        out = tmp_path / "picks.json"
        code = main(
            [
                "select",
                "--embeddings", str(pool),
                "--labeled", str(labeled),
                "--budget", "5",
                "--out", str(out),
                "--buckets", "4",
                "--breaks", "2",
                *extra,
            ]
        )
        return code, out

    def test_dacs_end_to_end(self, pool_file, tmp_path, capsys):
        code, out = self.run_select(pool_file, tmp_path, "--seed", "1")
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        picks = payload["selected"]
        assert len(picks) == 5 and len(set(picks)) == 5
        assert set(picks).isdisjoint({0, 34, 68})
        assert all(0 <= i < 100 for i in picks)
        assert sum(c["budget"] for c in payload["per_cluster"]) == 5
        assert set(payload["config_echo"]) == {
            "strategy", "budget", "n_buckets", "n_breaks", "temperature",
            "expand_factor", "window", "reference", "seed",
        }
        assert payload["config_echo"]["strategy"] == "dacs"
        assert payload["config_echo"]["seed"] == 1
        assert "select_seconds" in payload["timings"]
        # flagged unit-norm input is taken as-is
        assert "normalizing" not in capsys.readouterr().err

    def test_deterministic_given_seed(self, pool_file, tmp_path):
        _, a = self.run_select(pool_file, tmp_path, "--seed", "3")
        first = json.loads(a.read_text())
        _, b = self.run_select(pool_file, tmp_path, "--seed", "3")
        second = json.loads(b.read_text())
        assert first["selected"] == second["selected"]

    def test_env_seed_applies(self, pool_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DACS_SEED", "3")
        _, out = self.run_select(pool_file, tmp_path)
        from_env = json.loads(out.read_text())
        monkeypatch.delenv("DACS_SEED")
        _, out2 = self.run_select(pool_file, tmp_path, "--seed", "3")
        assert from_env["selected"] == json.loads(out2.read_text())["selected"]
        assert from_env["config_echo"]["seed"] == 3

    def test_csv_input_is_normalized_with_a_note(self, tmp_path, capsys):
        gen = Rng(2, "cli").generator()
        x = FeatureMatrix(gen.normal(size=(40, 8)))
        path = tmp_path / "pool.csv"
        write_embeddings_csv(path, x)
        out = tmp_path / "picks.json"
        code = main(
            [
                "select",
                "--embeddings", str(path),
                "--format", "csv",
                "--budget", "3",
                "--strategy", "coreset",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "normalizing" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["selected"]) == 3

    def test_budget_over_pool_is_a_usage_error(self, pool_file, tmp_path, capsys):
        pool, labeled = pool_file
        out = tmp_path / "picks.json"
        code = main(
            [
                "select",
                "--embeddings", str(pool),
                "--labeled", str(labeled),
                "--budget", "98",
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert "exceeds unlabeled pool" in capsys.readouterr().err
        assert not out.exists()

    def test_combined_requires_scores(self, pool_file, tmp_path, capsys):
        code, _ = self.run_select(pool_file, tmp_path, "--strategy", "combined")
        assert code == EXIT_USAGE
        assert "requires --scores" in capsys.readouterr().err

    def test_combined_scores_must_align(self, pool_file, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(["0.5"] * 7) + "\n")
        code, _ = self.run_select(
            pool_file, tmp_path, "--strategy", "combined", "--scores", str(scores)
        )
        assert code == EXIT_USAGE
        assert "7 entries" in capsys.readouterr().err

    def test_combined_with_scores(self, pool_file, tmp_path):
        scores = tmp_path / "scores.txt"
        gen = Rng(4, "cli").generator()
        scores.write_text("\n".join(repr(float(v)) for v in gen.uniform(size=100)) + "\n")
        code, out = self.run_select(
            pool_file, tmp_path, "--strategy", "combined", "--scores", str(scores)
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["selected"]) == 5
        assert payload["diagnostics"]["expanded_budget"] == 10

    def test_entropy_top_b_ranks_by_scores(self, pool_file, tmp_path):
        # Ten-way tie at the top score 9 (indices 9, 19, ..., 99); labeled 34
        # carries the largest score and must be skipped.
        values = [float(i % 10) for i in range(100)]
        values[34] = 100.0
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(repr(v) for v in values) + "\n")
        code, out = self.run_select(
            pool_file, tmp_path, "--strategy", "entropy-top-b", "--scores", str(scores)
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["selected"] == [9, 19, 29, 39, 49]
        assert payload["config_echo"]["strategy"] == "entropy-top-b"

    def test_entropy_top_b_requires_scores(self, pool_file, tmp_path, capsys):
        code, out = self.run_select(pool_file, tmp_path, "--strategy", "entropy-top-b")
        assert code == EXIT_USAGE
        assert "requires --scores" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "select",
                "--embeddings", str(tmp_path / "absent.bin"),
                "--budget", "5",
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_strategy_is_rejected_by_the_parser(self, pool_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_select(pool_file, tmp_path, "--strategy", "psychic")
        assert exc.value.code == 2


class TestDensityCommand:
    def test_exact_mode_writes_a_profile(self, pool_file, tmp_path):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        code = main(
            [
                "density",
                "--embeddings", str(pool),
                "--mode", "exact",
                "--knn", "5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,density,convention"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) > 0
        assert first[2] == "distance-based"

    def test_compare_refuses_pools_over_the_row_cap(self, tmp_path, capsys):
        gen = Rng(4, "cap").generator()
        rows = unit(gen.normal(size=(COMPARE_MAX_ROWS + 1, 2)))
        pool = tmp_path / "big.bin"
        write_embeddings(pool, FeatureMatrix(rows, unit_norm=True))
        out = tmp_path / "density.csv"
        code = main(
            [
                "density",
                "--embeddings", str(pool),
                "--mode", "lsh",
                "--compare",
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert f"at most {COMPARE_MAX_ROWS} rows" in capsys.readouterr().err
        assert not out.exists()

    def test_lsh_mode_with_rank_agreement(self, pool_file, tmp_path, capsys):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        code = main(
            [
                "density",
                "--embeddings", str(pool),
                "--mode", "lsh",
                "--buckets", "4",
                "--seed", "0",
                "--compare",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "spearman" in err
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 101
        assert lines[1].split(",")[2] == "similarity-based"


def write_sim_config(path, **overrides):
    base = {
        "classes": 3,
        "per_class": 30,
        "dim": 8,
        "cycles": 1,
        "strategies": "random, dacs",
        "seeds": "0",
        "buckets": 4,
        "breaks": 2,
        "reduced_dim": 4,
        "epochs": 4,
        "batch_size": 32,
        "init_fraction": 0.1,
        "budget_fraction": 0.05,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))


class TestSimulateCommand:
    def test_grid_runs_and_writes_reports(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg)
        out_dir = tmp_path / "results"
        code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == EXIT_OK
        report = json.loads((out_dir / "dacs-seed0.json").read_text())
        assert report["strategy"] == "dacs"
        assert len(report["records"]) == 2
        assert report["error"] is None
        assert (out_dir / "random-seed0.json").exists()
        csv_lines = (out_dir / "aggregate.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "cycle,frac,acc,info,div,strategy,seed"
        assert len(csv_lines) == 1 + 2 * 2  # 2 strategies x 2 records

    def test_reports_are_deterministic_modulo_timings(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg)
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            report = json.loads((out_dir / "dacs-seed0.json").read_text())
            report.pop("timings")
            outputs.append(report)
        assert outputs[0] == outputs[1]

    def test_env_seed_renames_the_grid(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, seeds="0, 1")
        monkeypatch.setenv("DACS_SEED", "5")
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["aggregate.csv", "dacs-seed5.json", "random-seed5.json"]

    def test_divergence_keeps_partial_results_and_exits_3(self, tmp_path, capsys, monkeypatch):
        import dacs.cli as cli_module
        from dacs.core import DivergenceError

        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, strategies="random, dacs")
        real_run_al = cli_module.run_al

        def flaky_run_al(dataset, strategy, *args, **kwargs):
            if strategy == "dacs":
                raise DivergenceError(
                    "non-finite loss at epoch 3 (lr=1e+307)", epoch=3, learning_rate=1e307
                )
            return real_run_al(dataset, strategy, *args, **kwargs)

        monkeypatch.setattr(cli_module, "run_al", flaky_run_al)
        out_dir = tmp_path / "results"
        code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == EXIT_DIVERGED
        assert "diverged: dacs seed 0" in capsys.readouterr().err
        stub = json.loads((out_dir / "dacs-seed0.json").read_text())
        assert "non-finite loss" in stub["error"]
        assert stub["records"] == []
        # the surviving strategy still reports in full
        survivor = json.loads((out_dir / "random-seed0.json").read_text())
        assert len(survivor["records"]) == 2
        assert (out_dir / "aggregate.csv").exists()

    def test_bad_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err
