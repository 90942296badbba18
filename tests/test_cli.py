import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from embedding_writers import write_embeddings, write_embeddings_csv
from scipy.stats import spearmanr

import dacs.cli
import dacs.core
import dacs.simulate
from dacs.cli import (
    COMPARE_MAX_ROWS,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    _seed_major_groups,
    build_parser,
    main,
    run_config_grid,
    spearman,
)
from dacs.config import (
    RunConfig,
    acquisition_config,
    dataset_from_config,
    parse_run_config,
    run_settings,
)
from dacs.core import AcquisitionConfig, DegenerateInputError, DivergenceError, FeatureMatrix, Rng
from dacs.density import exact_knn_density, lsh_assign, lsh_density
from dacs.formats import ParseError, read_embeddings
from dacs.model import ModelConfig
from dacs.selection import STRATEGIES, STRATEGY_READS
from dacs.simulate import GENERATOR_NEAR_DUPLICATE, run_al

# A value for each `dacs select` flag that some strategy reads, as the command
# line gives it; a strategy that does not read the flag refuses it before any
# file is opened, so the scores file need not exist.
SETTING_VALUES = {
    "buckets": "8", "breaks": "2", "temperature": "20", "seed": "1", "scores": "s.txt",
}


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
            "temperature = 0.5\n"
        )
        config = parse_run_config(path)
        assert config.classes == 3
        assert config.per_class == 40
        assert config.strategies == ["dacs", "random"]
        assert config.seeds == [4, 5]
        assert config.temperature == 0.5
        assert config.dim == 32  # untouched default

    @pytest.mark.parametrize("key", ["bogus", "window"])
    def test_unknown_key_names_the_line(self, tmp_path, key):
        # window is gone: density always sums over a chunk and the one before it
        path = tmp_path / "run.cfg"
        path.write_text(f"classes = 3\n{key} = 1\n")
        with pytest.raises(ParseError, match=f"line 2: unknown key '{key}'"):
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
        "line, message",
        [
            ("strategies = random, dacs, random", "line 2: strategies lists 'random' twice"),
            ("seeds = 1, 0, 01", "line 2: seeds lists 1 twice"),
        ],
    )
    def test_a_strategy_or_seed_listed_twice_is_refused(self, tmp_path, capsys, line, message):
        # each copy would write the same report file, and aggregate.csv both
        path = tmp_path / "run.cfg"
        path.write_text(f"classes = 3\n{line}\n")
        with pytest.raises(ParseError, match=message):
            parse_run_config(path)
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "dataset = parquet",
            "strategies = oracle",
            "temperature = 0",
            "test_fraction = 1.5",
            "cycles = -1",
        ],
    )
    def test_semantic_validation(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ParseError):
            parse_run_config(path)

    def test_defaults_are_the_engines(self, pool_file):
        acq, model = AcquisitionConfig(budget=5), ModelConfig(n_classes=5)
        settings = run_settings(RunConfig(), 6000)
        assert settings["acq_config"] == replace(acq, budget=settings["acq_config"].budget)
        assert settings["model_config"] == model
        pool, _ = pool_file
        args = build_parser().parse_args(
            ["select", "--embeddings", str(pool), "--budget", "5", "--out", "o.json"]
        )
        assert acquisition_config(args, args.budget) == acq
        args = build_parser().parse_args(
            ["density", "--embeddings", str(pool), "--mode", "lsh", "--out", "o.csv"]
        )
        assert args.buckets == acq.n_buckets

    def test_env_seed_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 0, 1, 2\n")
        monkeypatch.setenv("DACS_SEED", "9")
        assert parse_run_config(path).seeds == [9]
        monkeypatch.setenv("DACS_SEED", "many")
        with pytest.raises(ParseError, match="DACS_SEED"):
            parse_run_config(path)


# sha256 of the `dacs select` JSON (sorted, timings removed) of each strategy
# in TestSelectCommand.test_a_large_selection_is_pinned, as first written but
# with the since-deleted window key taken out of config_echo.
LARGE_SELECTION_SHA256 = {
    "dacs": "9a8fe3a8ba9acec842348543eae7caef3f44cd2f7879c2e2136f96d0662fc79b",
    "coreset": "9fd6301ea741f677f3492cb3efb2d8edd0abb67a3054aa65123ea313a6ac36d5",
}


class TestSelectCommand:
    def run_select(self, pool_file, tmp_path, *extra, engine=("--buckets", "4", "--breaks", "2")):
        pool, labeled = pool_file
        out = tmp_path / "picks.json"
        code = main(
            [
                "select",
                "--embeddings", str(pool),
                "--labeled", str(labeled),
                "--budget", "5",
                "--out", str(out),
                *engine,
                *extra,
            ]
        )
        return code, out

    def test_dacs_end_to_end(self, pool_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dacs.cli, "_worker_count", lambda: 5)
        code, out = self.run_select(pool_file, tmp_path, "--seed", "1")
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        picks = payload["selected"]
        assert len(picks) == 5 and len(set(picks)) == 5
        assert set(picks).isdisjoint({0, 34, 68})
        assert all(0 <= i < 100 for i in picks)
        assert sum(c["budget"] for c in payload["per_cluster"]) == 5
        assert set(payload["config_echo"]) == {
            "strategy", "budget", "n_buckets", "n_breaks", "temperature", "seed",
        }
        assert payload["config_echo"]["strategy"] == "dacs"
        assert payload["config_echo"]["seed"] == 1
        assert "select_seconds" in payload["timings"]
        assert payload["timings"]["workers"] == 5
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

    @pytest.mark.parametrize("breaks", [1025, 1100])
    def test_more_breaks_than_density_bins_are_clamped(self, tmp_path, breaks):
        # 25,000 rows have as many distinct densities, which Jenks bins to
        # 1,024: the one rule that clamps --breaks to a tiny pool's distinct
        # densities clamps it to the bins
        gen = Rng(3, "bins").generator()
        pool, out = tmp_path / "pool.bin", tmp_path / "picks.json"
        write_embeddings(pool, FeatureMatrix(unit(gen.normal(size=(25_000, 16))), unit_norm=True))
        match = f"{breaks} classes requested but only 1024 quantile bins of 25000 distinct values; using 1024"
        with pytest.warns(UserWarning, match=match):
            code = main(
                ["select", "--embeddings", str(pool), "--budget", "5", "--strategy", "dacs",
                 "--breaks", str(breaks), "--out", str(out)]
            )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["h_used"] == 1024
        assert len(payload["selected"]) == 5

    def test_combined_requires_scores(self, pool_file, tmp_path, capsys):
        code, _ = self.run_select(pool_file, tmp_path, "--strategy", "combined")
        assert code == EXIT_USAGE
        assert "requires --scores" in capsys.readouterr().err

    def test_combined_scores_must_align(self, pool_file, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("\n".join(["0.5"] * 7) + "\n")
        code, out = self.run_select(
            pool_file, tmp_path, "--strategy", "combined", "--scores", str(scores)
        )
        assert code == EXIT_USAGE
        assert "7 uncertainty scores for a pool of 100 samples" in capsys.readouterr().err
        assert not out.exists()

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
            pool_file, tmp_path, "--strategy", "entropy-top-b", "--scores", str(scores), engine=()
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["selected"] == [9, 19, 29, 39, 49]
        assert payload["config_echo"]["strategy"] == "entropy-top-b"

    @pytest.mark.parametrize("strategy", ["entropy-top-b", "combined"])
    def test_non_finite_scores_are_refused(self, tmp_path, capsys, strategy):
        pool = tmp_path / "pool.csv"
        pool.write_text("f0,f1,f2\n1,0,0\n0,1,0\n0,0,1\n1,1,0\n0,1,1\n1,0,1\n")
        scores = tmp_path / "s.txt"
        scores.write_text("0.1\nnan\n0.9\n0.8\n0.2\n0.3\n")
        out = tmp_path / "picks.json"
        code = main(
            [
                "select", "--embeddings", str(pool), "--format", "csv", "--budget", "2",
                "--strategy", strategy, "--scores", str(scores), "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert "line 2: 'nan' is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_entropy_top_b_requires_scores(self, pool_file, tmp_path, capsys):
        code, out = self.run_select(pool_file, tmp_path, "--strategy", "entropy-top-b", engine=())
        assert code == EXIT_USAGE
        assert "requires --scores" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["coreset", "dacs", "random"])
    def test_scores_are_refused_where_unused(self, pool_file, tmp_path, capsys, strategy):
        code, out = self.run_select(
            pool_file, tmp_path, "--strategy", strategy, "--scores", str(tmp_path / "absent.txt"),
            engine=() if strategy != "dacs" else ("--buckets", "4"),
        )
        assert code == EXIT_USAGE
        assert f"--scores is read by --strategy combined or entropy-top-b only; {strategy}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy, flags, readers",
        [
            ("coreset", ["--breaks", "7", "--temperature", "9"], "dacs or combined"),
            ("random", ["--buckets", "6"], "dacs or sparse-only or dense-only or combined"),
            ("sparse-only", ["--breaks", "7"], "dacs or combined"),
            ("dense-only", ["--temperature", "0.25"], "dacs or combined"),  # the default, given
            ("entropy-top-b", ["--buckets", "4"], "dacs or sparse-only or dense-only or combined"),
            ("coreset", ["--seed", "1"], "random or dacs or sparse-only or dense-only or combined"),
            ("entropy-top-b", ["--seed", "1", "--scores", "s.txt"],
             "random or dacs or sparse-only or dense-only or combined"),
        ],
    )
    def test_engine_flags_the_strategy_ignores_are_refused(
        self, pool_file, tmp_path, capsys, strategy, flags, readers
    ):
        code, out = self.run_select(pool_file, tmp_path, "--strategy", strategy, *flags, engine=())
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {flags[0]} is read by --strategy {readers} only; {strategy} does not" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy, dest",
        [(s, d) for s in STRATEGIES for d in SETTING_VALUES if d not in STRATEGY_READS[s]],
    )
    def test_every_setting_the_registry_leaves_out_is_refused(
        self, pool_file, tmp_path, capsys, strategy, dest
    ):
        assert set(SETTING_VALUES) == {d for reads in STRATEGY_READS.values() for d in reads}
        code, out = self.run_select(
            pool_file, tmp_path, "--strategy", strategy, f"--{dest}", SETTING_VALUES[dest], engine=()
        )
        assert code == EXIT_USAGE
        assert f"error: --{dest} is read by --strategy " in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_stays_a_default_where_unread(self, pool_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DACS_SEED", "7")
        code, out = self.run_select(pool_file, tmp_path, "--strategy", "coreset", engine=())
        assert code == EXIT_OK
        assert json.loads(out.read_text())["config_echo"]["seed"] == 7

    @pytest.mark.parametrize(
        "strategy, flags",
        [
            ("dacs", ["--buckets", "4", "--breaks", "4", "--temperature", "0.5"]),
            ("sparse-only", ["--buckets", "6"]),
            ("dense-only", ["--buckets", "4"]),
            ("coreset", []),
            ("random", ["--seed", "2"]),
            ("sparse-only", ["--buckets", "4", "--seed", "1"]),
        ],
    )
    def test_engine_flags_the_strategy_reads_are_accepted(
        self, pool_file, tmp_path, strategy, flags
    ):
        code, out = self.run_select(pool_file, tmp_path, "--strategy", strategy, *flags, engine=())
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["selected"]) == 5

    @pytest.mark.parametrize("flag", ["--expand-factor", "--reference", "--window"])
    def test_deleted_flags_are_unrecognised(self, pool_file, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            self.run_select(pool_file, tmp_path, flag, "1")
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("strategy, extra", [("dacs", ("--seed", "0")), ("coreset", ())])
    def test_a_large_selection_is_pinned(self, tmp_path, strategy, extra):
        # 4,950 candidates meet the 50 labeled rows in 13 tiles of 384 rows,
        # and every pick scores its candidates again; one ulp of drift in any
        # similarity moves the max_similarity trace, whose floats the JSON keeps
        gen = Rng(7, "golden-select").generator()
        pool, labeled, out = tmp_path / "pool.bin", tmp_path / "labeled.txt", tmp_path / "p.json"
        write_embeddings(pool, FeatureMatrix(unit(gen.normal(size=(5000, 16))), unit_norm=True))
        labeled.write_text("".join(f"{i}\n" for i in np.sort(gen.choice(5000, 50, replace=False))))
        argv = ["select", "--embeddings", str(pool), "--labeled", str(labeled), "--budget", "100"]
        assert main([*argv, "--strategy", strategy, "--out", str(out), *extra]) == EXIT_OK
        payload = json.loads(out.read_text())
        del payload["timings"]
        assert len(payload["diagnostics"]["max_similarity"]) == 100
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == LARGE_SELECTION_SHA256[strategy]

    def test_picks_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS reads its thread count when it loads, so each select runs in
        # a fresh interpreter. 19,800 candidates in 20 buckets make 990-row
        # chunks, too large to stack, which the density pass multiplies in
        # row tiles under either BLAS.
        gen = Rng(11, "blas-picks").generator()
        pool, labeled = tmp_path / "pool.bin", tmp_path / "labeled.txt"
        write_embeddings(pool, FeatureMatrix(unit(gen.normal(size=(20_000, 16))), unit_norm=True))
        labeled.write_text("".join(f"{i}\n" for i in range(0, 20_000, 100)))
        src = str(Path(dacs.cli.__file__).parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"picks-{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            argv = ["select", "--embeddings", str(pool), "--labeled", str(labeled), "--budget", "200",
                    "--strategy", "dacs", "--buckets", "20", "--seed", "0", "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "dacs.cli", *argv], env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            reports.append(json.loads(out.read_text()))
        one, two = reports
        assert len(one["selected"]) == 200
        assert one["selected"] == two["selected"]
        budgets = [[c["budget"] for c in r["diagnostics"]["clusters"]] for r in reports]
        assert budgets[0] == budgets[1]


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

    def test_compare_is_refused_in_exact_mode(self, pool_file, tmp_path, capsys):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        code = main(
            [
                "density",
                "--embeddings", str(pool),
                "--mode", "exact",
                "--knn", "2",
                "--compare",
                "--out", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert "--compare needs --mode lsh" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            ("exact", ["--buckets", "3"], "--buckets needs --mode lsh"),
            ("exact", ["--buckets", "100"], "--buckets needs --mode lsh"),
            ("exact", ["--seed", "1"], "--seed needs --mode lsh"),
            ("lsh", ["--metric", "cosine-distance"], "--metric needs --mode exact"),
            ("lsh", ["--metric", "euclidean"], "--metric needs --mode exact"),
            ("lsh", ["--knn", "5"], "--knn needs --mode exact or --compare"),
            ("lsh", ["--knn", "20"], "--knn needs --mode exact or --compare"),
        ],
    )
    def test_flags_the_mode_ignores_are_refused(
        self, pool_file, tmp_path, capsys, mode, flags, message
    ):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        argv = ["density", "--embeddings", str(pool), "--mode", mode, "--out", str(out)]
        assert main(argv + flags) == EXIT_USAGE
        assert f"error: {message}: --mode {mode} does not use it" in capsys.readouterr().err
        assert not out.exists()

    def test_select_and_density_state_one_bucket_rule(self, pool_file, tmp_path, capsys):
        pool, _ = pool_file
        common = ["--embeddings", str(pool), "--buckets", "3", "--out", str(tmp_path / "o")]
        assert main(["select", "--budget", "2", *common]) == EXIT_USAGE
        from_select = capsys.readouterr().err
        assert main(["density", "--mode", "lsh", *common]) == EXIT_USAGE
        from_density = capsys.readouterr().err
        message = "error: buckets must be a positive even integer, got 3\n"
        assert from_select == from_density == message

    @staticmethod
    def compare_argv(pool, out):
        return ["density", "--embeddings", str(pool), "--mode", "lsh", "--buckets", "4",
                "--seed", "0", "--compare", "--knn", "5", "--out", str(out)]

    def test_lsh_mode_with_rank_agreement(self, pool_file, tmp_path, capsys):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        code = main(self.compare_argv(pool, out))
        assert code == EXIT_OK
        err = capsys.readouterr().err
        fast = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
        exact = exact_knn_density(read_embeddings(pool), 5, metric="cosine-distance")
        rho = spearmanr(fast, -exact.values).statistic
        assert f"spearman(fast density, negated exact 5-nn) = {rho:.4f}" in err
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 101
        assert lines[1].split(",")[2] == "similarity-based"

    def test_compare_needs_no_scipy(self, pool_file, tmp_path, capsys):
        # scipy is a test dependency only; None in sys.modules makes its import fail
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        assert main(self.compare_argv(pool, tmp_path / "in-process.csv")) == EXIT_OK
        want = capsys.readouterr().err
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from dacs.cli import main\n"
            f"sys.exit(main({self.compare_argv(pool, out)!r}))\n"
        )
        src = str(Path(dacs.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr.splitlines()[0] == want.splitlines()[0]  # the rank agreement
        assert out.read_bytes() == (tmp_path / "in-process.csv").read_bytes()

    @staticmethod
    def hashed_density_csv(pool, buckets, seed) -> bytes:
        """The CSV of lsh_assign then lsh_density over every row of the pool file."""
        x = read_embeddings(pool)
        profile = lsh_density(x, lsh_assign(x, buckets, Rng(seed)))
        lines = ["index,density,convention"]
        lines += [f"{i},{float(v)!r},similarity-based" for i, v in enumerate(profile.values)]
        return ("\n".join(lines) + "\n").encode()

    def run_lsh(self, pool, out, buckets):
        return main(
            [
                "density",
                "--embeddings", str(pool),
                "--mode", "lsh",
                "--buckets", str(buckets),
                "--seed", "3",
                "--out", str(out),
            ]
        )

    def test_lsh_mode_is_the_hashed_density_of_every_row(self, pool_file, tmp_path):
        pool, _ = pool_file
        out = tmp_path / "density.csv"
        assert self.run_lsh(pool, out, 6) == EXIT_OK
        assert out.read_bytes() == self.hashed_density_csv(pool, 6, 3)

    def test_lsh_mode_on_a_pool_smaller_than_the_buckets(self, tmp_path):
        gen = Rng(5, "tiny").generator()
        pool = tmp_path / "tiny.bin"
        write_embeddings(pool, FeatureMatrix(unit(gen.normal(size=(5, 3))), unit_norm=True))
        out = tmp_path / "density.csv"
        with pytest.warns(UserWarning, match="smaller than k=8 buckets"):
            assert self.run_lsh(pool, out, 8) == EXIT_OK
        with pytest.warns(UserWarning, match="smaller than k=8 buckets"):
            want = self.hashed_density_csv(pool, 8, 3)
        assert out.read_bytes() == want


# sha256 of each output of TestBinaryPool, recorded on one BLAS thread while
# read_embeddings still turned the float32 payload into a float64 pool:
# density CSVs as written, select JSON sorted with its timings removed.
BINARY_POOL_SHA256 = {
    "density-exact": "65ce9d313acfafd7005b06d36d78d591d7308ed509104c7263a3f2911a2153ab",
    "density-lsh": "7691b9f286da3cd4a5f9f7c5ea6d19f90dea36559f75266101e3833e8e5602e6",
    "select-coreset": "cbf82e494a3fa36a660792a14400aa2f70757e655b43cd4f23322764332733b7",
    "select-dacs": "d4f47edb785edc696cfe5807ac0af7493b16052a046816867a5a44a15bb0f3d7",
}


class TestBinaryPool:
    """A seeded binary pool not flagged unit-norm, so every command reads its
    float32 rows through normalize_rows or the exact k-NN oracle."""

    COMMANDS = {
        "density-exact": ["density", "--mode", "exact", "--knn", "5"],
        "density-lsh": ["density", "--mode", "lsh", "--buckets", "20", "--seed", "0"],
        "select-coreset": ["select", "--budget", "40", "--strategy", "coreset"],
        "select-dacs": ["select", "--budget", "40", "--strategy", "dacs", "--buckets", "20", "--seed", "0"],
    }

    def output_digest(self, tmp_path, name, writer, fmt, run=main):
        """sha256 of the output of command `name` on the pool written by `writer` in `fmt`."""
        gen = Rng(9, "binary-pool").generator()
        # off-centre rows of norm about 13, rounded to float32 as the file stores them
        rows = (3.0 * gen.normal(size=(3000, 16)) + 1.5).astype(np.float32).astype(np.float64)
        pool, labeled, out = tmp_path / f"pool.{fmt}", tmp_path / "labeled.txt", tmp_path / "out"
        writer(pool, FeatureMatrix(rows))
        argv = [*self.COMMANDS[name], "--embeddings", str(pool), "--format", fmt, "--out", str(out)]
        if argv[0] == "select":
            labeled.write_text("".join(f"{i}\n" for i in range(0, 3000, 100)))
            argv += ["--labeled", str(labeled)]
        assert run(argv) == EXIT_OK
        if argv[0] == "density":
            return hashlib.sha256(out.read_bytes()).hexdigest()
        payload = json.loads(out.read_text())
        del payload["timings"]
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    @staticmethod
    def on_one_blas_thread(argv) -> int:
        # A threaded BLAS rounds some density products' last bits otherwise;
        # OpenBLAS reads its thread count when it loads, hence a fresh interpreter.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(dacs.cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dacs.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.returncode

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_outputs_are_pinned(self, tmp_path, name):
        got = self.output_digest(tmp_path, name, write_embeddings, "binary", run=self.on_one_blas_thread)
        assert got == BINARY_POOL_SHA256[name]

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_a_csv_of_the_same_values_gives_the_same_output(self, tmp_path, name):
        csv = self.output_digest(tmp_path, name, write_embeddings_csv, "csv")
        assert csv == self.output_digest(tmp_path, name, write_embeddings, "binary")


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


def check_divergence_keeps_partial_results(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    write_sim_config(cfg, strategies="random, dacs")
    real_check_run = dacs.simulate.check_run

    def flaky_check_run(n_rows, n_features, strategy, *args):
        if strategy == "dacs":
            raise DivergenceError(
                "non-finite loss at epoch 3 (lr=1e+307)", epoch=3, learning_rate=1e307
            )
        return real_check_run(n_rows, n_features, strategy, *args)

    monkeypatch.setattr(dacs.simulate, "check_run", flaky_check_run)
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
        assert "error" not in report  # only a diverged run's stub carries one
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
        check_divergence_keeps_partial_results(tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mystery", 1),
            # settings that no longer exist
            ("hidden", 24),
            ("stop_epoch", 2),
            ("lambda_aux", 0.5),
            ("lr_decay", "off"),
            ("expand_factor", 3),
            ("reference", "cluster-local"),
        ],
    )
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, **{key: value})
        out_dir = tmp_path / "r"
        code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == EXIT_USAGE
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # the key the user wrote, not the engine's field name
            ("buckets", 3, "bad engine setting: buckets must be a positive even integer"),
            ("breaks", 0, "bad engine setting: breaks must be at least 1"),
            ("temperature", -1, "temperature must be positive"),
            ("epochs", 0, "epochs must be positive"),
            # an infinite rate would diverge every run at its first epoch
            ("learning_rate", "inf", "bad engine setting: learning_rate must be positive and finite"),
            # refused by run_al, init_model or the generator on the data
            ("cycles", 60, "initial labels plus per-cycle budgets exceed the training pool"),
            ("reduced_dim", 16, "reduced_dim 16 must be smaller than the feature dimension 8"),
            ("test_fraction", 0.99, "dataset too small for the requested test fraction"),
            ("spread", -1, "spread and separation must be non-negative"),
            # a non-finite value would reach the data as a non-finite feature
            ("spread", "nan", "bad engine setting: spread and separation must be finite"),
            ("separation", "inf", "bad engine setting: spread and separation must be finite"),
            ("noise_sigma", "inf", "bad engine setting: noise_sigma must be finite"),
            ("classes", 1, "bad engine setting: need at least 2 classes"),
            ("per_class", 0, "bad engine setting: per_class and dim must be positive"),
            ("replication", 0, "bad engine setting: replication must be at least 1"),
            ("noise_sigma", -1, "bad engine setting: noise_sigma must be non-negative"),
        ],
    )
    def test_engine_rejects_are_refused_before_any_output(
        self, tmp_path, capsys, key, value, message
    ):
        cfg = tmp_path / "run.cfg"
        overrides = {key: value}
        if key in ("replication", "noise_sigma"):  # read by the near-duplicate generator only
            overrides["dataset"] = GENERATOR_NEAR_DUPLICATE
        write_sim_config(cfg, **overrides)
        with pytest.raises(ParseError, match=message):
            parse_run_config(cfg)
        out_dir = tmp_path / "results"
        code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


def grid_outputs(out_dir):
    """aggregate.csv bytes, and every report as sorted JSON without its timings."""
    reports = {}
    for path in sorted(out_dir.glob("*-seed*.json")):
        report = json.loads(path.read_text())
        report.pop("timings", None)
        reports[path.name] = json.dumps(report, sort_keys=True)
    return (out_dir / "aggregate.csv").read_bytes(), reports


def grid_digest(outputs) -> str:
    """sha256 of grid_outputs: aggregate.csv, then each report in file-name order."""
    aggregate, reports = outputs
    h = hashlib.sha256(aggregate)
    for name in sorted(reports):
        h.update(name.encode() + reports[name].encode())
    return h.hexdigest()


# grid_digest of the parting grid below, as written when each run trained
# alone, one after another (with the seven since-deleted model and acquisition
# keys, window the last, stripped from each report's config, and its
# since-deleted error key).
PARTING_GRID_SHA256 = "64b5f334d7d553101890de17bd070cf678142655aced56bc7c22714ace4c9aff"


def force_workers(monkeypatch, workers):
    """Run the next grids on this many processes (no more than they have runs)."""
    monkeypatch.setattr(dacs.cli, "_worker_count", lambda: workers)


class TestGridWorkers:
    """run_config_grid on forked worker processes shows what it shows on one."""

    def test_same_outputs_on_one_two_and_three_workers(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, seeds="0, 1")  # 4 runs
        outputs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            out_dir = tmp_path / f"workers{workers}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            outputs.append(grid_outputs(out_dir))
        assert len(outputs[0][1]) == 4
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_jobs_are_dealt_seed_major_into_contiguous_groups(self):
        root = Path(__file__).resolve().parents[1]
        config = parse_run_config(root / "configs" / "near_duplicate.cfg")
        jobs = [(strategy, seed) for strategy in config.strategies for seed in config.seeds]
        groups = [[jobs[j] for j in group] for group in _seed_major_groups(jobs, 2)]
        strategies = ["random", "coreset", "dacs", "entropy-top-b"]
        assert groups == [
            [(s, 0) for s in strategies] + [("random", 1), ("coreset", 1)],
            [("dacs", 1), ("entropy-top-b", 1)] + [(s, 2) for s in strategies],
        ]
        assert _seed_major_groups(jobs, 1) == [[j for s in (0, 1, 2) for j in range(s, 12, 3)]]

    def test_one_seed_on_two_workers(self, tmp_path, monkeypatch):
        # 9 runs on 2 workers: seed 1's runs land on both, and each computes
        # their cycle 0; on 3 workers each seed has a worker of its own
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, strategies="random, dacs, coreset", seeds="0, 1, 2")
        outputs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            out_dir = tmp_path / f"workers{workers}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            outputs.append(grid_outputs(out_dir))
        assert len(outputs[0][1]) == 9
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_a_cycle_zero_divergence_reaches_every_run_of_its_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        # seed 0's models train at a huge rate, so its shared cycle 0
        # diverges; on 3 workers seed 0's two runs sit on two workers
        real_init = dacs.simulate.init_model

        def init_model(config, d, rng):
            if rng.seed == 0:
                config = replace(config, learning_rate=1e307)
            return real_init(config, d, rng)

        monkeypatch.setattr(dacs.simulate, "init_model", init_model)
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, seeds="0, 1", init_fraction=0.3)
        outputs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            out_dir = tmp_path / f"workers{workers}"
            with np.errstate(all="ignore"):
                code = main(["simulate", "--config", str(cfg), "--out", str(out_dir)])
            assert code == EXIT_DIVERGED
            err = capsys.readouterr().err
            assert "diverged: random seed 0" in err and "diverged: dacs seed 0" in err
            assert "seed 1:" not in err
            outputs.append(grid_outputs(out_dir))
        reports = {name: json.loads(report) for name, report in outputs[0][1].items()}
        for strategy in ("random", "dacs"):
            assert reports[f"{strategy}-seed0.json"]["records"] == []
            assert "non-finite loss" in reports[f"{strategy}-seed0.json"]["error"]
            assert len(reports[f"{strategy}-seed1.json"]["records"]) == 2
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_runs_whose_labeled_counts_part_ways(self, tmp_path, monkeypatch):
        # dense-only seed 1 clamps its cycle-2 budget to its densest class (6
        # rows, not 7), so its last model trains apart from the others' stack
        cfg = tmp_path / "run.cfg"
        write_sim_config(
            cfg, strategies="random, sparse-only, dense-only", seeds="0, 1", breaks=6, cycles=3,
            budget_fraction=0.1,
        )
        outputs = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            out_dir = tmp_path / f"workers{workers}"
            with pytest.warns(UserWarning, match="budget 7 exceeds densest class size 6"):
                assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
            outputs.append(grid_outputs(out_dir))
        final = {
            name: json.loads(report)["records"][-1]["labeled_fraction"]
            for name, report in outputs[0][1].items()
        }
        assert final.pop("dense-only-seed1.json") < min(final.values())
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert grid_digest(outputs[0]) == PARTING_GRID_SHA256

    def test_divergence_on_two_workers(self, tmp_path, capsys, monkeypatch):
        force_workers(monkeypatch, 2)
        check_divergence_keeps_partial_results(tmp_path, capsys, monkeypatch)

    def test_a_worker_runs_its_kernels_on_one_thread(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(dacs.core.os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(dacs.core, "_CGROUP_CPU_MAX", str(tmp_path / "absent"))
        assert dacs.core._worker_count() == 4

        def probe_check_run(*args):
            raise DivergenceError(
                f"pid {os.getpid()} workers {dacs.core._worker_count()}", epoch=0, learning_rate=0.0
            )

        monkeypatch.setattr(dacs.simulate, "check_run", probe_check_run)
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg)  # 2 runs, so 2 workers
        _, diverged = run_config_grid(parse_run_config(cfg), str(tmp_path / "results"))
        assert [(strategy, seed) for strategy, seed, _ in diverged] == [("random", 0), ("dacs", 0)]
        for _, _, message in diverged:
            pid, workers = message.split()[1::2]
            assert int(pid) != os.getpid()
            assert workers == "1"
        assert dacs.core._worker_count() == 4  # the mark stays in the workers

    @pytest.mark.parametrize(
        "error",
        [ZeroDivisionError("boom"), DegenerateInputError("row 3 has zero norm", row=3)],
        ids=["ZeroDivisionError", "DegenerateInputError"],
    )
    def test_another_error_in_a_run_is_raised_with_its_type(self, tmp_path, monkeypatch, error):
        force_workers(monkeypatch, 2)
        real_check_run = dacs.simulate.check_run

        def failing_check_run(n_rows, n_features, strategy, *args):
            if strategy == "dacs":
                raise error
            return real_check_run(n_rows, n_features, strategy, *args)

        monkeypatch.setattr(dacs.simulate, "check_run", failing_check_run)
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg)
        out_dir = tmp_path / "results"
        with pytest.raises(type(error), match=str(error)) as caught:
            run_config_grid(parse_run_config(cfg), str(out_dir))
        assert vars(caught.value) == vars(error)
        assert "failing_check_run" in str(caught.value.__cause__)  # the worker's traceback
        # runs before the failed one are written, as on one process
        assert sorted(p.name for p in out_dir.iterdir()) == ["random-seed0.json"]

    @staticmethod
    def small_pool_config(tmp_path):
        cfg = tmp_path / "run.cfg"
        write_sim_config(cfg, buckets=100)  # 72 training rows, fewer than 100 buckets
        return parse_run_config(cfg)

    def test_a_worker_warning_reaches_pytest_warns(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        with pytest.warns(UserWarning, match="smaller than k=100 buckets"):
            run_config_grid(self.small_pool_config(tmp_path), str(tmp_path / "results"))

    def test_a_worker_warning_meets_the_error_filter(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        out_dir = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="smaller than k=100 buckets"):
                run_config_grid(self.small_pool_config(tmp_path), str(out_dir))
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_worker_warnings_arrive_as_on_one_process(self, tmp_path, monkeypatch, action):
        config = self.small_pool_config(tmp_path)
        seen = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                run_config_grid(config, str(tmp_path / f"workers{workers}"))
            seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert seen[0], "the config should warn"
        assert seen[1] == seen[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_shared_cycle_zero_warns_for_every_job(self, tmp_path, monkeypatch, workers):
        # both jobs of seed 0 share a cycle 0 whose densities warn
        config = self.small_pool_config(tmp_path)
        dataset = dataset_from_config(config)
        settings = run_settings(config, dataset.n)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            for strategy in config.strategies:
                for seed in config.seeds:
                    run_al(dataset, strategy, rng=Rng(seed), **settings)
        force_workers(monkeypatch, workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_config_grid(config, str(tmp_path / "results"))
        seen = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        assert seen == [(str(w.message), w.category, w.filename, w.lineno) for w in alone]
        assert sum("smaller than k=100 buckets" in w[0] for w in seen) >= 2


class TestSpearman:
    @pytest.mark.parametrize("kind", ["untied", "tied", "tied-on-one-side", "anticorrelated"])
    def test_matches_scipy(self, kind):
        gen = Rng(5, "spearman").generator()
        for _ in range(50):
            n = int(gen.integers(3, 300))
            if kind == "tied":  # few distinct values, so long runs of ties
                a = gen.integers(0, 6, n).astype(np.float64)
                b = a + gen.integers(0, 4, n)
            elif kind == "tied-on-one-side":
                a = gen.integers(0, 6, n).astype(np.float64)
                b = a + gen.normal(size=n)
            else:
                a = gen.normal(size=n)
                b = a + gen.normal(size=n)
                if kind == "anticorrelated":
                    b = -b
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue
            assert abs(spearman(a, b) - spearmanr(a, b).statistic) <= 1e-12

    def test_constant_input_is_nan_with_a_warning(self):
        with pytest.warns(UserWarning, match="constant input"):
            assert np.isnan(spearman(np.ones(4), np.arange(4.0)))
