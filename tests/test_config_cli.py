import dataclasses
import errno
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import psearch.runner
from psearch.checks import SUITES
from psearch.cli import main
from psearch.config import (
    ExperimentConfig,
    apply_override,
    config_hash,
    config_keys,
    emit_config,
    parse_config,
)
from psearch.errors import ConfigError, DivergenceDetected, NoRelevant
from psearch.simulator import IMAGES_PER_ITER, LOSS_CHOICES

TINY = [
    "--num-identities", "10", "--latent-dim", "4", "--obs-dim", "16",
    "--proposals-per-image", "4", "--iters", "5", "--query-count", "5",
    "--distractors", "10",
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PSEARCH_OUT", raising=False)


class TestConfig:
    def test_emit_parse_roundtrip(self):
        cfg = ExperimentConfig(seed=7, lam=3.5, loss_choice="triplet+hep")
        assert parse_config(emit_config(cfg)) == cfg

    def test_lambda_key_spelling(self):
        cfg = parse_config("lambda = 2.5\n")
        assert cfg.lam == 2.5
        assert "lambda = " in emit_config(cfg)
        assert "lam = " not in emit_config(cfg)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("seed 3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="alhpa"):
            parse_config("alhpa = 0.5\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config("seed = many\n")

    def test_override_wins(self):
        cfg = parse_config("seed = 1\nseed = 2\n")
        assert cfg.seed == 2

    @pytest.mark.parametrize("key,value", [
        ("images_per_iter", "3"),
        ("loss_choice", "magnet"),
        ("gallery_sizes", "10,x"),
        ("phi", "1.5"),
        ("num_identities", "1"),
    ])
    def test_validate_rejects(self, key, value):
        cfg = ExperimentConfig()
        apply_override(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_gallery_size_list(self):
        cfg = ExperimentConfig(gallery_sizes="10, 20,30")
        assert cfg.gallery_size_list() == [10, 20, 30]
        assert ExperimentConfig().gallery_size_list() == []

    def test_config_hash_sensitivity(self):
        a = ExperimentConfig()
        b = dataclasses.replace(a, seed=1)
        assert config_hash(a) == config_hash(ExperimentConfig())
        assert config_hash(a) != config_hash(b)
        # where a run writes is not part of what it is
        assert config_hash(dataclasses.replace(a, out_dir="a")) == config_hash(a)

    def test_every_key_has_cli_spelling(self):
        keys = config_keys()
        assert "lambda" in keys and "lam" not in keys
        assert len(keys) == len(dataclasses.fields(ExperimentConfig))


class TestCliRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["run", *TINY, "--out-dir", out])
        assert rc == 0
        assert "mAP" in capsys.readouterr().out
        train = (tmp_path / "out" / "train.csv").read_text()
        assert train.startswith(
            "iteration,olp_loss,id_loss,total,dictionary_size,pool_size,lr\n"
        )
        assert len(train.strip().split("\n")) == 6  # header + 5 iterations
        eval_text = (tmp_path / "out" / "eval.csv").read_text()
        assert eval_text.startswith("gallery_size,mAP,top1,top5,top10\n")
        echo = (tmp_path / "out" / "config-echo.txt").read_text()
        assert "num_identities = 10" in echo

    def test_rerun_byte_identical(self, tmp_path):
        out = str(tmp_path / "a")
        names = ("train.csv", "eval.csv", "config-echo.txt")
        assert main(["run", *TINY, "--out-dir", out]) == 0
        first = {n: (tmp_path / "a" / n).read_bytes() for n in names}
        assert main(["run", *TINY, "--out-dir", out]) == 0
        for n in names:
            assert (tmp_path / "a" / n).read_bytes() == first[n], n

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSEARCH_OUT", str(tmp_path / "env-out"))
        assert main(["run", *TINY]) == 0
        assert (tmp_path / "env-out" / "train.csv").exists()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "num_identities = 10\nlatent_dim = 4\nobs_dim = 16\n"
            "proposals_per_image = 4\niters = 3\nquery_count = 5\n"
            "distractors = 10\nseed = 5\n"
        )
        out = str(tmp_path / "out")
        rc = main(["run", "--config", str(cfg_file), "--iters", "4",
                   "--out-dir", out])
        assert rc == 0
        echo = (tmp_path / "out" / "config-echo.txt").read_text()
        assert "iters = 4" in echo  # command line beats file
        assert "seed = 5" in echo

    def test_unknown_key_in_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("alhpa = 0.5\n")
        rc = main(["run", "--config", str(cfg_file)])
        assert rc == 2
        assert "alhpa" in capsys.readouterr().err

    def test_invalid_value_exit_code(self, tmp_path, capsys):
        rc = main(["run", *TINY, "--images-per-iter", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags,message", [
        (["--loss-choice", "magnet"], f"loss_choice: 'magnet' not in {LOSS_CHOICES}"),
        (["--images-per-iter", "3"], f"images_per_iter: must be one of {IMAGES_PER_ITER}"),
        (["--dict-multiplier", "0"], "dict_multiplier: must be >= 1"),
        (["--proposals-per-image", "0"], "proposals_per_image: must be >= 1"),
        (["--phi", "1.5"], "phi must be in (0, 1)"),
        (["--iters", "0"], "iters: must be >= 1"),
        (["--lr-final", "-0.5"], "lr_initial, lr_final: must be finite and >= 0"),
        (["--lr-drop-frac", "1.5"], "lr_drop_frac: must be in [0, 1]"),
        # the first broken rule is reported, in validate()'s order
        (["--lr-final", "-0.5", "--phi", "1.5"], "phi must be in (0, 1)"),
        (["--lr-final", "-0.5", "--query-count", "0"], "lr_initial, lr_final: must be finite and >= 0"),
        # an infinite value is in range but not finite, and the line says so
        (["--lr-initial", "inf"], "lr_initial, lr_final: must be finite and >= 0"),
        (["--sigma-view", "inf"], "sigma_view, sigma_noise: must be finite and >= 0"),
        (["--beta", "inf"], "alpha and beta must be finite and >= 0"),
        (["--lambda", "inf"], "lambda must be finite and > 0"),
    ])
    def test_training_setting_error_line(self, tmp_path, capsys, flags, message):
        rc = main(["run", *TINY, *flags, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_config_file(self, capsys):
        rc = main(["run", "--config", "/nonexistent/x.cfg"])
        assert rc == 2

    # TINY holds 5 query identities x 2 gallery items + 10 distractors
    @pytest.mark.parametrize("size", ["5", "21"])
    def test_gallery_size_out_of_range_fails_before_training(self, tmp_path, capsys, size):
        out = tmp_path / "out"
        rc = main(["run", *TINY, "--gallery-sizes", size, "--out-dir", str(out)])
        assert rc == 2
        assert "gallery_sizes" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags", [
        ["--query-count", "0"],
        ["--gallery-per-identity", "0"],
        ["--distractors", "-5"],
        ["--obs-dim", "6", "--latent-dim", "4"],
        ["--alpha", "nan"],
        ["--beta", "inf"],
        ["--lambda", "nan"],
        ["--lr-initial", "nan"],
        ["--sigma-view", "nan"],
        ["--unlabeled-fraction", "1.5"],
        ["--background-fraction", "-0.5"],
        ["--lr-initial", "-1"],
        ["--lr-final", "-0.5"],
        ["--triplet-margin", "-0.1"],
        ["--triplet-margin", "2.5"],
        ["--contrastive-margin", "-3"],
        ["--contrastive-margin", "1.5"],
        ["--seed", "-1"],
        ["--proposals-per-image", "0"],
        ["--iters", "0"],
        ["--dict-multiplier", "0"],
        ["--lr-drop-frac", "1.5"],
        ["--latent-dim", "1"],
        ["--sigma-noise", "-1"],
    ])
    def test_bad_retrieval_or_world_settings_fail_before_training(self, tmp_path, capsys,
                                                                  flags):
        out = tmp_path / "out"
        rc = main(["run", *TINY, *flags, "--out-dir", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [key for key, f in zip(config_keys(),
                                                           dataclasses.fields(ExperimentConfig))
                                     if f.type == "float"])
    def test_non_finite_float_fails_before_training(self, tmp_path, capsys, key, value):
        # each setting's owner refuses it; validate() has no finiteness sweep of its own
        out = tmp_path / "out"
        rc = main(["run", *TINY, f"--{key.replace('_', '-')}={value}", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-gallery"], ["ablate", "input-count"]])
    def test_unusable_out_dir_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                    command):
        trained = []
        monkeypatch.setattr(psearch.runner, "train_from_config", trained.append)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main([*command, *TINY, "--out-dir", str(blocker / "out")])
        assert rc == 2
        assert "config error: out_dir" in capsys.readouterr().err
        assert not trained

    def test_failed_sweep_writes_no_file(self, tmp_path, monkeypatch):
        def broken_sweep(*args):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(psearch.runner, "gallery_sweep", broken_sweep)
        with pytest.raises(RuntimeError, match="sweep failed"):
            main(["run", *TINY, "--gallery-sizes", "11,20", "--out-dir", str(tmp_path)])
        assert os.listdir(tmp_path) == []

    def test_overflowed_features_exit_3(self, tmp_path, capsys):
        # the encoder norm overflows to inf after the first step, zeroing every feature row
        rc = main(["run", *TINY, "--lr-initial", "1e308", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "zero or non-finite features" in capsys.readouterr().err

    def test_non_finite_total_exits_3_with_only_the_divergence_line(self, tmp_path, capsys):
        # probabilities underflow to 0 after the first step; their log is -inf
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--iters", "30", "--loss-choice", "triplet+hep",
                       "--lr-initial", "1e150", "--out-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "training diverged: non-finite total loss at iteration 1\n"
        assert [str(w.message) for w in caught] == []
        assert os.listdir(out) == []


ARTIFACTS = ["config-echo.txt", "eval.csv", "train.csv"]


BAD_FLAGS = ("--pool-size=0", "--distractors=-1", "--images-per-iter=3",
             "--gallery-sizes=99", "--query-count=0", "--obs-dim=3")


@given(loss=st.sampled_from(LOSS_CHOICES), images=st.sampled_from(IMAGES_PER_ITER),
       iters=st.integers(1, 5), seed=st.integers(0, 5), pool_size=st.sampled_from((1, 4, 100)),
       distractors=st.sampled_from((2, 6)), gallery_sizes=st.sampled_from(("", "3,5")),
       bad=st.sampled_from((None,) * len(BAD_FLAGS) + BAD_FLAGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_completes_or_fails_cleanly(loss, images, iters, seed, pool_size, distractors,
                                        gallery_sizes, bad):
    """Over a tiny world: every `run` either exits 0 with all three
    artifacts or, given one bad setting, exits 2 with none; it never
    raises, and a rerun writes byte-identical CSVs."""
    argv = ["run", "--num-identities", "6", "--latent-dim", "2", "--obs-dim", "8",
            "--proposals-per-image", "3", "--query-count", "3", "--gallery-per-identity", "1",
            "--iters", str(iters), "--seed", str(seed), "--loss-choice", loss,
            "--images-per-iter", str(images), "--pool-size", str(pool_size),
            "--distractors", str(distractors), "--gallery-sizes", gallery_sizes]
    with tempfile.TemporaryDirectory() as tmp:
        csvs = []
        for rerun in ("a", "b"):
            out = os.path.join(tmp, rerun)
            rc = main([*argv, *([bad] if bad else []), "--out-dir", out])
            assert rc == (2 if bad else 0)
            if bad:
                assert not os.path.exists(out)
                return
            assert sorted(os.listdir(out)) == ARTIFACTS
            csvs.append([open(os.path.join(out, n), "rb").read() for n in ARTIFACTS[1:]])
        assert csvs[0] == csvs[1]


COMMANDS = {
    "run": (["run"], ARTIFACTS),
    "ablate": (["ablate", "input-count"], ["ablate-input-count.csv"]),
    "sweep-gallery": (["sweep-gallery"], ["gallery-sweep.csv"]),
}
FAILURE_POINTS = ("train_from_config", "evaluate_retrieval", "gallery_sweep", "write_text")
# an injected failure, and the exit code README documents for it (None: it propagates)
FAILURES = ((DivergenceDetected("injected"), 3), (NoRelevant("injected"), 4),
            (OSError(errno.ENOSPC, "injected"), None), (KeyboardInterrupt(), None))


def files_in(out):
    """Each entry of out by name: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in Path(out).iterdir()}


@given(command=st.sampled_from(sorted(COMMANDS)), point=st.sampled_from(FAILURE_POINTS),
       call=st.integers(1, 3), failure=st.sampled_from(FAILURES), earlier=st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_failure_at_any_point_leaves_the_earlier_set(command, point, call, failure, earlier):
    """run, ablate and sweep-gallery, failing at the call-th call of training,
    evaluation, the sweep or one file's write (cut half-way), exit with
    README's code and leave the output directory as it was: empty, or
    holding an earlier complete set, byte for byte. A command that never
    reaches the failure writes its whole set. No temp directory remains."""
    argv, names = COMMANDS[command]
    exc, code = failure
    real, calls = getattr(psearch.runner, point), []

    def fails_at_call(*args):
        calls.append(args)
        if len(calls) == call:
            if point == "write_text":
                real(args[0], args[1][: len(args[1]) // 2])
            raise exc
        return real(*args)

    with tempfile.TemporaryDirectory() as out:
        flags = [*argv, *TINY, "--gallery-sizes", "11,20", "--out-dir", out]
        if earlier:
            assert main([*flags, "--seed", "1"]) == 0
        before = files_in(out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(psearch.runner, point, fails_at_call)
            try:
                rc = main([*flags, "--seed", "2"])
            except (OSError, KeyboardInterrupt) as raised:
                assert raised is exc
                rc = None
        if len(calls) >= call:
            assert rc == code
            assert files_in(out) == before
        else:
            assert rc == 0
            assert sorted(os.listdir(out)) == sorted(names)


class TestCliAblateAndSweep:
    def test_ablate_input_count(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["ablate", "input-count", *TINY, "--out-dir", out])
        assert rc == 0
        text = (tmp_path / "out" / "ablate-input-count.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "images_per_iter,mAP,top1,top5,top10,config_hash"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "4", "8"]
        # each row carries the hash of its own configuration
        hashes = {row.split(",")[-1] for row in lines[1:]}
        assert len(hashes) == 3

    def test_ablation_csv_does_not_depend_on_the_out_dir(self, tmp_path):
        for name in ("a", "b"):
            assert main(["ablate", "input-count", *TINY, "--out-dir", str(tmp_path / name)]) == 0
        csv = "ablate-input-count.csv"
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    def test_divergence_at_a_later_point_writes_no_file(self, tmp_path, monkeypatch):
        evaluate = psearch.runner.evaluate_config
        points = []

        def diverges_at_second_point(cfg):
            points.append(cfg.images_per_iter)
            if len(points) == 2:
                raise DivergenceDetected("non-finite total loss at iteration 0")
            return evaluate(cfg)

        monkeypatch.setattr(psearch.runner, "evaluate_config", diverges_at_second_point)
        rc = main(["ablate", "input-count", *TINY, "--out-dir", str(tmp_path)])
        assert rc == 3
        assert points == [2, 4]
        assert os.listdir(tmp_path) == []

    def test_sweep_gallery(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["sweep-gallery", *TINY, "--out-dir", out])
        assert rc == 0
        text = (tmp_path / "out" / "gallery-sweep.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "gallery_size,mAP,top1,top5,top10"
        sizes = [int(row.split(",")[0]) for row in lines[1:]]
        assert sizes == sorted(sizes) and len(sizes) >= 2

    @pytest.mark.parametrize("command,csv", [
        (["sweep-gallery"], "gallery-sweep.csv"),
        (["ablate", "gallery-size"], "ablate-gallery-size.csv"),
    ])
    def test_gallery_sizes_flag_sets_sweep(self, tmp_path, command, csv):
        out = tmp_path / "out"
        rc = main([*command, *TINY, "--gallery-sizes", "11,20", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / csv).read_text().strip().split("\n")
        assert [int(row.split(",")[0]) for row in lines[1:]] == [11, 20]


class TestCliCheck:
    def test_suite_choices_are_the_suites(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])
        err = capsys.readouterr().err
        assert all(name in err for name in SUITES)

    def test_oracle_suite_passes(self, capsys):
        rc = main(["check", "oracles"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
