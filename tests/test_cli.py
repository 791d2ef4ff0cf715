import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sasvbackend
from sasvbackend import cli, data, metrics, training

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

GEN_ARGS = [
    "gen-data", "--out-dir", "data",
    "--train-speakers", "8", "--dev-speakers", "2", "--eval-speakers", "4",
    "--utterances-per-speaker", "4", "--d-spk", "8", "--d-cm", "6",
    "--train-trials-per-label", "30", "--dev-trials-per-label", "8",
    "--eval-trials-per-label", "30", "--seed", "5",
]

RUN_FILE = """\
model=Extend512_DNN
embeddings=data/embeddings.tsv
train_protocol=data/train.protocol
dev_protocol=data/dev.protocol
out_dir=run1
seed=5
epochs=3
batch_size=32
"""


def _cli_env():
    """Environment for a child `python -m sasvbackend`.

    The directory that holds the imported package goes first on PYTHONPATH as
    an absolute path, so the child imports the same package whatever its
    working directory; a relative entry such as `src` would resolve against
    the child's cwd instead. Entries already on PYTHONPATH are kept after it.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sasvbackend.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


CLI_ENV = _cli_env()


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "sasvbackend", *args],
        cwd=cwd, env=CLI_ENV, capture_output=True, text=True,
    )


def run_cli_ok(args, cwd):
    """Run a setup step that must succeed; a failure shows the child's stderr."""
    result = run_cli(args, cwd)
    assert result.returncode == 0, f"{args[0]} exited {result.returncode}: {result.stderr}"


def run_main(args, capsys):
    """cli.main in-process, for checks that stop before any heavy work."""
    code = cli.main([str(a) for a in args])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliws")
    run_cli_ok(GEN_ARGS, root)
    (root / "run.cfg").write_text(RUN_FILE)
    run_cli_ok(["train", "--run-file", "run.cfg"], root)
    run_cli_ok(
        ["score", "--checkpoint", "run1/checkpoint.ckpt", "--embeddings",
         "data/embeddings.tsv", "--protocol", "data/eval.protocol",
         "--out", "run1/eval.scores"],
        root,
    )
    return root


class TestGenData:
    def test_artifacts_embed_seed_and_digest(self, workspace):
        emb = (workspace / "data" / "embeddings.tsv").read_text().splitlines()
        assert emb[0].startswith("#EMB v1 d_spk=8 d_cm=6")
        assert emb[1].startswith("# seed=5 config=")
        proto = (workspace / "data" / "train.protocol").read_text().splitlines()
        assert proto[0].startswith("# seed=5 config=")

    def test_generated_files_parse_back(self, workspace):
        store = data.load_embeddings(str(workspace / "data" / "embeddings.tsv"))
        assert store.d_spk == 8
        protocol = data.parse_protocol(str(workspace / "data" / "eval.protocol"))
        assert len(protocol) == 90


class TestTrain:
    def test_log_has_per_epoch_lines(self, workspace):
        lines = (workspace / "run1" / "train.log").read_text().splitlines()
        assert lines[0].startswith("# seed=5 config=")
        epoch_lines = [l for l in lines if l.startswith("epoch=")]
        assert len(epoch_lines) == 3
        assert "loss=" in epoch_lines[0] and "lr=" in epoch_lines[0]
        assert "dev_sasv=" in epoch_lines[0]

    def test_checkpoint_loads(self, workspace):
        from sasvbackend import models

        model = models.load_checkpoint(str(workspace / "run1" / "checkpoint.ckpt"))
        assert model.config.name == "Extend512_DNN"
        assert model.seed == 5

    def test_missing_run_file_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("model=CNN1D\n")
        result = run_cli(["train", "--run-file", "bad.cfg"], tmp_path)
        assert result.returncode == 2
        assert "error[invalid-input]" in result.stderr

    def test_unknown_run_file_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("model=CNN1D\nlearning_rate=0.1\n")
        result = run_cli(["train", "--run-file", "bad.cfg"], tmp_path)
        assert result.returncode == 2
        assert "learning_rate" in result.stderr

    @pytest.mark.parametrize("line, expected", [
        ("select_best=ture", "'ture'"),
        ("epochs=abc", "'abc'"),
    ])
    def test_bad_value_cites_file_and_line(self, tmp_path, line, expected):
        (tmp_path / "bad.cfg").write_text(
            "model=CNN1D\nembeddings=e.tsv\ntrain_protocol=t.protocol\nout_dir=o\n"
            f"{line}\n"
        )
        result = run_cli(["train", "--run-file", "bad.cfg"], tmp_path)
        assert result.returncode == 2
        assert "error[invalid-input]" in result.stderr
        assert "bad.cfg:5:" in result.stderr and expected in result.stderr

    def test_bool_values(self, tmp_path):
        base = "model=CNN1D\nembeddings=e.tsv\ntrain_protocol=t.protocol\nout_dir=o\n"
        for e in ("e.tsv", "t.protocol"):
            (tmp_path / e).write_text("")
        for text, flag in (("TRUE", True), ("yes", True), ("1", True),
                           ("false", False), ("No", False), ("0", False)):
            (tmp_path / "run.cfg").write_text(base + f"select_best={text}\nepochs=7\n")
            cfg = cli.ExperimentConfig.parse(str(tmp_path / "run.cfg"), str(tmp_path))
            assert cfg.select_best is flag and cfg.epochs == 7


class TestRunFileChecks:
    BASE = "model=CNN1D\nembeddings=e.tsv\ntrain_protocol=t.protocol\nout_dir=o\n"

    def _train(self, tmp_path, capsys, text):
        for name in ("e.tsv", "t.protocol"):
            (tmp_path / name).write_text("")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, stderr = run_main(["--workdir", tmp_path, "train", "--run-file", cfg], capsys)
        assert not (tmp_path / "o").exists()
        return code, stderr.replace(str(cfg), "run.cfg")

    def test_repeated_key_rejected(self, tmp_path, capsys):
        code, stderr = self._train(tmp_path, capsys, self.BASE + "train_protocol=e.tsv\n")
        assert code == 2
        assert "error[invalid-input]: run.cfg:5: duplicate key 'train_protocol'" in stderr

    @pytest.mark.parametrize("line, message", [
        ("epochs=0", "epochs must be >= 1"),
        ("batch_size=1", "batch_size must be >= 2"),
        ("lr0=-1", "lr0 must be positive"),
        ("seed=-1", "seed must be >= 0"),
    ])
    def test_train_config_error_names_run_file(self, tmp_path, capsys, line, message):
        code, stderr = self._train(tmp_path, capsys, self.BASE + line + "\n")
        assert code == 2
        assert f"error[invalid-input]: run.cfg: {message}" in stderr

    @pytest.mark.parametrize("line", ["lr0=nan", "weight_decay=inf", "class_weight_positive=-Infinity"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, line):
        code, stderr = self._train(tmp_path, capsys, self.BASE + line + "\n")
        key, value = line.split("=")
        assert code == 2
        assert f"run.cfg:5: {key}: expected a finite number, got '{value}'" in stderr

    def test_unknown_model_names_run_file(self, tmp_path, capsys):
        code, stderr = self._train(tmp_path, capsys, self.BASE.replace("CNN1D", "Foo"))
        assert code == 2
        assert "error[invalid-input]: run.cfg: unknown preset 'Foo'" in stderr

    @pytest.mark.parametrize("line", ["epochs=1_0", "batch_size=\u0663", "seed=\uff11",
                                      "lr0=1_0e-3"])
    def test_python_only_number_spelling_rejected(self, tmp_path, capsys, line):
        """int() reads "1_0" as 10 and "\u0663" (Arabic-Indic three) as 3."""
        code, stderr = self._train(tmp_path, capsys, self.BASE + line + "\n")
        key, value = line.split("=")
        assert code == 2
        assert f"error[invalid-input]: run.cfg:5: {key}: malformed number {value!r}" in stderr

    def test_missing_path_names_run_file(self, tmp_path, capsys):
        text = self.BASE.replace("t.protocol", "nope.protocol")
        code, stderr = self._train(tmp_path, capsys, text)
        assert code == 3
        assert "error[missing-file]: run.cfg: run file references missing path:" in stderr
        assert "nope.protocol" in stderr

    def test_directory_path_names_run_file(self, tmp_path, capsys):
        code, stderr = self._train(tmp_path, capsys, self.BASE.replace("e.tsv", "."))
        assert code == 3
        assert f"error[file-access]: run.cfg: run file references a directory: {tmp_path}" in stderr

    def test_non_finite_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gen-data", "--out-dir", str(tmp_path / "d"), "--sigma-between", "inf"])
        assert exit_info.value.code == 2
        assert "--sigma-between" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("args", [
        ["gen-data", "--out-dir", "d", "--seed", "1_0"],
        ["gen-data", "--out-dir", "d", "--sigma-within", "\u0661.5"],
        ["score", "--checkpoint", "c", "--embeddings", "e", "--protocol", "p", "--out", "d",
         "--batch-size", "\u0663"],
    ])
    def test_python_only_number_flag_rejected(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--workdir", str(tmp_path), *args])
        assert exit_info.value.code == 2
        assert f"{args[-2]}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


def rewrite_checkpoint(src, dst, edit_header=None, raw_header=None):
    """Copy a checkpoint with its JSON header edited in place or replaced."""
    header, blob = src.read_bytes().split(b"\n", 1)
    if edit_header is not None:
        payload = json.loads(header)
        edit_header(payload)
        header = json.dumps(payload).encode()
    dst.write_bytes((raw_header if raw_header is not None else header) + b"\n" + blob)


class TestCheckpointHeader:
    def _score(self, workspace, tmp_path, **kw):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(workspace / "run1" / "checkpoint.ckpt", bad, **kw)
        result = run_cli(
            ["score", "--checkpoint", str(bad),
             "--embeddings", str(workspace / "data" / "embeddings.tsv"),
             "--protocol", str(workspace / "data" / "eval.protocol"), "--out", "x.scores"],
            tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert "error[invalid-input]" in result.stderr and "bad.ckpt" in result.stderr
        assert not (tmp_path / "x.scores").exists()
        return result.stderr

    def test_missing_header_key(self, workspace, tmp_path):
        stderr = self._score(workspace, tmp_path, edit_header=lambda h: h.pop("dims"))
        assert "missing keys ['dims']" in stderr

    def test_unknown_config_key(self, workspace, tmp_path):
        stderr = self._score(
            workspace, tmp_path, edit_header=lambda h: h["config"].update(dropout=0.5))
        assert "unknown keys ['dropout']" in stderr

    def test_non_utf8_header(self, workspace, tmp_path):
        stderr = self._score(workspace, tmp_path, raw_header=b"\xff\xfe{}")
        assert "UTF-8" in stderr

    def test_dropped_array_entry(self, workspace, tmp_path):
        stderr = self._score(workspace, tmp_path, edit_header=lambda h: h["arrays"].pop())
        assert "array manifest" in stderr and "['head.b']" in stderr

    @pytest.mark.parametrize("dims", [[10**12, 10**12, 6], [float("inf"), 8, 6]],
                             ids=["huge", "infinite"])
    def test_impossible_model_dims(self, workspace, tmp_path, dims):
        stderr = self._score(workspace, tmp_path, edit_header=lambda h: h.update(dims=dims))
        assert "checkpoint config, dims or seed build no model" in stderr

    def test_zero_width_layer(self, workspace, tmp_path):
        """A DNN layer of width 0 would divide by zero in its init: an input
        error (exit 2), not an internal one (exit 1)."""
        stderr = self._score(
            workspace, tmp_path, edit_header=lambda h: h["config"].update(dnn_nodes=[0]))
        assert "dnn_nodes must be positive integers, got (0,)" in stderr

    def test_wrong_array_shape(self, workspace, tmp_path):
        def widen(h):
            h["arrays"][0]["shape"][0] += 1
        stderr = self._score(workspace, tmp_path, edit_header=widen)
        assert "array manifest" in stderr and "['fc0.w']" in stderr


class TestScore:
    def test_rescoring_is_byte_identical(self, workspace):
        first = (workspace / "run1" / "eval.scores").read_bytes()
        result = run_cli(
            ["score", "--checkpoint", "run1/checkpoint.ckpt", "--embeddings",
             "data/embeddings.tsv", "--protocol", "data/eval.protocol",
             "--out", "run1/eval2.scores"],
            workspace,
        )
        assert result.returncode == 0
        assert (workspace / "run1" / "eval2.scores").read_bytes() == first

    def test_mismatched_embedding_dims_rejected(self, workspace, tmp_path):
        other = list(GEN_ARGS)
        other[other.index("--d-spk") + 1] = "10"
        run_cli_ok(other, tmp_path)
        result = run_cli(
            ["score", "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
             "--embeddings", "data/embeddings.tsv", "--protocol", "data/eval.protocol",
             "--out", "x.scores"],
            tmp_path,
        )
        assert result.returncode == 2
        assert "error[invalid-input]" in result.stderr
        assert "checkpoint.ckpt" in result.stderr and "embeddings.tsv" in result.stderr
        assert "(10, 10, 6)" in result.stderr and "(8, 8, 6)" in result.stderr
        assert not (tmp_path / "x.scores").exists()

    def _score(self, workspace, tmp_path, capsys, checkpoint, *extra):
        out = tmp_path / "x.scores"
        code, stderr = run_main(
            ["score", "--checkpoint", checkpoint,
             "--embeddings", workspace / "data" / "embeddings.tsv",
             "--protocol", workspace / "data" / "eval.protocol", "--out", out, *extra],
            capsys,
        )
        assert code == 2 and "error[invalid-input]" in stderr
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        return stderr

    @pytest.mark.parametrize("batch_size", ["-1", "0"])
    def test_batch_size_below_one_rejected(self, workspace, tmp_path, capsys, batch_size):
        stderr = self._score(workspace, tmp_path, capsys, workspace / "run1" / "checkpoint.ckpt",
                             "--batch-size", batch_size)
        assert f"batch_size must be >= 1, got {batch_size}" in stderr

    def test_bad_token_deep_in_embeddings_names_its_line(self, workspace, tmp_path, capsys):
        lines = (workspace / "data" / "embeddings.tsv").read_text().splitlines()
        assert lines[1].startswith("# seed=")  # data rows start on line 3
        for i in range(300):
            lines += [f"pad{i}\tspk\t{','.join(['0.5'] * 8)}",
                      f"pad{i}\tcm\t{','.join(['0.5'] * 6)}"]
        utt_id, kind, payload = lines[701].split("\t")
        lines[701] = "\t".join([utt_id, kind, payload.replace(",", ",0.5e+x,", 1)])
        emb = tmp_path / "emb.tsv"
        emb.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.scores"
        code, stderr = run_main(
            ["score", "--checkpoint", workspace / "run1" / "checkpoint.ckpt", "--embeddings", emb,
             "--protocol", workspace / "data" / "eval.protocol", "--out", out], capsys)
        assert code == 2
        assert stderr.startswith(f"error[invalid-input]: {emb}:702: malformed float payload")
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    def test_non_finite_checkpoint_payload_rejected(self, workspace, tmp_path, capsys):
        header, blob = (workspace / "run1" / "checkpoint.ckpt").read_bytes().split(b"\n", 1)
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(header + b"\n" + np.array([np.nan]).tobytes() + blob[8:])
        stderr = self._score(workspace, tmp_path, capsys, bad)
        assert f"{bad}: checkpoint array 'fc0.w' has non-finite values" in stderr

    def test_checkpoint_that_overflows_rejected(self, workspace, tmp_path, capsys):
        """Finite weights near the float64 limit give non-finite scores; the
        error names the checkpoint and no score file is written."""
        header, blob = (workspace / "run1" / "checkpoint.ckpt").read_bytes().split(b"\n", 1)
        weights = np.frombuffer(blob, dtype="<f8").copy()
        weights[: 22 * 512] = np.where(np.arange(22 * 512) % 2, -1.7e308, 1.7e308)
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(header + b"\n" + weights.tobytes())
        with np.errstate(over="ignore", invalid="ignore"):
            stderr = self._score(workspace, tmp_path, capsys, bad)
        assert f"{bad}: model gives non-finite scores" in stderr

    def test_directory_embeddings_path_is_categorized(self, workspace, tmp_path, capsys):
        code, stderr = run_main(
            ["score", "--checkpoint", workspace / "run1" / "checkpoint.ckpt",
             "--embeddings", workspace / "data",
             "--protocol", workspace / "data" / "eval.protocol", "--out", tmp_path / "x.scores"],
            capsys,
        )
        assert code == 3
        assert "error[file-access]" in stderr and str(workspace / "data") in stderr
        assert not (tmp_path / "x.scores").exists()

    @pytest.mark.parametrize("error, detail", [
        (_ArrayMemoryError((128, 9, 256, 64, 64), np.dtype(np.float64)),
         "; numpy asked for 9663676416 bytes (array of shape (128, 9, 256, 64, 64))"),
        (MemoryError(), ""),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_names_batch_size(self, workspace, tmp_path, capsys, monkeypatch,
                                            error, detail):
        def exhausted(*args, **kwargs):
            raise error
        monkeypatch.setattr(training, "score_trials", exhausted)
        code, stderr = run_main(
            ["score", "--checkpoint", workspace / "run1" / "checkpoint.ckpt",
             "--embeddings", workspace / "data" / "embeddings.tsv",
             "--protocol", workspace / "data" / "eval.protocol", "--out", tmp_path / "x.scores",
             "--batch-size", "128"],
            capsys,
        )
        n_trials = len(data.parse_protocol(str(workspace / "data" / "eval.protocol")))
        assert code == 5
        assert (f"error[out-of-memory]: scoring {n_trials} trials at --batch-size 128 "
                f"ran out of memory{detail}; use a smaller --batch-size") in stderr
        assert not (tmp_path / "x.scores").exists()

    def test_score_file_embeds_seed(self, workspace):
        head = (workspace / "run1" / "eval.scores").read_text().splitlines()[0]
        assert head.startswith("# seed=5 config=")
        assert head.endswith(" batch_size=256")

    def test_score_file_records_batch_size(self, workspace, tmp_path, capsys):
        """Score bytes depend on the batch size, so the header names it."""
        out = tmp_path / "b7.scores"
        code, stderr = run_main(
            ["score", "--checkpoint", workspace / "run1" / "checkpoint.ckpt",
             "--embeddings", workspace / "data" / "embeddings.tsv",
             "--protocol", workspace / "data" / "eval.protocol", "--out", out,
             "--batch-size", "7"],
            capsys,
        )
        assert code == 0, stderr
        head = out.read_text().splitlines()[0]
        default = (workspace / "run1" / "eval.scores").read_text().splitlines()[0]
        assert head == default.replace(" batch_size=256", " batch_size=7")
        fields = dict(item.split("=", 1) for item in head.removeprefix("# ").split())
        assert (fields["seed"], fields["batch_size"]) == ("5", "7")
        ids, _ = metrics.read_score_file(str(out))
        assert ids == data.parse_protocol(str(workspace / "data" / "eval.protocol")).trial_ids()

    def test_no_temp_files_left_behind(self, workspace):
        leftovers = [p for p in (workspace / "run1").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestEval:
    def test_prints_three_decimals_in_sasv_spf_sv_order(self, workspace):
        result = run_cli(
            ["eval", "--scores", "run1/eval.scores", "--protocol", "data/eval.protocol"],
            workspace,
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        metric_lines = [l for l in lines if l.split() and l.split()[0].endswith("-EER")]
        assert [l.split()[0] for l in metric_lines] == ["SASV-EER", "SPF-EER", "SV-EER"]
        for line in metric_lines:
            value = line.split()[1]
            assert len(value.split(".")[1]) == 3

    def test_json_and_det_outputs(self, workspace):
        result = run_cli(
            ["eval", "--scores", "run1/eval.scores", "--protocol",
             "data/eval.protocol", "--json-out", "run1/report.json",
             "--det-out", "run1/det.tsv"],
            workspace,
        )
        assert result.returncode == 0
        payload = json.loads((workspace / "run1" / "report.json").read_text())
        assert set(payload) >= {"sasv_eer", "spf_eer", "sv_eer", "counts"}
        assert (workspace / "run1" / "det.tsv").exists()

    def test_eval_golden_fixture_values(self, tmp_path):
        from test_metrics import GOLDEN_FIXTURE, GOLDEN_EERS

        proto_lines = [f"e{i}\tu{i}\t{label}" for i, (_, _, label) in enumerate(GOLDEN_FIXTURE)]
        (tmp_path / "g.protocol").write_text("\n".join(proto_lines) + "\n")
        score_lines = [
            f"t{i:06d}\t{score}" for i, (_, score, _) in enumerate(GOLDEN_FIXTURE)
        ]
        (tmp_path / "g.scores").write_text("\n".join(score_lines) + "\n")
        result = run_cli(
            ["eval", "--scores", "g.scores", "--protocol", "g.protocol"], tmp_path
        )
        assert result.returncode == 0
        assert f"{GOLDEN_EERS['sasv']:.3f}" in result.stdout
        assert f"{GOLDEN_EERS['spf']:.3f}" in result.stdout
        assert f"{GOLDEN_EERS['sv']:.3f}" in result.stdout

    def test_partial_score_file_rejected(self, workspace, tmp_path):
        lines = (workspace / "run1" / "eval.scores").read_text().splitlines(keepends=True)
        (tmp_path / "part.scores").write_text("".join(lines[:9]))  # comment + 8 trials
        result = run_cli(
            ["eval", "--scores", str(tmp_path / "part.scores"),
             "--protocol", str(workspace / "data" / "eval.protocol")],
            tmp_path,
        )
        assert result.returncode == 2
        assert "error[invalid-input]" in result.stderr and "part.scores" in result.stderr
        assert "82 protocol trials have no score" in result.stderr
        assert "t000008" in result.stderr
        assert "SASV-EER" not in result.stdout

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11.5"])
    def test_python_only_score_spelling_rejected(self, workspace, tmp_path, value):
        lines = (workspace / "run1" / "eval.scores").read_text().splitlines(keepends=True)
        trial_id = lines[1].split("\t")[0]
        lines[1] = f"{trial_id}\t{value}\n"
        (tmp_path / "bad.scores").write_text("".join(lines), encoding="utf-8")
        result = run_cli(
            ["eval", "--scores", str(tmp_path / "bad.scores"),
             "--protocol", str(workspace / "data" / "eval.protocol")],
            tmp_path,
        )
        assert result.returncode == 2
        assert "error[invalid-input]" in result.stderr
        assert f"bad.scores:2: malformed score {value!r}" in result.stderr
        assert "SASV-EER" not in result.stdout

    def test_missing_score_file_gives_categorized_error(self, workspace):
        result = run_cli(
            ["eval", "--scores", "nope.scores", "--protocol", "data/eval.protocol"],
            workspace,
        )
        assert result.returncode == 3
        assert "error[missing-file]" in result.stderr


class TestFuse:
    @pytest.fixture
    def second_scores(self, workspace):
        """A second system's eval score file, identical to the first."""
        shutil.copyfile(workspace / "run1" / "eval.scores", workspace / "run1" / "fuse2.scores")
        return "run1/fuse2.scores"

    def test_average_of_single_file_is_identity(self, workspace):
        result = run_cli(
            ["fuse", "--method", "average", "--scores", "run1/eval.scores",
             "--protocol", "data/eval.protocol", "--out", "run1/favg.scores"],
            workspace,
        )
        assert result.returncode == 0
        _, original = metrics.read_score_file(str(workspace / "run1" / "eval.scores"))
        _, fused = metrics.read_score_file(str(workspace / "run1" / "favg.scores"))
        assert np.array_equal(original, fused)

    def test_linear_fusion_with_calibration(self, workspace, second_scores):
        result = run_cli(
            ["fuse", "--method", "linear",
             "--scores", "run1/eval.scores", second_scores,
             "--protocol", "data/eval.protocol",
             "--calibration-scores", "run1/eval.scores", second_scores,
             "--calibration-protocol", "data/eval.protocol",
             "--out", "run1/flin.scores", "--model-out", "run1/fusion.json"],
            workspace,
        )
        assert result.returncode == 0
        payload = json.loads((workspace / "run1" / "fusion.json").read_text())
        assert payload["kind"] == "linear"
        assert len(payload["weights"]) == 2
        # identical systems keep symmetric weights
        assert payload["weights"][0] == pytest.approx(payload["weights"][1], abs=1e-6)

    def test_linear_without_calibration_rejected(self, workspace, second_scores):
        result = run_cli(
            ["fuse", "--method", "linear", "--scores", "run1/eval.scores",
             second_scores, "--protocol", "data/eval.protocol",
             "--out", "run1/x.scores"],
            workspace,
        )
        assert result.returncode == 2
        assert "calibration" in result.stderr

    def test_partial_calibration_file_rejected(self, workspace, second_scores):
        lines = (workspace / "run1" / "eval.scores").read_text().splitlines(keepends=True)
        (workspace / "run1" / "cal_part.scores").write_text("".join(lines[:-1]))
        result = run_cli(
            ["fuse", "--method", "linear",
             "--scores", "run1/eval.scores", second_scores,
             "--protocol", "data/eval.protocol",
             "--calibration-scores", "run1/eval.scores", "run1/cal_part.scores",
             "--calibration-protocol", "data/eval.protocol",
             "--out", "run1/fpart.scores"],
            workspace,
        )
        assert result.returncode == 2
        assert "cal_part.scores" in result.stderr
        assert "1 protocol trials have no score" in result.stderr
        assert not (workspace / "run1" / "fpart.scores").exists()

    def test_flag_error_reported_before_reading_scores(self, workspace):
        result = run_cli(
            ["fuse", "--method", "linear", "--scores", "run1/nope.scores",
             "--protocol", "data/eval.protocol", "--out", "run1/x.scores"],
            workspace,
        )
        assert result.returncode == 2
        assert "calibration" in result.stderr


class TestWorkdir:
    def test_paths_resolve_against_workdir(self, workspace, tmp_path):
        result = run_cli(
            ["--workdir", str(workspace),
             "eval", "--scores", "run1/eval.scores", "--protocol", "data/eval.protocol"],
            tmp_path,
        )
        assert result.returncode == 0
        assert "SASV-EER" in result.stdout

    def test_run_file_resolves_against_workdir(self, workspace, tmp_path, capsys, monkeypatch):
        root = tmp_path / "w"
        shutil.copytree(workspace / "data", root / "data")
        (root / "run.cfg").write_text(RUN_FILE.replace("epochs=3", "epochs=1"))
        monkeypatch.chdir(tmp_path)
        code, stderr = run_main(["--workdir", root, "train", "--run-file", "run.cfg"], capsys)
        assert code == 0, stderr
        assert (root / "run1" / "checkpoint.ckpt").exists()


class TestSelftest:
    def test_exit_zero_and_one_line_per_check(self, tmp_path):
        result = run_cli(["selftest"], tmp_path)
        assert result.returncode == 0
        lines = [l for l in result.stdout.splitlines() if l.startswith("ok")]
        assert len(lines) == len(cli.selftest.CHECKS)

    def test_imports_without_test_extras(self, tmp_path):
        code = ("import sys, sasvbackend.oracles, sasvbackend.selftest; "
                "print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=CLI_ENV,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

