"""Hostile-input fuzzers: small valid files with flipped, inserted, deleted
or spliced bytes either read back or end in an error that names the file.

Each example works in its own temporary directory and runs ``cli.main``
in-process, so hypothesis never sees a function-scoped fixture.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvbackend import cli, data, metrics

TOKENS = (b"\xff", b"\t", b"#", b"nan", b"inf", b"\r")

EMBEDDINGS = (b"#EMB v1 d_spk=2 d_cm=2\n# seed=1 config=abc\n"
              b"u1\tspk\t0.5,-1.25\nu1\tcm\t1e-3,2.0\nu2\tspk\t3.0,4.0\n")
PROTOCOL = b"# seed=1\nu1,u2\tu9\ttarget\nu2\tu9\tnontarget\n\nu1\tu8\tspoof\n"
SCORES = b"# seed=1\nt000000\t0.25\nt000001\t-1.5\nt000002\t0.75\n"
RUN_FILE = (b"# run\nmodel=Extend512_DNN\nembeddings=emb.tsv\ntrain_protocol=train.protocol\n"
            b"dev_protocol=train.protocol\nout_dir=out\nepochs=2\nlr0=0.001\nselect_best=yes\n")


@st.composite
def mutated(draw, base: bytes, hot: int | None = None):
    """``base`` after 1-4 byte flips, inserts, deletes or token splices; with
    ``hot`` set, about half of the positions fall in the first ``hot`` bytes."""
    out = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        end = len(out) if hot is None or draw(st.booleans()) else min(hot, len(out))
        pos = draw(st.integers(0, max(end - 1, 0)))
        op = draw(st.sampled_from(("flip", "insert", "delete", "splice")))
        if op == "flip" and out:
            out[pos] ^= draw(st.integers(1, 255))
        elif op == "insert":
            out.insert(pos, draw(st.integers(0, 255)))
        elif op == "delete" and out:
            del out[pos]
        else:
            out[pos:pos] = draw(st.sampled_from(TOKENS))
    return bytes(out)


def _parse_run_file(path):
    return cli.ExperimentConfig.parse(path, os.path.dirname(path))


READERS = {
    "embeddings": (EMBEDDINGS, data.load_embeddings),
    "protocol": (PROTOCOL, data.parse_protocol),
    "scores": (SCORES, metrics.read_score_file),
    "run file": (RUN_FILE, _parse_run_file),
}


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_reader_returns_or_names_the_file(fmt, draw):
    base, read = READERS[fmt]
    raw = draw.draw(mutated(base))
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("emb.tsv", "train.protocol"):
            open(os.path.join(tmp, name), "wb").close()
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            read(path)
        except FileNotFoundError as exc:
            assert fmt == "run file"
            assert str(exc).startswith(f"{path}: run file references missing path: ")
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny generated dataset, an Extend512_DNN checkpoint and its scores."""
    root = str(tmp_path_factory.mktemp("fuzzws"))
    gen = ["--workdir", root, "gen-data", "--out-dir", ".", "--train-speakers", "4",
           "--dev-speakers", "2", "--eval-speakers", "3", "--utterances-per-speaker", "3",
           "--d-spk", "4", "--d-cm", "3", "--train-trials-per-label", "8",
           "--dev-trials-per-label", "2", "--eval-trials-per-label", "6", "--seed", "2"]
    with open(os.path.join(root, "run.cfg"), "w") as fh:
        fh.write("model=Extend512_DNN\nembeddings=embeddings.tsv\n"
                 "train_protocol=train.protocol\nout_dir=run\nepochs=1\nbatch_size=8\n")
    score = ["--workdir", root, "score", "--checkpoint", "run/checkpoint.ckpt",
             "--embeddings", "embeddings.tsv", "--protocol", "eval.protocol",
             "--out", "eval.scores"]
    with contextlib.redirect_stdout(io.StringIO()):
        for args in (gen, ["--workdir", root, "train", "--run-file",
                           os.path.join(root, "run.cfg")], score):
            assert cli.main(args) == 0
    return root


def _run(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def _check_outcome(code, stderr, mutated_path, outputs):
    assert code in (0, 2), stderr
    if code:
        assert mutated_path in stderr
        assert not any(os.path.exists(p) for p in outputs)
        assert not [n for n in os.listdir(os.path.dirname(mutated_path)) if n.endswith(".tmp")]


@settings(max_examples=40, deadline=None)
@given(draw=st.data())
def test_score_with_mutated_checkpoint(trained, draw):
    with open(os.path.join(trained, "run", "checkpoint.ckpt"), "rb") as fh:
        base = fh.read()
    raw = draw.draw(mutated(base, hot=base.index(b"\n") + 64))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, out = os.path.join(tmp, "bad.ckpt"), os.path.join(tmp, "x.scores")
        with open(ckpt, "wb") as fh:
            fh.write(raw)
        code, stderr = _run(["score", "--checkpoint", ckpt,
                             "--embeddings", os.path.join(trained, "embeddings.tsv"),
                             "--protocol", os.path.join(trained, "eval.protocol"),
                             "--out", out])
        _check_outcome(code, stderr, ckpt, [out])
        if code == 0:
            with open(out) as fh:
                values = [float(l.split("\t")[1]) for l in fh if not l.startswith("#")]
            assert len(values) == 18 and np.isfinite(values).all()


@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_eval_with_mutated_score_file(trained, draw):
    with open(os.path.join(trained, "eval.scores"), "rb") as fh:
        raw = draw.draw(mutated(fh.read()))
    with tempfile.TemporaryDirectory() as tmp:
        scores = os.path.join(tmp, "bad.scores")
        outputs = [os.path.join(tmp, "report.json"), os.path.join(tmp, "det.tsv")]
        with open(scores, "wb") as fh:
            fh.write(raw)
        code, stderr = _run(["eval", "--scores", scores,
                             "--protocol", os.path.join(trained, "eval.protocol"),
                             "--json-out", outputs[0], "--det-out", outputs[1]])
        _check_outcome(code, stderr, scores, outputs)
