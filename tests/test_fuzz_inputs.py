"""Hostile-input fuzzers: small valid files with flipped, inserted, deleted
or spliced bytes either read back or end in an error that names the file,
and checkpoint headers with values no model can be built from always end in
one.

Each example works in its own temporary directory and runs ``cli.main``
in-process, so hypothesis never sees a function-scoped fixture.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvbackend import attention, cli, data, fusion, metrics, models

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


# A checkpoint of a small CNN1D with attention, at the dims of the ``trained``
# embeddings (4, 4, 3). Its two conv layers differ in width and its
# attention bottleneck is 24 // 8 = 3 wide, so moving the attention or
# changing the reduction ratio changes the array manifest.
FUZZ_CONFIG = models.ModelConfig(
    name="fuzz", fusion_mode=fusion.STACK1D, conv_channels=(16, 24), conv_kernels=(3, 5),
    pool_size=(2,), dnn_nodes=(8, 4), attention_kind=attention.SE1D, attention_position=1)

# Zeros, negatives, bools, floats, strings, None and ints too large to
# allocate (an allocation of them fails at once instead of filling memory).
NOT_SIZES = (0, -1, -(2**40), True, False, 2.5, 3.0, "3", None, 2**62, 10**30)

# Header slot (a config key, "dims" or "seed") -> values no model is built
# from there (SE2D has SE1D's weights but needs a 2D input). A list slot
# gets the value in place of one entry or of the whole list.
BAD_VALUES = {
    ("config", "conv_channels"): NOT_SIZES,
    ("config", "conv_kernels"): NOT_SIZES + (2, 4),
    ("config", "pool_size"): NOT_SIZES,
    ("config", "dnn_nodes"): NOT_SIZES,
    ("config", "reduction_ratio"): NOT_SIZES,
    ("config", "num_classes"): NOT_SIZES + (1, 3),
    ("config", "attention_position"): NOT_SIZES,
    ("config", "attention_kind"): NOT_SIZES + ("SE2D",),
    ("config", "fusion_mode"): NOT_SIZES,
    ("config", "name"): (0, True, 2.5, None, 2**62),
    ("dims",): NOT_SIZES,
    ("seed",): (-1, -(2**40), True, False, 2.5, 3.0, "3", None),
}


@st.composite
def bad_header(draw, header: dict):
    """``header`` with one config, dims or seed value replaced."""
    header = copy.deepcopy(header)
    slot = draw(st.sampled_from(sorted(BAD_VALUES)))
    owner = header["config"] if slot[0] == "config" else header
    value = draw(st.sampled_from(BAD_VALUES[slot]))
    if isinstance(owner[slot[-1]], list) and draw(st.booleans()):
        entries = owner[slot[-1]]
        entries[draw(st.integers(0, len(entries) - 1))] = value
    else:
        owner[slot[-1]] = value
    return header


@settings(max_examples=80, deadline=None)
@given(draw=st.data())
def test_score_with_unbuildable_checkpoint_header(trained, draw):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, out = os.path.join(tmp, "bad.ckpt"), os.path.join(tmp, "x.scores")
        models.save_checkpoint(models.Model(FUZZ_CONFIG, (4, 4, 3), seed=0), ckpt)
        with open(ckpt, "rb") as fh:
            header, blob = fh.read().split(b"\n", 1)
        header = draw.draw(bad_header(json.loads(header)))
        with open(ckpt, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + blob)
        code, stderr = _run(["score", "--checkpoint", ckpt,
                             "--embeddings", os.path.join(trained, "embeddings.tsv"),
                             "--protocol", os.path.join(trained, "eval.protocol"),
                             "--out", out])
        assert 2 <= code <= 5, stderr
        _check_outcome(code, stderr, ckpt, [out])
