import json
import tracemalloc

import numpy as np
import pytest

from sasvbackend import attention as att
from sasvbackend import data, fusion, metrics, models, oracles, training
from sasvbackend import tensor as T
from sasvbackend.models import ModelConfig, PRESETS, build

from block_reference import reference_block

CHALLENGE_DIMS = (192, 192, 160)
DESK_DIMS = (16, 16, 12)

# frozen on the first verified build; parameter count is a pure function of
# config and input dims
GOLDEN_PARAM_COUNTS = {
    CHALLENGE_DIMS: {
        "Extend512_DNN": 451650,
        "Extend1024_DNN": 1255490,
        "CNN1D": 799234,
        "CNN1D_SE": 800258,
        "CNN1D_PA": 809474,
        "CNN2D": 17209666,
        "CNN2D_SE": 17213762,
        "CNN2D_VSE": 17215810,
    },
    DESK_DIMS: {
        "Extend512_DNN": 195650,
        "Extend1024_DNN": 743490,
        "CNN1D": 799234,
        "CNN1D_SE": 800258,
        "CNN1D_PA": 800322,
        "CNN2D": 17209666,
        "CNN2D_SE": 17213762,
        "CNN2D_VSE": 17215810,
    },
}


def random_trial_batch(rng, n, mode, dims=DESK_DIMS):
    d, _, q = dims
    store = data.EmbeddingStore(d, q)
    trials = []
    for i in range(n):
        store.add(f"e{i}", spk=rng.normal(size=d))
        store.add(f"t{i}", spk=rng.normal(size=d), cm=rng.normal(size=q))
        trials.append(data.Trial((f"e{i}",), f"t{i}", "target"))
    return fusion.fuse_batch(store, data.compile_trials(store, trials), mode)


class TestPresetFidelity:
    """Golden-config check: layer widths, kernels, pool, attention placement
    and reduction ratio of all eight presets."""

    def test_dnn_presets(self):
        small = PRESETS["Extend512_DNN"]
        assert small.fusion_mode == fusion.CONCAT
        assert small.dnn_nodes == (512, 256, 128, 64)
        assert small.conv_channels == ()
        big = PRESETS["Extend1024_DNN"]
        assert big.dnn_nodes == (1024, 512, 256, 128, 64)

    @pytest.mark.parametrize("name", ["CNN1D", "CNN1D_SE", "CNN1D_PA"])
    def test_cnn1d_family(self, name):
        cfg = PRESETS[name]
        assert cfg.fusion_mode == fusion.STACK1D
        assert cfg.conv_channels == (256, 128, 64)
        assert cfg.conv_kernels == (3, 3, 3)
        assert cfg.pool_size == (16,)
        assert cfg.dnn_nodes == (512, 256, 64)

    @pytest.mark.parametrize("name", ["CNN2D", "CNN2D_SE", "CNN2D_VSE"])
    def test_cnn2d_family(self, name):
        cfg = PRESETS[name]
        assert cfg.fusion_mode == fusion.CIRC2D
        assert cfg.conv_channels == (32, 64, 128, 256)
        assert cfg.conv_kernels == (5, 3, 3, 3)
        assert cfg.pool_size == (16, 16)
        assert cfg.dnn_nodes == (256, 128, 64)

    @pytest.mark.parametrize(
        "name,kind",
        [("CNN1D_SE", att.SE1D), ("CNN1D_PA", att.PA),
         ("CNN2D_SE", att.SE2D), ("CNN2D_VSE", att.VSE)],
    )
    def test_attention_after_third_conv_with_ratio_8(self, name, kind):
        cfg = PRESETS[name]
        assert cfg.attention_kind == kind
        assert cfg.attention_position == 2
        assert cfg.reduction_ratio == 8

    @pytest.mark.parametrize("name", ["Extend512_DNN", "Extend1024_DNN", "CNN1D", "CNN2D"])
    def test_plain_presets_have_no_attention(self, name):
        assert PRESETS[name].attention_kind is None

    def test_all_presets_emit_two_classes(self):
        assert all(cfg.num_classes == 2 for cfg in PRESETS.values())

    @pytest.mark.parametrize("dims", [CHALLENGE_DIMS, DESK_DIMS])
    def test_parameter_counts_are_golden(self, dims):
        for name, expected in GOLDEN_PARAM_COUNTS[dims].items():
            assert sum(p.size for p in build(name, dims, seed=0).params.values()) == expected


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build("CNN1D_PA", DESK_DIMS, seed=42)
        b = build("CNN1D_PA", DESK_DIMS, seed=42)
        for (name_a, pa), (name_b, pb) in zip(a.params.items(), b.params.items()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build("CNN1D", DESK_DIMS, seed=0)
        b = build("CNN1D", DESK_DIMS, seed=1)
        assert not np.array_equal(a.params["conv0.w"].data, b.params["conv0.w"].data)

    def test_conv_stack_shapes(self):
        model = build("CNN1D", DESK_DIMS, seed=0)
        assert model.params["conv0.w"].shape == (256, 3, 3)
        assert model.params["conv1.w"].shape == (128, 256, 3)
        assert model.params["conv2.w"].shape == (64, 128, 3)

    def test_cnn2d_conv_shapes(self):
        model = build("CNN2D", DESK_DIMS, seed=0)
        assert model.params["conv0.w"].shape == (32, 3, 5, 5)
        assert model.params["conv3.w"].shape == (256, 128, 3, 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build("CNN3D", DESK_DIMS, seed=0)

    @pytest.mark.parametrize("name, pool", [("CNN1D", r"\(16,\)"), ("CNN2D", r"\(16, 16\)")])
    def test_pool_exceeding_post_conv_size(self, name, pool):
        with pytest.raises(ValueError, match=f"pool size {pool} exceeds the post-conv size 8"):
            build(name, (8, 8, 8), seed=0)

    def test_custom_config_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            ModelConfig(
                name="bad", fusion_mode=fusion.STACK1D,
                conv_channels=(8, 8), conv_kernels=(3,),
                pool_size=(4,), dnn_nodes=(8,),
            )
        with pytest.raises(ValueError, match="position"):
            ModelConfig(
                name="bad", fusion_mode=fusion.STACK1D,
                conv_channels=(8,), conv_kernels=(3,), pool_size=(4,),
                dnn_nodes=(8,), attention_kind=att.SE1D, attention_position=3,
            )


class TestForward:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_logit_shape(self, rng, name):
        model = build(name, DESK_DIMS, seed=0)
        batch = random_trial_batch(rng, 4, model.config.fusion_mode)
        logits = model.forward(batch)
        assert logits.shape == (4, 2)
        assert np.all(np.isfinite(logits.data))

    def test_eval_mode_deterministic(self, rng):
        model = build("CNN1D_SE", DESK_DIMS, seed=0)
        batch = random_trial_batch(rng, 3, fusion.STACK1D)
        one = model.forward(batch).data
        two = model.forward(batch).data
        assert np.array_equal(one, two)

    def test_training_is_an_argument_not_a_mode(self, rng):
        """The model holds no mode: an eval forward reads the running stats
        and changes nothing, a training forward normalizes with the batch
        moments and moves the running stats."""
        model = build("CNN1D_SE", DESK_DIMS, seed=4)
        assert not [a for a in ("training", "train", "eval", "score_batch", "named_parameters")
                    if hasattr(model, a)]
        batch = random_trial_batch(rng, 3, fusion.STACK1D)

        def stats():
            return [(st.mean.tobytes(), st.var.tobytes()) for st in model.bn_stats.values()]

        before = stats()
        scored = model.forward(batch).data.tobytes()
        assert stats() == before
        trained = model.forward(batch, training=True).data.tobytes()
        assert trained != scored and stats() != before
        moved = stats()
        assert model.forward(batch).data.tobytes() != scored and stats() == moved

    def test_batch_independence_in_eval(self, rng):
        model = build("CNN2D_SE", DESK_DIMS, seed=1)
        batch = random_trial_batch(rng, 5, fusion.CIRC2D)
        full = model.forward(batch).data
        stacked = np.concatenate(
            [model.forward(batch[i : i + 1]).data for i in range(5)]
        )
        np.testing.assert_allclose(full, stacked, atol=1e-9)

    @pytest.mark.parametrize("name, mode", [
        ("CNN1D", fusion.CONCAT), ("CNN1D", fusion.CIRC2D), ("CNN2D", fusion.STACK1D),
        ("Extend512_DNN", fusion.STACK1D),
    ])
    def test_wrong_rank_batch_rejected(self, rng, name, mode):
        model = build(name, DESK_DIMS, seed=0)
        batch = random_trial_batch(rng, 2, mode)
        with pytest.raises(T.DimensionError):
            model.forward(batch)

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_features_give_one_head_row_per_trial(self, rng, name):
        model = build(name, DESK_DIMS, seed=0)
        batch = random_trial_batch(rng, 3, model.config.fusion_mode)
        rows = model.features(batch)
        assert rows.shape == (3, model.params["fc0.w"].shape[0])
        assert model.head(rows).data.tobytes() == model.forward(batch).data.tobytes()

    def test_attention_ablation_matches_plain_cnn(self, rng):
        """CNN1D_SE with its SE gate saturated to 1 reproduces CNN1D given
        identical shared weights."""
        plain = build("CNN1D", DESK_DIMS, seed=3)
        gated = build("CNN1D_SE", DESK_DIMS, seed=3)
        for name, p in plain.params.items():
            gated.params[name].data = p.data.copy()
        wa = gated.params["att.wa"]
        wb = gated.params["att.wb"]
        wa.data[:] = 0.0
        wa.data[:, 0] = 1e8
        wa.data[:, 1] = -1e8
        wb.data[:] = 0.0
        wb.data[0, :] = 1e8
        wb.data[1, :] = 1e8
        batch = random_trial_batch(rng, 4, fusion.STACK1D)
        np.testing.assert_allclose(
            gated.forward(batch).data,
            plain.forward(batch).data,
            atol=1e-9,
        )


CNN_PRESETS = [name for name, cfg in PRESETS.items() if cfg.conv_channels]


class TestFusedConvBlocks:
    """``Model.forward`` runs each conv block as one ``tensor.conv_block``;
    training and scoring must give the bytes of the same forward with every
    block swapped for the whole-array reference
    (``block_reference.reference_block``)."""

    @staticmethod
    def _step(model, forward, batch, labels):
        """Logits, parameter gradients and running stats of one recorded step."""
        model.zero_grads()
        with T.recording() as tape:
            logits = forward(batch, training=True)
            loss = training.weighted_cross_entropy(logits, labels, (0.5, 0.5))
        tape.backward(loss)
        stats = {k: (st.mean.tobytes(), st.var.tobytes()) for k, st in model.bn_stats.items()}
        return logits.data.tobytes(), {n: p.grad for n, p in model.params.items()}, stats

    @pytest.mark.parametrize("name", CNN_PRESETS)
    def test_training_and_scoring_match_unfused_ops(self, rng, monkeypatch, name):
        model = build(name, DESK_DIMS, seed=2)
        mode, fused = model.config.fusion_mode, model.forward

        def reference(batch, training=False):
            with monkeypatch.context() as patch:
                patch.setattr(T, "conv_block", reference_block)
                return model.forward(batch, training)

        labels = np.array([0, 1, 1, 0])
        for step in range(2):
            batch = random_trial_batch(rng, 4, mode)
            before = {k: (st.mean, st.var) for k, st in model.bn_stats.items()}
            want = self._step(model, reference, batch, labels)
            for k, st in model.bn_stats.items():  # undo the reference step's update
                st.mean, st.var = before[k]
            got = self._step(model, fused, batch, labels)
            assert got[0] == want[0], f"step {step}: logits differ"
            # Same bytes, compared through an integer view instead of a copy.
            differ = [n for n, g in want[1].items()
                      if not np.array_equal(got[1][n].view(np.int64), g.view(np.int64))]
            assert differ == [], f"step {step}: gradients differ"
            assert got[2] == want[2], f"step {step}: running stats differ"
            for p in model.params.values():
                p.data -= 0.05 * p.grad
        batch = random_trial_batch(rng, 5, mode)
        assert fused(batch).data.tobytes() == reference(batch).data.tobytes()


class TestTrainingStepMemory:
    def test_cnn1d_se_step_peak(self, rng):
        """One CNN1D_SE training step at dims (64, 64, 48) and batch 90,
        after a first step has made Adam's moments, rises above its start
        by less than 4.5 outputs of the first block (90 x 256 x 64 float64,
        11.25 MiB): 3.7 with item chunks of ``tensor._PIECE_BUDGET`` and dW
        runs sized by the output gradient, 5.7 where either could take the
        whole 64 MB ``_COLS_BUDGET``, as the 256->128 block's 35 MB im2col
        matrix then did in its forward and again in its dW."""
        dims = (64, 64, 48)
        model = build("CNN1D_SE", dims, seed=4)
        optimizer = training.Adam(model.params.items())
        batch = random_trial_batch(rng, 90, model.config.fusion_mode, dims)
        labels = np.resize([0, 1, 1, 0, 1, 0], 90)
        unit = 90 * 256 * 64 * 8

        def step():
            with T.recording() as tape:
                logits = model.forward(batch, training=True)
                loss = training.weighted_cross_entropy(logits, labels, (0.1, 0.9))
            optimizer.step(1e-3, 1e-4, tape, loss)

        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / unit < 4.5


class TestScoring:
    def test_equal_logits_give_half(self):
        assert models.softmax_scores(np.array([[0.0, 0.0]]))[0] == 0.5

    def test_strong_logits_saturate(self):
        assert models.softmax_scores(np.array([[-50.0, 50.0]]))[0] == pytest.approx(1.0)

    def test_matches_exp_normalize_oracle(self, rng):
        logits = rng.uniform(-30, 30, (100, 2))
        np.testing.assert_allclose(
            models.softmax_scores(logits), oracles.softmax_prob1_loop(logits), atol=1e-12
        )

    def test_eer_invariant_probability_vs_logit_difference(self, rng):
        """Scoring by softmax probability or by raw logit difference gives
        the same EER (monotone transform)."""
        model = build("Extend512_DNN", DESK_DIMS, seed=0)
        labels = ["target"] * 30 + ["nontarget"] * 20 + ["spoof"] * 10
        batch = random_trial_batch(rng, len(labels), fusion.CONCAT)
        logits = model.forward(batch).data
        probs = models.softmax_scores(logits)
        diffs = logits[:, 1] - logits[:, 0]
        ids = [f"t{i}" for i in range(len(labels))]
        by_prob = metrics.evaluate(metrics.ScoreSet(ids, probs, labels))
        by_diff = metrics.evaluate(metrics.ScoreSet(ids, diffs, labels))
        assert by_prob.sasv_eer == pytest.approx(by_diff.sasv_eer, abs=1e-9)
        assert by_prob.sv_eer == pytest.approx(by_diff.sv_eer, abs=1e-9)


class TestCheckpoint:
    def test_round_trip_preserves_scores(self, rng, tmp_path):
        model = build("CNN1D_SE", DESK_DIMS, seed=5)
        batch = random_trial_batch(rng, 3, fusion.STACK1D)
        expected = models.softmax_scores(model.forward(batch).data)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(model, str(path))
        loaded = models.load_checkpoint(str(path))
        assert loaded.config == model.config
        np.testing.assert_array_equal(models.softmax_scores(loaded.forward(batch).data), expected)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        a_path, b_path = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        models.save_checkpoint(build("Extend512_DNN", DESK_DIMS, seed=9), str(a_path))
        models.save_checkpoint(build("Extend512_DNN", DESK_DIMS, seed=9), str(b_path))
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a"):
            models.load_checkpoint(str(path))

    def test_round_trip_is_byte_identical(self, tmp_path):
        model = build("CNN1D_PA", DESK_DIMS, seed=4)
        model.bn_stats["bn1"].mean += 0.25
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(model, str(path))
        loaded = models.load_checkpoint(str(path))
        want, got = model._state(), loaded._state()
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)

    @pytest.mark.parametrize("name", ["CNN2D_SE", "CNN1D_PA", "Extend512_DNN"])
    def test_load_skips_the_random_init(self, tmp_path, monkeypatch, name):
        model = build(name, DESK_DIMS, seed=3)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(model, str(path))

        def no_draw(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a random init")

        def uninitialised_only(rng, shape, fan_in):
            if rng is not None:
                no_draw()
            return init_weight(rng, shape, fan_in)

        init_weight = T.init_weight
        monkeypatch.setattr(T, "init_weight", uninitialised_only)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = models.load_checkpoint(str(path))
        want, got = model._state(), loaded._state()
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)

    def test_trailing_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(build("Extend512_DNN", DESK_DIMS, seed=0), str(path))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="size mismatch"):
            models.load_checkpoint(str(path))

    # (header field, value, message): configs, dims and seeds that no conv
    # block or head can build, each of which once built something or crashed.
    BAD_HEADERS = [
        ("dnn_nodes", [], "at least one DNN layer is required"),
        ("dnn_nodes", [0], "dnn_nodes must be positive integers"),
        ("dnn_nodes", [True, 256, 64], "dnn_nodes must be positive integers"),
        ("conv_channels", [0, 128, 64], "conv_channels must be positive integers"),
        ("conv_channels", [-4, 128, 64], "conv_channels must be positive integers"),
        ("conv_kernels", [4, 3, 3], "conv_kernels must be odd"),
        ("conv_kernels", [3.0, 3, 3], "conv_kernels must be positive integers"),
        ("pool_size", [0], "pool_size must be positive integers"),
        ("pool_size", [16, 16], "needs some conv layers and a pool size of 1 axes"),
        ("reduction_ratio", 0, "reduction_ratio must be positive integers"),
        ("num_classes", 1, "num_classes must be 2"),
        ("attention_position", 2.0, "attention position 2.0 is not a valid conv layer index"),
        ("attention_position", True, "attention position True is not a valid"),
        ("attention_kind", None, "given without an attention kind"),
        ("attention_kind", "SE2D", "attention kind SE2D does not fit fusion mode 'stack1d'"),
        ("name", 7, "model name must be a string"),
        ("dims", [16, 16.0, 12], "embedding dims must be three positive integers"),
        ("dims", [16, 16, False], "embedding dims must be three positive integers"),
        ("seed", -1, "seed must be a non-negative integer"),
        ("seed", 1.5, "seed must be a non-negative integer"),
        ("seed", True, "seed must be a non-negative integer"),
    ]

    @pytest.mark.parametrize("key, value, message", BAD_HEADERS,
                             ids=[f"{k}={v!r}" for k, v, _ in BAD_HEADERS])
    def test_unbuildable_header_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(build("CNN1D_SE", DESK_DIMS, seed=0), str(path))
        header, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        (header if key in ("dims", "seed") else header["config"])[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(ValueError) as info:
            models.load_checkpoint(str(path))
        assert str(info.value).startswith(f"{path}: checkpoint config, dims or seed build no model")
        assert message in str(info.value)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(build("Extend512_DNN", DESK_DIMS, seed=0), str(path))
        header, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["version"] = 2
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(ValueError) as info:
            models.load_checkpoint(str(path))
        assert str(info.value) == f"{path}: unsupported checkpoint version 2"

    def test_truncated_payload_rejected(self, tmp_path):
        model = build("Extend512_DNN", DESK_DIMS, seed=0)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="size mismatch"):
            models.load_checkpoint(str(path))


class TestStateArrays:
    def test_load_restores_bytes_with_one_copy(self):
        snap = build("Extend1024_DNN", CHALLENGE_DIMS, seed=1).state_arrays()
        state_bytes = sum(a.nbytes for a in snap.values())
        model = build("Extend1024_DNN", CHALLENGE_DIMS, seed=2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.load_state_arrays(snap)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        got = model._state()
        assert list(got) == list(snap)
        for name, a in snap.items():
            assert got[name].tobytes() == a.tobytes(), name
            assert got[name].flags.c_contiguous, name
            assert not np.shares_memory(got[name], a), name
        assert peak <= state_bytes + 1024 * len(snap)  # one copy, plus the array headers
