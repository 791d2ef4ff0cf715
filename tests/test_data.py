import numpy as np
import pytest

from sasvbackend import cli, data, fusion, metrics, models, training
from sasvbackend.data import (
    EmbeddingStore,
    Protocol,
    SynthConfig,
    Trial,
    generate_synthetic,
    load_embeddings,
    parse_protocol,
    save_embeddings,
    compile_trials,
    save_protocol,
)


class TestEmbeddingStore:
    def test_add_and_fetch(self, rng):
        store = EmbeddingStore(4, 3)
        spk, cm = rng.normal(size=4), rng.normal(size=3)
        store.add("u1", spk=spk, cm=cm)
        np.testing.assert_array_equal(store.spk("u1"), spk)
        np.testing.assert_array_equal(store.cm("u1"), cm)

    def test_dim_mismatch_rejected(self):
        store = EmbeddingStore(4, 3)
        with pytest.raises(ValueError, match="shape"):
            store.add("u1", spk=np.ones(5))

    def test_duplicate_kind_rejected(self):
        store = EmbeddingStore(2, 2)
        store.add("u1", spk=np.ones(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("u1", spk=np.ones(2))
        store.add("u1", cm=np.ones(2))  # other kind still fine

    def test_missing_id_has_clear_message(self):
        store = EmbeddingStore(2, 2)
        with pytest.raises(KeyError, match="no speaker embedding"):
            store.spk("ghost")

    def test_non_finite_rejected(self):
        store = EmbeddingStore(2, 2)
        with pytest.raises(ValueError, match="finite"):
            store.add("u1", spk=np.array([1.0, np.nan]))


class TestEmbeddingFiles:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        store = EmbeddingStore(6, 4)
        for i in range(10):
            store.add(f"utt{i}", spk=rng.normal(size=6), cm=rng.normal(size=4))
        path = tmp_path / "emb.tsv"
        save_embeddings(store, str(path))
        loaded = load_embeddings(str(path))
        assert loaded.d_spk == 6 and loaded.d_cm == 4
        for i in range(10):
            assert np.array_equal(loaded.spk(f"utt{i}"), store.spk(f"utt{i}"))
            assert np.array_equal(loaded.cm(f"utt{i}"), store.cm(f"utt{i}"))

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v1 d_spk=8 d_cm=5\n")
        store = load_embeddings(str(path))
        assert len(store) == 0
        assert store.d_spk == 8

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v2 d_spk=8\n")
        with pytest.raises(ValueError, match=":1:"):
            load_embeddings(str(path))

    def test_malformed_record_cites_line_7(self, tmp_path):
        lines = ["#EMB v1 d_spk=2 d_cm=2"]
        for i in range(5):
            lines.append(f"u{i}\tspk\t1.0,2.0")
        lines.append("u9\tspk\tnot,floats")
        path = tmp_path / "emb.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":7:"):
            load_embeddings(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v1 d_spk=2 d_cm=2\nu1\tivector\t1.0,2.0\n")
        with pytest.raises(ValueError, match="ivector"):
            load_embeddings(str(path))

    def test_duplicate_id_cites_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "#EMB v1 d_spk=2 d_cm=2\nu1\tspk\t1.0,2.0\nu1\tspk\t3.0,4.0\n"
        )
        with pytest.raises(ValueError, match=":3:.*duplicate"):
            load_embeddings(str(path))

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v1 d_spk=2 d_cm=2\n# seed=1 config=abc\nu1\tspk\t1.0,2.0\n")
        assert len(load_embeddings(str(path))) == 1


class TestLineReader:
    """One reader serves every text format: UTF-8, blank and # lines skipped,
    errors prefixed with path:line."""

    FORMATS = {
        "embeddings": ("#EMB v1 d_spk=2 d_cm=2\nu1\tspk\t1.0,2.0\n", data.load_embeddings),
        "protocol": ("u1\tu9\ttarget\nu2\tu8\tspoof\n", parse_protocol),
        "scores": ("t0\t0.5\nt1\t0.25\n", metrics.read_score_file),
        "run file": ("model=CNN1D\nepochs=3\n", cli.ExperimentConfig.parse),
    }

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_non_utf8_byte_cites_file_and_line(self, tmp_path, fmt):
        text, read = self.FORMATS[fmt]
        path = tmp_path / "input"
        path.write_bytes(text.encode() + b"# seed=1\n\nx\xffy\n")
        with pytest.raises(ValueError) as err:
            read(str(path))
        lineno = text.count("\n") + 3
        assert str(err.value).startswith(f"{path}:{lineno}: 'utf-8' codec can't decode")

    def test_crlf_lines_read_like_lf(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_bytes(b"# seed=1\r\nu1,u2\tu9\ttarget\r\n\r\nu3\tu8\tspoof\r\n")
        assert parse_protocol(str(path)).trials == [
            Trial(("u1", "u2"), "u9", "target"), Trial(("u3",), "u8", "spoof")]

    def test_indented_comment_is_a_comment_only_in_run_files(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_text("u1\tu9\ttarget\n  # note\n")
        with pytest.raises(ValueError, match=f"^{path}:2: expected 3 tab-separated fields$"):
            parse_protocol(str(path))

    def test_header_is_line_one_even_though_it_starts_with_hash(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v1 d_spk=0 d_cm=2\n")
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:1: embedding dims must be positive, got 0, 2"

    def test_empty_embeddings_file_has_a_bad_header(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_bytes(b"")
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:1: bad embedding header ''"

    def test_non_ascii_ids_round_trip(self, tmp_path):
        store = EmbeddingStore(2, 2)
        store.add("spk\u00e9-utt\u4e00", spk=np.ones(2), cm=np.zeros(2))
        path = tmp_path / "emb.tsv"
        save_embeddings(store, str(path))
        assert "spk\u00e9-utt\u4e00".encode("utf-8") in path.read_bytes()
        assert np.array_equal(load_embeddings(str(path)).cm("spk\u00e9-utt\u4e00"), np.zeros(2))


class TestProtocolFiles:
    def test_single_enrollment(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_text("u1\tu9\ttarget\n")
        protocol = parse_protocol(str(path))
        assert protocol.trials == [Trial(("u1",), "u9", "target")]

    def test_multi_enrollment_split_on_commas(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_text("u1,u2,u3\tu9\tspoof\n")
        trial = parse_protocol(str(path)).trials[0]
        assert trial.enroll_ids == ("u1", "u2", "u3")
        assert trial.label == "spoof"

    def test_ten_line_fixture_structural_match(self, tmp_path):
        lines, expected = [], []
        for i in range(10):
            label = ("target", "nontarget", "spoof")[i % 3]
            enroll = tuple(f"e{i}_{j}" for j in range(1 + i % 2))
            lines.append(f"{','.join(enroll)}\tt{i}\t{label}")
            expected.append(Trial(enroll, f"t{i}", label))
        path = tmp_path / "p.protocol"
        path.write_text("\n".join(lines) + "\n")
        assert parse_protocol(str(path)).trials == expected

    def test_unknown_label_named_in_error(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_text("u1\tu9\tbonafide\n")
        with pytest.raises(ValueError, match="bonafide"):
            parse_protocol(str(path))

    def test_round_trip(self, tmp_path):
        protocol = Protocol(
            [Trial(("a", "b"), "x", "target"), Trial(("c",), "y", "spoof")], "eval"
        )
        path = tmp_path / "p.protocol"
        save_protocol(protocol, str(path), comments=("seed=0 config=abc",))
        loaded = parse_protocol(str(path))
        assert loaded.trials == protocol.trials

    def test_empty_test_id_cites_file_and_line(self, tmp_path):
        path = tmp_path / "p.protocol"
        path.write_text("u1\tu9\ttarget\nu2\t\tspoof\n")
        with pytest.raises(ValueError) as err:
            parse_protocol(str(path))
        assert str(err.value) == f"{path}:2: trial needs enrollment ids and a test id"

    def test_trial_ids_are_stable(self):
        protocol = Protocol([Trial(("a",), "x", "target")] , "eval")
        assert protocol.trial_ids() == ["t000000"]


class TestTrialEmbeddings:
    def test_enrollment_average(self, rng):
        store = EmbeddingStore(3, 2)
        e1, e2 = rng.normal(size=3), rng.normal(size=3)
        store.add("e1", spk=e1)
        store.add("e2", spk=e2)
        store.add("t", spk=rng.normal(size=3), cm=rng.normal(size=2))
        rows = compile_trials(store, [Trial(("e1", "e2"), "t", "target")])
        fused = fusion.fuse_batch(store, rows, fusion.CONCAT)
        np.testing.assert_allclose(fused[0, :3], (e1 + e2) / 2)


class TestGenerator:
    def test_determinism(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            store, protocols = generate_synthetic(SynthConfig(seed=11))
            emb = tmp_path / f"{tag}.tsv"
            save_embeddings(store, str(emb))
            proto = tmp_path / f"{tag}.protocol"
            save_protocol(protocols["eval"], str(proto))
            blobs.append(emb.read_bytes() + proto.read_bytes())
        assert blobs[0] == blobs[1]

    def test_label_counts_match_config(self):
        cfg = SynthConfig(
            train_trials_per_label=17, dev_trials_per_label=5,
            eval_trials_per_label=9, seed=2,
        )
        _, protocols = generate_synthetic(cfg)
        for part, expected in (("train", 17), ("dev", 5), ("eval", 9)):
            labels = protocols[part].labels()
            for label in data.LABELS:
                assert labels.count(label) == expected

    def test_partitions_have_disjoint_speakers(self):
        _, protocols = generate_synthetic(SynthConfig(seed=3))
        def speakers(protocol):
            out = set()
            for t in protocol.trials:
                for u in t.enroll_ids + (t.test_id,):
                    out.add(u.rsplit("-", 1)[0])
            return out
        train = speakers(protocols["train"])
        dev = speakers(protocols["dev"])
        ev = speakers(protocols["eval"])
        assert not (train & dev) and not (train & ev) and not (dev & ev)

    def test_every_trial_resolvable(self):
        store, protocols = generate_synthetic(SynthConfig(seed=4))
        for protocol in protocols.values():
            rows = compile_trials(store, protocol.trials)
            assert len(rows) == len(protocol)
            assert np.all(rows.count == [len(t.enroll_ids) for t in protocol.trials])

    def test_single_utterance_config_rejected(self):
        with pytest.raises(ValueError, match="utterances_per_speaker"):
            generate_synthetic(SynthConfig(utterances_per_speaker=1))

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            SynthConfig(sigma_within=0.0)

    def test_indistinguishable_spoofs_pin_spf_near_chance(self):
        """With spoof_shift=0 and spoof_spk_noise=0 spoofed trials are drawn
        from the target distribution, so a trained model's SPF-EER sits at
        chance."""
        cfg = SynthConfig(
            train_speakers=12, dev_speakers=2, eval_speakers=8,
            utterances_per_speaker=6, d_spk=8, d_cm=6,
            sigma_within=0.08, sigma_between=1.2,
            spoof_shift=0.0, spoof_spk_noise=0.0,
            train_trials_per_label=80, dev_trials_per_label=5,
            eval_trials_per_label=400, seed=6,
        )
        store, protocols = generate_synthetic(cfg)
        model = models.build("Extend512_DNN", (8, 8, 6), seed=6)
        tc = training.TrainConfig(batch_size=64, epochs=10, seed=6)
        training.fit(model, protocols["train"].trials, tc, store)
        report = training.evaluate_trials(model, protocols["eval"].trials, store)
        assert report.spf_eer == pytest.approx(50.0, abs=5.0)

    def test_easy_geometry_reaches_sub_percent_eers(self):
        """Vanishing within-speaker spread plus a large CM shift is learnable
        to < 1% on all three metrics across seeds."""
        for seed in (1, 2, 3):
            cfg = SynthConfig(
                train_speakers=20, dev_speakers=2, eval_speakers=10,
                utterances_per_speaker=6, d_spk=16, d_cm=12,
                sigma_within=1e-3, sigma_between=1.5,
                spoof_shift=2.0, spoof_spk_noise=0.02,
                train_trials_per_label=80, dev_trials_per_label=5,
                eval_trials_per_label=300, seed=seed,
            )
            store, protocols = generate_synthetic(cfg)
            model = models.build("CNN1D", (16, 16, 12), seed=seed)
            tc = training.TrainConfig(batch_size=80, epochs=10, seed=seed)
            training.fit(model, protocols["train"].trials, tc, store)
            report = training.evaluate_trials(model, protocols["eval"].trials, store)
            assert report.sasv_eer < 1.0
            assert report.spf_eer < 1.0
            assert report.sv_eer < 1.0
