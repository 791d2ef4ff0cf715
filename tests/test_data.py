import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def vector(store, kind, utt_id):
    return store.matrix(kind)[store.row(kind, utt_id)]


class TestEmbeddingStore:
    def test_add_and_fetch(self, rng):
        store = EmbeddingStore(4, 3)
        spk, cm = rng.normal(size=4), rng.normal(size=3)
        store.add("u1", spk=spk, cm=cm)
        np.testing.assert_array_equal(vector(store, "spk", "u1"), spk)
        np.testing.assert_array_equal(vector(store, "cm", "u1"), cm)

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
            store.row("spk", "ghost")

    def test_missing_id_names_protocol_line_and_embeddings(self, tmp_path):
        emb, proto = tmp_path / "e.tsv", tmp_path / "p.protocol"
        emb.write_text("#EMB v1 d_spk=1 d_cm=1\nu1\tspk\t0.5\nu1\tcm\t0.5\n")
        proto.write_text("u1\tu1\ttarget\n# comment\n\nu1\tghost\tspoof\n")
        store, protocol = load_embeddings(str(emb)), parse_protocol(str(proto))
        assert protocol.lines == [1, 4]
        with pytest.raises(KeyError) as err:
            compile_trials(store, protocol)
        assert str(err.value) == f"{proto}:4: no speaker embedding stored for 'ghost' in {emb}"
        with pytest.raises(KeyError) as err:  # a plain trial list has no file or line
            compile_trials(store, protocol.trials)
        assert str(err.value) == f"no speaker embedding stored for 'ghost' in {emb}"

    def test_non_finite_rejected(self):
        store = EmbeddingStore(2, 2)
        with pytest.raises(ValueError, match="finite"):
            store.add("u1", spk=np.array([1.0, np.nan]))

    def test_add_rows_stores_nothing_when_a_row_fails(self):
        store = EmbeddingStore(2, 2)
        with pytest.raises(ValueError, match="^duplicate speaker embedding for 'a'$"):
            store.add_rows("spk", ["a", "b", "a"], np.ones((3, 2)))
        with pytest.raises(ValueError, match="^b: spk embedding contains non-finite"):
            store.add_rows("spk", ["a", "b"], np.array([[1.0, 2.0], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="shape"):
            store.add_rows("spk", ["a", "b"], np.ones((1, 2)))
        assert len(store) == 0
        store.add_rows("spk", ["a", "b"], np.arange(4.0).reshape(2, 2))
        np.testing.assert_array_equal(store.matrix("spk"), [[0.0, 1.0], [2.0, 3.0]])


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
            for kind in ("spk", "cm"):
                want = vector(store, kind, f"utt{i}")
                assert np.array_equal(vector(loaded, kind, f"utt{i}"), want)

    def test_row_format_writes_the_per_value_text(self, rng, tmp_path):
        """One ``%.17g`` format per row gives the bytes of ``format_float``
        per value, extremes included."""
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        store = EmbeddingStore(4, 3)
        store.add("edge", spk=extremes, cm=extremes[:3])
        store.add("mixed", spk=rng.normal(size=4) * 10.0 ** rng.integers(-300, 300, 4),
                  cm=[0.0, -5e-324, 1.0])
        path = tmp_path / "emb.tsv"
        save_embeddings(store, str(path), comments=("note",))
        want = ["#EMB v1 d_spk=4 d_cm=3", "# note"] + [
            f"{utt}\t{kind}\t{','.join(map(data.format_float, store.matrix(kind)[i]))}"
            for kind in ("spk", "cm") for i, utt in enumerate(("edge", "mixed"))]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

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

    def test_non_ascii_header_digits_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#EMB v1 d_spk=\u0668 d_cm=5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: bad embedding header"):
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


def _emb_file(path, d_spk, d_cm, rows, extra=()):
    """Write an embedding file with ``rows`` ((utt_id, kind, payload), ...) in
    order and ``extra`` ((index, text), ...) lines inserted before row
    ``index``; returns the line number of every row."""
    lines, linenos = [f"#EMB v1 d_spk={d_spk} d_cm={d_cm}"], []
    inserted = dict(extra)
    for i, (utt_id, kind, payload) in enumerate(rows):
        if i in inserted:
            lines.append(inserted[i])
        lines.append(f"{utt_id}\t{kind}\t{payload}")
        linenos.append(len(lines))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return linenos


def _payload(vec):
    return ",".join(map(data.format_float, vec))


def _interleaved(n_spk, n_cm, d_spk=2, d_cm=2):
    """spk and cm rows, two spk rows to every cm row while both last."""
    spk = [(f"s{i}", "spk", _payload(np.full(d_spk, i + 0.5))) for i in range(n_spk)]
    cm = [(f"c{i}", "cm", _payload(np.full(d_cm, -i - 0.25))) for i in range(n_cm)]
    rows = []
    while spk or cm:
        rows += spk[:2] + cm[:1]
        spk, cm = spk[2:], cm[1:]
    return rows


CHUNK = data._CHUNK_ROWS
SPECIALS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


class TestChunkedLoader:
    """The loader parses each kind in chunks of ``_CHUNK_ROWS`` rows, yet reads
    back every float64 bit for bit and names the first faulty line."""

    @settings(max_examples=12, deadline=None)
    @given(d_spk=st.sampled_from([1, 2, 192]), d_cm=st.sampled_from([1, 2, 192]),
           n_spk=st.integers(CHUNK + 1, 2 * CHUNK + 3), n_cm=st.integers(1, CHUNK + 5),
           seed=st.integers(0, 2**32 - 1), drawn=st.lists(st.floats(allow_nan=False,
                                                                     allow_infinity=False),
                                                           min_size=1, max_size=20))
    def test_round_trip_is_byte_identical(self, tmp_path_factory, d_spk, d_cm, n_spk, n_cm,
                                          seed, drawn):
        rng = np.random.default_rng(seed)
        want = {}
        for kind, n, d in (("spk", n_spk, d_spk), ("cm", n_cm, d_cm)):
            bits = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64, endpoint=False)
            mat = bits.view(np.float64).copy()
            mat[~np.isfinite(mat)] = 0.0
            flat = mat.reshape(-1)
            values = np.array(SPECIALS + tuple(drawn))
            flat[rng.choice(flat.size, size=min(flat.size, len(values)), replace=False)] = \
                values[:flat.size]
            want[kind] = mat
        rows = [(f"u{i}", kind, _payload(want[kind][i]))
                for kind in ("spk", "cm") for i in range(len(want[kind]))]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        extra = [(int(i), "# comment" if i % 2 else "") for i in rng.choice(len(rows), 5)]
        path = tmp_path_factory.mktemp("emb") / "emb.tsv"
        _emb_file(path, d_spk, d_cm, rows, extra)
        store = load_embeddings(str(path))
        for kind in ("spk", "cm"):
            ids = [utt_id for utt_id, k, _ in rows if k == kind]
            order = [int(utt_id[1:]) for utt_id in ids]
            assert list(store._rows[kind]) == ids
            assert store.matrix(kind).tobytes() == want[kind][order].tobytes()

    # positions of a faulty row among its kind's rows: inside the first
    # chunk, inside a later one, and in the last, partial chunk
    POSITIONS = [3, CHUNK + 7, 2 * CHUNK + 1]

    @pytest.mark.parametrize("kind", ["spk", "cm"])
    @pytest.mark.parametrize("pos", POSITIONS)
    @pytest.mark.parametrize("token, message", [
        ("1.5x", "malformed float payload"),
        ("nan", "contains non-finite values"),
        ("inf", "contains non-finite values"),
        ("-inf", "contains non-finite values"),
    ])
    def test_faulty_token_names_its_line(self, tmp_path, kind, pos, token, message):
        rows = _interleaved(2 * CHUNK + 5, 2 * CHUNK + 5)
        index = [i for i, (_, k, _) in enumerate(rows) if k == kind][pos]
        utt_id, _, _ = rows[index]
        rows[index] = (utt_id, kind, f"0.5,{token}")
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows, [(5, "# seed=1"), (CHUNK, "")])[index]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value).startswith(f"{path}:{lineno}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("pos", POSITIONS)
    def test_duplicate_id_names_its_line(self, tmp_path, pos):
        rows = _interleaved(2 * CHUNK + 5, 10)
        index = [i for i, (_, k, _) in enumerate(rows) if k == "spk"][pos]
        rows[index] = ("s1", "spk", rows[index][2])
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows)[index]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:{lineno}: duplicate speaker embedding for 's1'"

    # a second fault after a faulty cm row that waits in its chunk: a spk
    # chunk that fills, and faults that are found as their line is read
    LATER_FAULTS = {
        "spk chunk": ("spk", "0.5,oops"),
        "unknown kind": ("ivector", "0.5,1.5"),
        "empty payload": ("spk", ""),
        "field count": ("spk", "0.5\t1.5"),
    }

    @pytest.mark.parametrize("later", sorted(LATER_FAULTS))
    def test_two_faults_name_the_earlier_line(self, tmp_path, later):
        rows = _interleaved(2 * CHUNK, 2 * CHUNK)
        cm_index = [i for i, (_, k, _) in enumerate(rows) if k == "cm"][2]
        rows[cm_index] = ("c2", "cm", "0.5,1_0")
        spk = [i for i, (_, k, _) in enumerate(rows) if k == "spk"]
        rows[spk[6]] = ("s6", *self.LATER_FAULTS[later])
        assert cm_index < spk[6] < spk[CHUNK - 1] < [i for i, (_, k, _) in enumerate(rows)
                                                      if k == "cm"][CHUNK - 1]
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows)[cm_index]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:{lineno}: malformed float payload"

    @pytest.mark.parametrize("first", ["spk", "cm"])
    def test_faults_pending_in_both_kinds_name_the_earlier_line(self, tmp_path, first):
        rows = _interleaved(40, 20)
        at = {kind: [i for i, (_, k, _) in enumerate(rows) if k == kind] for kind in ("spk", "cm")}
        second = "cm" if first == "spk" else "spk"
        faulty = [at[first][4], next(i for i in at[second] if i > at[first][4])]
        for index in faulty:
            rows[index] = (rows[index][0], rows[index][1], "0.5,?")
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows)[faulty[0]]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:{lineno}: malformed float payload"

    def test_non_utf8_line_after_a_pending_fault_names_the_fault(self, tmp_path):
        rows = _interleaved(20, 20)
        rows[4] = (rows[4][0], rows[4][1], "0.5,1.0,2.0")
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows)[4]
        path.write_bytes(path.read_bytes() + b"x\xff\tspk\t1,2\n")
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value).startswith(f"{path}:{lineno}: ")
        assert "has shape (3,), expected (2,)" in str(err.value)

    def test_empty_payload_at_width_one_names_its_line(self, tmp_path):
        rows = [(f"u{i}", "spk", "0.5") for i in range(10)]
        rows[6] = ("u6", "spk", "")
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 1, 1, rows)[6]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:{lineno}: malformed float payload"

    # float() reads these; the file format holds ASCII decimal floats only
    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\u0661.5"])
    def test_python_only_float_spellings_are_malformed(self, tmp_path, token):
        assert np.isfinite(float(token))
        rows = [(f"u{i}", "cm", "0.5,0.25") for i in range(8)]
        rows[5] = ("u5", "cm", f"0.5,{token}")
        path = tmp_path / "emb.tsv"
        lineno = _emb_file(path, 2, 2, rows)[5]
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == f"{path}:{lineno}: malformed float payload"


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
        loaded = load_embeddings(str(path))
        assert np.array_equal(vector(loaded, "cm", "spk\u00e9-utt\u4e00"), np.zeros(2))


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
