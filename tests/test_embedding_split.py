"""load_embeddings split over child processes: the same store and the same
errors as one pass over the file, and no child left behind.

The ``spawned`` fixture sets ``_MIN_PART_BYTES`` to 1 and ``load_split``
sets ``_cpus`` to the number of ranges wanted, so toy files split as a
large file does on that many CPUs."""

import contextlib
import os
import signal
import sys

import numpy as np
import pytest

from sasvbackend import data

KINDS = ("spk", "cm")


def load_split(monkeypatch, path, parts):
    monkeypatch.setattr(data, "_cpus", lambda: parts)
    return data.load_embeddings(str(path))


def load_whole(path):
    return data._load(str(path), 1)[0]


def assert_same(got, want):
    for kind in KINDS:
        assert list(got._rows[kind]) == list(want._rows[kind])
        assert got.matrix(kind).tobytes() == want.matrix(kind).tobytes()


def first_lines(path, parts):
    """The line number each range of a ``parts``-way split starts at."""
    raw = path.read_bytes()
    with open(path, "rb") as fh:
        fh.readline()
        ranges = data._ranges(fh.fileno(), fh.tell(), len(raw), parts)
    return [raw.count(b"\n", 0, a) + 1 for a, _ in ranges]


def payload(vec):
    return ",".join(map(data.format_float, vec))


def rows(n, d_spk=3, d_cm=2, seed=0, blocks=False):
    """A speaker and a CM row for each of n ids: one after the other, or
    all speaker rows first, as ``save_embeddings`` writes them."""
    rng = np.random.default_rng(seed)
    spk = [f"u{i:02d}\tspk\t{payload(rng.normal(size=d_spk))}" for i in range(n)]
    cm = [f"u{i:02d}\tcm\t{payload(rng.normal(size=d_cm))}" for i in range(n)]
    return spk + cm if blocks else [line for pair in zip(spk, cm) for line in pair]


def write(path, lines, newline="\n", header="#EMB v1 d_spk=3 d_cm=2"):
    path.write_bytes(newline.join([header, *lines, ""]).encode("utf-8"))


def steer(path, lines, index, newline="\n"):
    """Write ``lines`` with a padding comment before or after them, so that a
    two-way split starts its second range at ``lines[index]``."""
    for width in range(4 * sum(map(len, lines))):
        for pad_first in (True, False):
            pad = "#" + "x" * width
            write(path, [pad, *lines] if pad_first else [*lines, pad], newline)
            if first_lines(path, 2)[1] == index + 2 + pad_first:  # after the header (and pad)
                return
    raise AssertionError("no padding puts the boundary there")


class TestSplitMatchesOnePass:
    @pytest.mark.parametrize("where", ["comment", "blank", "spk-cm", "crlf"])
    def test_boundary_at(self, tmp_path, monkeypatch, spawned, where):
        lines = rows(12, blocks=True)
        newline = "\r\n" if where == "crlf" else "\n"
        index = 12 if where == "spk-cm" else 9
        if where in ("comment", "blank"):
            lines.insert(index, "# a comment" if where == "comment" else "")
        path = tmp_path / "emb.tsv"
        steer(path, lines, index, newline)
        assert path.read_bytes().count(b"\r\n") == (len(lines) + 2 if where == "crlf" else 0)
        assert_same(load_split(monkeypatch, path, 2), load_whole(path))
        assert len(spawned) == 1 and spawned[0].returncode == 0

    @pytest.mark.parametrize("parts", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_files(self, tmp_path, monkeypatch, spawned, parts, seed):
        rng = np.random.default_rng(seed)
        lines = rows(int(rng.integers(5, 40)), seed=seed)
        lines = [lines[i] for i in rng.permutation(len(lines))]
        for at in sorted(rng.integers(0, len(lines), 6), reverse=True):
            lines.insert(at, str(rng.choice(["", "# note", "#"])))
        path = tmp_path / "emb.tsv"
        write(path, lines, str(rng.choice(["\n", "\r\n"])))
        assert len(first_lines(path, parts)) == parts
        assert_same(load_split(monkeypatch, path, parts), load_whole(path))
        assert len(spawned) == parts - 1
        assert all(p.returncode == 0 for p in spawned)

    def test_file_without_final_newline(self, tmp_path, monkeypatch, spawned):
        path = tmp_path / "emb.tsv"
        write(path, rows(10))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert_same(load_split(monkeypatch, path, 3), load_whole(path))

    def test_small_file_starts_no_child(self, tmp_path, monkeypatch, spawned):
        path = tmp_path / "emb.tsv"
        write(path, rows(10))
        monkeypatch.setattr(data, "_MIN_PART_BYTES", path.stat().st_size)
        assert_same(load_split(monkeypatch, path, 4), load_whole(path))
        assert spawned == []


@pytest.fixture
def parsed_here(monkeypatch):
    """The first line number of every range that this process parses."""
    firsts = []
    real = data._load_range

    def recorded(store, raws, first):
        firsts.append(first)
        return real(store, raws, first)

    monkeypatch.setattr(data, "_load_range", recorded)
    return firsts


def fault_message(path, load):
    with pytest.raises(ValueError) as err:
        load(path)
    return str(err.value)


class TestSplitErrors:
    """Each fault placed in a child's range gives the message and line of
    the one-process loader. Line N holds ``lines[N - 2]``."""

    FAULTS = {
        "malformed": "x\tspk\t0.5,1.5x,2",
        "nan": "x\tcm\tnan,0.5",
        "inf": "x\tspk\t0.5,-inf,1",
        "empty payload": "x\tcm\t",
        "field count": "x\tspk\t0.5\t1",
        "unknown kind": "x\tivector\t0.5,1,2",
        "wrong width": "x\tspk\t0.5,1",
    }

    def split_lines(self, tmp_path, lines, parts=2):
        """The line each further range of ``lines`` starts at."""
        path = tmp_path / "emb.tsv"
        write(path, lines)
        return first_lines(path, parts)[1:]

    def starts(self, tmp_path, parts=2):
        """The line each further range of the file written last starts at."""
        return first_lines(tmp_path / "emb.tsv", parts)[1:]

    def check(self, tmp_path, monkeypatch, lines, parts=2):
        """The file's fault message, which one pass and the split give alike."""
        path = tmp_path / "emb.tsv"
        if isinstance(lines, bytes):
            path.write_bytes(lines)
        else:
            write(path, lines)
        whole = fault_message(path, load_whole)
        assert fault_message(path, lambda p: load_split(monkeypatch, p, parts)) == whole
        return whole

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_in_a_child_range(self, tmp_path, monkeypatch, spawned, fault):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 1] = self.FAULTS[fault]
        message = self.check(tmp_path, monkeypatch, lines)
        assert self.starts(tmp_path)[0] <= at + 3
        assert message.startswith(f"{tmp_path / 'emb.tsv'}:{at + 3}: ")

    def test_non_utf8_line_in_a_child_range(self, tmp_path, monkeypatch, spawned):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        encoded = [line.encode() for line in lines]
        encoded[at + 1] = b"u\xc3\tspk\t1,2,3"
        text = b"\n".join([b"#EMB v1 d_spk=3 d_cm=2", *encoded, b""])
        message = self.check(tmp_path, monkeypatch, text)
        assert self.starts(tmp_path)[0] <= at + 3
        assert message.startswith(f"{tmp_path / 'emb.tsv'}:{at + 3}: 'utf-8' codec can't "
                                  "decode byte 0xc3 in position 1: invalid continuation byte")

    def test_duplicate_inside_a_child_range(self, tmp_path, monkeypatch, spawned):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 4] = lines[at]
        utt_id, kind, _ = lines[at].split("\t")
        message = self.check(tmp_path, monkeypatch, lines)
        assert self.starts(tmp_path)[0] <= at + 2
        name = {"spk": "speaker", "cm": "CM"}[kind]
        assert message == (f"{tmp_path / 'emb.tsv'}:{at + 6}: "
                           f"duplicate {name} embedding for {utt_id!r}")

    @pytest.mark.parametrize("back", [3, 4])  # one of each kind
    def test_duplicate_across_ranges(self, tmp_path, monkeypatch, spawned, back):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 2] = lines[at - 2 - back]
        utt_id, kind, _ = lines[at + 2].split("\t")
        message = self.check(tmp_path, monkeypatch, lines)
        assert at - back < self.starts(tmp_path)[0] <= at + 4
        name = {"spk": "speaker", "cm": "CM"}[kind]
        assert message == (f"{tmp_path / 'emb.tsv'}:{at + 4}: "
                           f"duplicate {name} embedding for {utt_id!r}")

    def test_duplicate_across_ranges_before_the_child_fault(self, tmp_path, monkeypatch,
                                                            spawned):
        """The child stops at its own fault and sends back the rows before it,
        so a cross-range duplicate on an earlier line is found first."""
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 1] = lines[at - 5]
        lines[at + 3] = "x\tcm\t0.5,oops"
        message = self.check(tmp_path, monkeypatch, lines)
        assert at - 3 < self.starts(tmp_path)[0] <= at + 3
        assert message.startswith(f"{tmp_path / 'emb.tsv'}:{at + 3}: duplicate ")

    def test_child_fault_before_a_cross_range_duplicate(self, tmp_path, monkeypatch, spawned):
        """The duplicate is a speaker row after a faulty CM row: the child
        stores it, but must not send it back."""
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        spk = max(i for i in range(at - 4) if "\tspk\t" in lines[i])
        lines[at + 1] = "x\tcm\t0.5,oops"
        lines[at + 3] = lines[spk]
        message = self.check(tmp_path, monkeypatch, lines)
        assert spk + 2 < self.starts(tmp_path)[0] <= at + 3
        assert message == f"{tmp_path / 'emb.tsv'}:{at + 3}: malformed float payload"

    def test_faults_in_two_ranges_name_the_earlier(self, tmp_path, monkeypatch, spawned):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at - 6] = "x\tspk\t1,2,?"
        lines[at + 1] = "x\tbad"
        message = self.check(tmp_path, monkeypatch, lines)
        assert at - 4 < self.starts(tmp_path)[0] <= at + 3
        assert message == f"{tmp_path / 'emb.tsv'}:{at - 4}: malformed float payload"

    def test_faults_in_two_child_ranges_name_the_earlier(self, tmp_path, monkeypatch, spawned):
        lines = rows(30)
        first, second = self.split_lines(tmp_path, lines, 3)
        lines[first + 1] = "x\tcm\tinf,1"
        lines[second + 1] = "x\tcm\t1"
        message = self.check(tmp_path, monkeypatch, lines, parts=3)
        starts = self.starts(tmp_path, 3)
        assert starts[0] <= first + 3 < starts[1] <= second + 3
        assert message == (f"{tmp_path / 'emb.tsv'}:{first + 3}: "
                           "x: cm embedding contains non-finite values")

    def test_a_child_sends_nothing_back_for_a_faulty_range(self, tmp_path, spawned):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 1] = self.FAULTS["malformed"]
        path = tmp_path / "emb.tsv"
        write(path, lines)
        assert self.starts(tmp_path)[0] <= at + 3
        with open(path, "rb") as fh, contextlib.ExitStack() as stack:
            fh.readline()
            _, (a, b) = data._ranges(fh.fileno(), fh.tell(), path.stat().st_size, 2)
            child = data._spawn(stack, fh.fileno(), a, b, data.EmbeddingStore(3, 2))
            assert child.stdout.read() == b""
            assert child.wait() != 0

    def test_a_faulty_range_is_parsed_here(self, tmp_path, monkeypatch, spawned, parsed_here):
        """Of two child ranges, the clean one is merged from its child and
        the faulty one parsed here, with the one-pass message."""
        lines = rows(30)
        first, second = self.split_lines(tmp_path, lines, 3)
        lines[second + 1] = "x\tcm\t1"
        path = tmp_path / "emb.tsv"
        write(path, lines)
        whole = fault_message(path, load_whole)
        starts = self.starts(tmp_path, 3)
        assert starts[0] <= first + 3 < starts[1] <= second + 3
        parsed_here.clear()
        assert fault_message(path, lambda p: load_split(monkeypatch, p, 3)) == whole
        assert parsed_here == [2, starts[1]]
        assert [p.returncode != 0 for p in spawned] == [False, True]

    def test_a_clean_part_with_an_earlier_id_is_parsed_here(self, tmp_path, monkeypatch,
                                                            spawned, parsed_here):
        lines = rows(20)
        at, = self.split_lines(tmp_path, lines)
        lines[at + 2] = lines[at - 6]
        utt_id, kind, _ = lines[at + 2].split("\t")
        path = tmp_path / "emb.tsv"
        write(path, lines)
        start, = self.starts(tmp_path)
        assert at - 4 < start <= at + 4
        name = {"spk": "speaker", "cm": "CM"}[kind]
        assert fault_message(path, lambda p: load_split(monkeypatch, p, 2)) == (
            f"{path}:{at + 4}: duplicate {name} embedding for {utt_id!r}")
        assert parsed_here == [2, start]
        assert spawned[0].returncode == 0

    def test_no_child_outlives_a_fault_in_the_first_range(self, tmp_path, monkeypatch,
                                                          spawned):
        lines = rows(20)
        lines[0] = "u00\tspk\t?"
        self.check(tmp_path, monkeypatch, lines, parts=3)
        assert len(spawned) == 2


REAL_CHILD = data._CHILD


def truncating(cut):
    """A child that runs the real one and writes ``cut(output)``."""
    return ("import subprocess, sys; fd = int(sys.argv[2]); "
            f"out = subprocess.run([sys.executable, '-c', {REAL_CHILD!r}, *sys.argv[1:]], "
            "pass_fds=(fd,), stdout=subprocess.PIPE, check=True).stdout; "
            f"sys.stdout.buffer.write(({cut})(out))")


class TestChildFailures:
    """A range whose child fails is parsed in this process, with the same
    result and never an internal error."""

    CHILDREN = {
        "exits non-zero": "import sys; sys.stderr.write('child noise\\n'); sys.exit(3)",
        "cut in the header": truncating("lambda out: out[:5]"),
        "cut in the rows": truncating("lambda out: out[:-8]"),
        "trailing bytes": truncating("lambda out: out + b'x'"),
        "no output": "pass",
    }

    @pytest.mark.parametrize("child", sorted(CHILDREN))
    def test_failed_child(self, tmp_path, monkeypatch, capfd, spawned, child):
        monkeypatch.setattr(data, "_CHILD", self.CHILDREN[child])
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        assert_same(load_split(monkeypatch, path, 3), load_whole(path))
        assert len(spawned) == 2
        assert capfd.readouterr().err == ""

    def test_a_part_followed_by_more_bytes_is_parsed_here(self, tmp_path, monkeypatch,
                                                          spawned, parsed_here):
        monkeypatch.setattr(data, "_CHILD", self.CHILDREN["trailing bytes"])
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        want = load_whole(path)
        parsed_here.clear()
        assert_same(load_split(monkeypatch, path, 2), want)
        assert parsed_here == first_lines(path, 2)
        assert spawned[0].returncode == 0

    @pytest.mark.parametrize("executable", ["", "/nonexistent/python"])
    def test_child_cannot_start(self, tmp_path, monkeypatch, spawned, executable):
        monkeypatch.setattr(sys, "executable", executable)
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        assert_same(load_split(monkeypatch, path, 2), load_whole(path))
        assert spawned == []

    def test_fault_in_a_failed_child_range(self, tmp_path, monkeypatch, spawned):
        monkeypatch.setattr(data, "_CHILD", "import sys; sys.exit(1)")
        lines = rows(20)
        lines[30] = "u30\tspk\t1,2,x"
        path = tmp_path / "emb.tsv"
        write(path, lines)
        assert fault_message(path, lambda p: load_split(monkeypatch, p, 2)) == \
            f"{path}:32: malformed float payload"

    def test_interrupt_kills_and_waits_every_child(self, tmp_path, monkeypatch, spawned):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(data, "_load_range", interrupted)  # this process's range only
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        with pytest.raises(KeyboardInterrupt):
            load_split(monkeypatch, path, 3)
        assert [p.returncode for p in spawned] == [-signal.SIGKILL] * 2

    def test_child_runs_one_blas_thread(self, tmp_path, monkeypatch, spawned):
        monkeypatch.setattr(data, "_CHILD", "import os, sys; "
                            "sys.exit(os.environ.get('OPENBLAS_NUM_THREADS') != '1')")
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        assert_same(load_split(monkeypatch, path, 2), load_whole(path))
        assert spawned[0].returncode == 0

    def test_child_imports_this_copy_of_the_package(self, tmp_path, monkeypatch, spawned):
        """A decoy package on PYTHONPATH and in the working directory would
        make the child exit 7."""
        decoy = tmp_path / "decoy"
        (decoy / "sasvbackend").mkdir(parents=True)
        (decoy / "sasvbackend" / "__init__.py").write_text("raise SystemExit(7)\n")
        monkeypatch.setenv("PYTHONPATH", str(decoy))
        monkeypatch.chdir(decoy)
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        assert_same(load_split(monkeypatch, path, 2), load_whole(path))
        assert spawned[0].returncode == 0

    def test_child_reads_the_file_that_was_opened(self, tmp_path, monkeypatch, spawned):
        """The file is replaced after it was opened; the children still read
        the opened one."""
        path = tmp_path / "emb.tsv"
        write(path, rows(12))
        want = load_whole(path)
        other = tmp_path / "other.tsv"
        write(other, rows(12, seed=1))
        ranges = data._ranges

        def replace_then_split(*args):
            os.replace(other, path)
            return ranges(*args)

        monkeypatch.setattr(data, "_ranges", replace_then_split)
        assert_same(load_split(monkeypatch, path, 2), want)
        assert spawned[0].returncode == 0


class TestLineStart:
    @pytest.mark.parametrize("text", [b"ab\ncd\r\n\n#x\nlast", b"\n\n\n", b"no newline"])
    def test_every_boundary_is_a_line_start(self, tmp_path, text):
        path = tmp_path / "f"
        path.write_bytes(text)
        starts = {0} | {i + 1 for i, c in enumerate(text) if c == ord("\n")} | {len(text)}
        with open(path, "rb") as fh:
            for at in range(1, len(text) + 1):
                got = data._line_start(fh.fileno(), at, len(text))
                assert got == min(s for s in starts if s >= at)
