"""Embedding storage, trial protocols, and the synthetic workload generator.

Every text input (embeddings, protocols, score files, run files) goes
through one line scanner (``_scan``, behind ``read_lines``), so all four
formats share one convention: UTF-8, lines end at ``\n`` (a trailing
``\r`` is dropped), blank lines and lines starting with ``#`` are skipped,
and every error names the input as ``path:line: message``.

* Embedding file: header ``#EMB v1 d_spk=<int> d_cm=<int>`` on line 1, then
  one line per stored vector: ``utt_id<TAB>spk|cm<TAB>comma-separated
  floats``. The floats are ASCII decimal (or ``inf``/``nan``, which the
  store rejects), parsed by numpy's text reader: Python-only spellings such
  as ``1_0`` or non-ASCII digits are malformed. They are written with 17
  significant digits so 64-bit values round-trip exactly.
* Protocol file: one trial per line,
  ``enroll_ids(comma-joined)<TAB>test_id<TAB>label`` with label one of
  target / nontarget / spoof.

A large embedding file is parsed on every CPU (``load_embeddings``): its
lines are cut into one byte range per CPU in the affinity mask, this
process parses the first and one child interpreter per further range
parses the others. A child sends back its rows only when its whole range
is clean; they are merged in file order. Every other range is parsed
again in this process, and that one pass names every fault. The children
are processes because numpy's text parser holds the GIL: two threads
parsed a 72 MB file no faster than one (0.69 s against 0.61 s). A child
takes about 0.2 s to start and parsing about 15 ns per byte, so the file
is split only where every range holds at least ``_MIN_PART_BYTES``.

The store keeps one matrix per embedding kind. ``compile_trials`` turns a
trial list into row indices once (``TrialRows``); ``fusion.fuse_batch``
then gathers whole batches from those rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, fields

import numpy as np

LABELS = ("target", "nontarget", "spoof")
PARTITIONS = ("train", "dev", "eval")

_EMB_HEADER = re.compile(r"^#EMB v1 d_spk=(\d+) d_cm=(\d+)$", re.ASCII)
# Embedding lines held pending and then parsed with one np.loadtxt call per
# kind: about 1 MB of text at SASV-2022 sizes.
_CHUNK_ROWS = 256
# The smallest byte range worth a child process. A child takes about 0.2 s
# to start (an interpreter, numpy and this package on a 2-vCPU Xeon), the
# parse of about 13 MB at 15 ns per byte: a 32 MB file split in two ends
# only a little sooner than one pass, and a smaller one is read in one.
_MIN_PART_BYTES = 16 << 20


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Write to a temp file and rename on success, so readers never see
    a truncated artifact."""
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        yield fh
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class MissingIdError(KeyError):
    """An id with no stored embedding; str() omits the quotes of KeyError."""

    __str__ = Exception.__str__


class LineError(ValueError):
    """A fault at line ``lineno``, which may be a line before the one being
    read."""

    def __init__(self, lineno: int, message):
        super().__init__(str(message))
        self.lineno = lineno

    def at(self, path: str) -> ValueError:
        """The error as a reader raises it: ``path:N: message``."""
        return ValueError(f"{path}:{self.lineno}: {self}")


def _scan(raws, parse_line, first: int = 1, *, strip: bool = False, numbered: bool = False,
          end=None):
    """``[parse_line(line) ...]`` over raw UTF-8 lines numbered from
    ``first``, skipping blank and ``#`` lines (after a whitespace strip when
    ``strip`` is set); ``numbered`` passes ``(lineno, line)``. Returns the
    results, the number of lines read and the first fault, a ``LineError``
    or None: a ValueError raised while decoding or parsing line N is a fault
    at N. ``end`` finishes deferred work, which holds only lines before the
    one being read: after the last line, and before a fault is returned, so
    that the fault of a deferred line (a ``LineError`` that ``end`` or
    ``parse_line`` raises) comes first."""
    out, lineno, fault = [], first - 1, None
    try:
        for lineno, raw in enumerate(raws, first):
            line = raw.decode("utf-8")
            line = line.strip() if strip else line.rstrip("\r\n")
            if line and not line.startswith("#"):
                out.append(parse_line(lineno, line) if numbered else parse_line(line))
    except ValueError as exc:
        fault = exc if isinstance(exc, LineError) else LineError(lineno, exc)
    try:
        if end is not None:
            end()
    except LineError as exc:
        fault = exc
    return out, lineno - first + 1, fault


def read_lines(path: str, parse_line, *, strip: bool = False, numbered: bool = False) -> list:
    """``_scan`` over a UTF-8 text file; its fault is raised as
    ``path:N: message``."""
    with open(path, "rb") as fh:
        out, _, fault = _scan(fh, parse_line, strip=strip, numbered=numbered)
    if fault is not None:
        raise fault.at(path)
    return out


def parse_number(text: str, cast=float):
    """``cast(text)`` for ASCII text without ``_``: int() and float() also
    read Python-only spellings such as ``1_0`` and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"malformed number {text!r}")
    return cast(text)


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def numbered_trial_ids(n: int) -> list[str]:
    """Stable per-line ids used in score files: t000000, t000001, ..."""
    return [f"t{i:06d}" for i in range(n)]


@dataclass(frozen=True)
class Trial:
    enroll_ids: tuple[str, ...]
    test_id: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown trial label {self.label!r}")
        if not self.enroll_ids or not self.test_id:
            raise ValueError("trial needs enrollment ids and a test id")


@dataclass
class Protocol:
    trials: list[Trial]
    partition: str = "eval"
    path: str | None = None  # the file it was read from, and each trial's line there
    lines: list[int] | None = None

    def __len__(self) -> int:
        return len(self.trials)

    def where(self, i: int | None = None) -> str:
        """The error prefix ``path: ``, or ``path:line: `` of trial i ("" if
        the protocol was not read from a file)."""
        if self.path is None:
            return ""
        return f"{self.path}: " if i is None else f"{self.path}:{self.lines[i]}: "

    def trial_ids(self) -> list[str]:
        return numbered_trial_ids(len(self.trials))

    def labels(self) -> list[str]:
        return [t.label for t in self.trials]


_KIND_NAMES = {"spk": "speaker", "cm": "CM"}


class EmbeddingStore:
    """Utterance id -> (speaker embedding, CM embedding), with fixed dims.

    Each kind ("spk", "cm") is one float64 matrix, grown geometrically on
    ``add`` (capacity stays untouched, so not resident, until written), and
    an id -> row dict in insertion order. ``path`` names the file it was
    read from in errors.
    """

    def __init__(self, d_spk: int, d_cm: int, path: str | None = None):
        if d_spk < 1 or d_cm < 1:
            raise ValueError(f"embedding dims must be positive, got {d_spk}, {d_cm}")
        self.d_spk = int(d_spk)
        self.d_cm = int(d_cm)
        self.path = path
        self._rows: dict[str, dict[str, int]] = {"spk": {}, "cm": {}}
        self._data = {"spk": np.empty((0, self.d_spk)), "cm": np.empty((0, self.d_cm))}

    def __len__(self) -> int:
        return len(self._rows["spk"].keys() | self._rows["cm"].keys())

    def add(self, utt_id: str, spk=None, cm=None) -> None:
        if spk is None and cm is None:
            raise ValueError(f"{utt_id}: nothing to add")
        for kind, vec in (("spk", spk), ("cm", cm)):
            if vec is not None:
                self.add_rows(kind, [utt_id], np.asarray(vec, dtype=np.float64)[None])

    def add_rows(self, kind: str, ids, block: np.ndarray) -> None:
        """Append row i of ``block`` as ``ids[i]``'s ``kind`` embedding. The
        first faulty row raises, and then nothing is stored."""
        data, rows = self._data[kind], self._rows[kind]
        d = data.shape[1]
        if block.shape != (len(ids), d):
            raise ValueError(f"{ids[0]}: {kind} embedding has shape {block.shape[1:]}, "
                             f"expected ({d},)")
        finite = np.isfinite(block).all(axis=1)
        seen = set()
        for utt_id, ok in zip(ids, finite.tolist()):
            if not ok:
                raise ValueError(f"{utt_id}: {kind} embedding contains non-finite values")
            if utt_id in rows or utt_id in seen:
                raise ValueError(f"duplicate {_KIND_NAMES[kind]} embedding for {utt_id!r}")
            seen.add(utt_id)
        n = len(rows)
        if n + len(ids) > len(data):
            grown = np.empty((max(64, 2 * len(data), n + len(ids)), d))
            grown[:n] = data[:n]
            data = self._data[kind] = grown
        data[n:n + len(ids)] = block
        rows.update(zip(ids, range(n, n + len(ids))))

    def matrix(self, kind: str) -> np.ndarray:
        """The stored vectors of one kind, one row each."""
        return self._data[kind][: len(self._rows[kind])]

    def row(self, kind: str, utt_id: str) -> int:
        try:
            return self._rows[kind][utt_id]
        except KeyError:
            where = f" in {self.path}" if self.path else ""
            message = f"no {_KIND_NAMES[kind]} embedding stored for {utt_id!r}{where}"
            raise MissingIdError(message) from None


def save_embeddings(store: EmbeddingStore, path: str, comments: tuple[str, ...] = ()) -> None:
    with atomic_write(path) as fh:
        fh.write(f"#EMB v1 d_spk={store.d_spk} d_cm={store.d_cm}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        for kind in ("spk", "cm"):
            matrix = store.matrix(kind)
            row = ",".join(["%.17g"] * matrix.shape[1])  # format_float's text, one call per row
            for utt_id, vec in zip(store._rows[kind], matrix):
                fh.write(f"{utt_id}\t{kind}\t{row % tuple(vec.tolist())}\n")


def _parse_floats(payloads) -> np.ndarray:
    """One row per comma-separated payload, by numpy's C text parser (which
    skips an empty payload, so callers reject those first)."""
    try:
        return np.loadtxt(payloads, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        raise ValueError("malformed float payload") from None


def _store_kinds(store: EmbeddingStore, columns: dict) -> None:
    """Add ``columns[kind] = (lines, ids, payloads)``, rows in file order,
    with one ``add_rows`` call per kind. Where a kind's call fails, its rows
    go one at a time, in file order across the kinds, and the first faulty
    row raises a ``LineError`` at its line."""
    failed = []
    for kind, (_, ids, payloads) in columns.items():
        if ids:
            try:
                store.add_rows(kind, ids, _parse_floats(payloads))
            except ValueError:
                failed.append(kind)
    for lineno, kind, i in sorted((n, k, i) for k in failed for i, n in enumerate(columns[k][0])):
        _, ids, payloads = columns[kind]
        try:
            store.add_rows(kind, ids[i:i + 1], _parse_floats(payloads[i:i + 1]))
        except ValueError as exc:
            raise LineError(lineno, exc) from None


def _load_range(store: EmbeddingStore, raws, first: int):
    """Parse embedding lines ``raws``, numbered from ``first``, into
    ``store``. Lines are checked as they are read and held in file order;
    every ``_CHUNK_ROWS`` lines their payloads are parsed, one call per
    kind. Returns the number of lines read and the first fault (a
    ``LineError``) or None."""
    pending = []  # (lineno, utt_id, kind, payload) in file order, one chunk at most

    def flush():
        chunk = pending[:]
        pending.clear()
        columns = {}
        for kind in _KIND_NAMES:
            rows = [(lineno, utt_id, payload) for lineno, utt_id, k, payload in chunk if k == kind]
            columns[kind] = tuple(zip(*rows)) or ((), (), ())
        _store_kinds(store, columns)

    def record(lineno, line):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("expected 3 tab-separated fields")
        utt_id, kind, payload = parts
        if kind not in _KIND_NAMES:
            raise ValueError(f"unknown embedding kind {kind!r}")
        if not payload:
            raise ValueError("malformed float payload")
        pending.append((lineno, utt_id, kind, payload))
        if len(pending) == _CHUNK_ROWS:
            flush()

    _, n, fault = _scan(raws, record, first, numbered=True, end=flush)
    return n, fault


class _Range(io.RawIOBase):
    """Bytes [pos, stop) of the open file ``fd``, read with ``os.pread``,
    which leaves the offset alone that the processes sharing ``fd`` see."""

    def __init__(self, fd: int, pos: int, stop: int):
        super().__init__()
        self.fd, self.pos, self.stop = fd, pos, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = os.pread(self.fd, min(len(buf), self.stop - self.pos), self.pos)
        buf[:len(got)] = got
        self.pos += len(got)
        return len(got)


def _lines(fd: int, start: int, stop: int):
    """The lines of bytes [start, stop) of ``fd``, each with its ``\\n``."""
    return io.BufferedReader(_Range(fd, start, stop), 1 << 16)


# A child imports this package from where its parent did, which need not be
# an installed copy.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from sasvbackend import data; "
          "data._child(*map(int, sys.argv[2:]))")


def _child(fd: int, start: int, stop: int, d_spk: int, d_cm: int) -> None:
    """A child's work: parse one range, lines numbered from 1, and write
    the part to stdout: a JSON line of the line count and each kind's ids,
    then each kind's matrix as raw float64. A range with a fault exits
    non-zero and writes nothing."""
    store = EmbeddingStore(d_spk, d_cm)
    n, fault = _load_range(store, _lines(fd, start, stop), 1)
    if fault is not None:
        sys.exit(1)
    out = sys.stdout.buffer
    out.write(json.dumps({"lines": n, "ids": {k: list(r) for k, r in store._rows.items()}})
              .encode() + b"\n")
    for kind in store._rows:
        out.write(memoryview(store.matrix(kind)))
    out.flush()


def _spawn(stack: contextlib.ExitStack, fd: int, start: int, stop: int, store: EmbeddingStore):
    """A child parsing bytes [start, stop) of ``fd``, killed and waited for
    when ``stack`` closes; None if none could start."""
    if not sys.executable:
        return None
    args = [sys.executable, "-c", _CHILD, _PACKAGE_ROOT,
            *map(str, (fd, start, stop, store.d_spk, store.d_cm))]
    try:
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, pass_fds=(fd,),
                                env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    except OSError:
        return None
    stack.callback(_reap, proc)
    return proc


def _reap(proc: subprocess.Popen) -> None:
    proc.kill()  # no-op once it has exited
    proc.wait()
    proc.stdout.close()


def _result(proc, store: EmbeddingStore):
    """The part a child wrote, ``(lines read, {kind: (ids, matrix)})``, or
    None if it did not start, exited non-zero or wrote a part cut short or
    followed by more bytes."""
    if proc is None:
        return None
    out = proc.stdout.read()
    if proc.wait() != 0:
        return None
    try:
        nl = out.index(b"\n")
        head = json.loads(out[:nl])
        pos, columns = nl + 1, {}
        for kind, d in (("spk", store.d_spk), ("cm", store.d_cm)):
            ids = head["ids"][kind]
            matrix = np.frombuffer(out, np.float64, len(ids) * d, pos).reshape(len(ids), d)
            pos += matrix.nbytes
            columns[kind] = (ids, matrix)
        return (head["lines"], columns) if pos == len(out) else None
    except (ValueError, KeyError, TypeError):
        return None


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_start(fd: int, at: int, stop: int) -> int:
    """The first line start at or after ``at`` (> 0), or ``stop``: one past
    the first ``\\n`` at or after ``at - 1``."""
    return at - 1 + len(_lines(fd, at - 1, stop).readline())


def _ranges(fd: int, start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """[start, stop) cut into at most ``parts`` ranges of about equal size,
    each beginning at a line. The first is kept even when empty."""
    bounds = [start]
    for k in range(1, parts):
        bounds.append(max(bounds[-1], _line_start(fd, start + k * (stop - start) // parts, stop)))
    bounds.append(stop)
    return [(a, b) for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b or i == 0]


def _header(line: str, path: str) -> EmbeddingStore:
    m = _EMB_HEADER.match(line)
    if not m:
        raise ValueError(f"bad embedding header {line!r}")
    return EmbeddingStore(int(m.group(1)), int(m.group(2)), path)


def load_embeddings(path: str) -> EmbeddingStore:
    """Read an embedding file into a store.

    The lines after the header are cut into one byte range per CPU in the
    affinity mask, at most one per ``_MIN_PART_BYTES``, each starting at a
    line; a smaller file is one range. This process parses the first range
    straight into the store. Each further range goes to a child process,
    since numpy's text parser holds the GIL and threads would take turns.
    A child is a fresh ``sys.executable`` (never a fork of this process,
    whose BLAS and lane threads a fork would copy in whatever state they
    are). It imports this package from where this process did, runs with
    ``OPENBLAS_NUM_THREADS=1`` and reads the file this process opened,
    passed as a descriptor, so a file replaced meanwhile cannot mix two
    versions. It runs the same ``_load_range`` over its range; only if the
    whole range is clean does it write back the range's ids and matrices,
    and on a fault it exits non-zero and writes nothing. The parts are
    taken in file order: a clean part none of whose ids is stored yet is
    merged with one ``EmbeddingStore.add_rows`` per kind. Any other range
    (a fault, a child that did not start, exited non-zero or wrote a part
    cut short, or an id of an earlier range) is parsed here, straight into
    the store at the range's line offset, which names the first faulty
    line as ``path:N: message``. So the matrices, the id order and the
    error are those of one pass over the file. Every child is killed and
    waited for before this returns or raises."""
    return _load(path)[0]


def _load(path: str, parts: int | None = None) -> tuple[EmbeddingStore, int]:
    """``load_embeddings`` with ``parts`` ranges if given, and the number of
    ranges that a child parsed."""
    with open(path, "rb") as fh:
        try:
            store = _header(fh.readline().decode("utf-8").rstrip("\r\n"), path)
        except ValueError as exc:
            raise LineError(1, exc).at(path) from None
        fd, start = fh.fileno(), fh.tell()
        stop = os.fstat(fd).st_size
        if parts is None:
            parts = min(_cpus(), (stop - start) // _MIN_PART_BYTES)
        ranges = _ranges(fd, start, stop, max(parts, 1))
        by_child = 0
        with contextlib.ExitStack() as stack:
            children = [_spawn(stack, fd, a, b, store) for a, b in ranges[1:]]
            lines, fault = _load_range(store, _lines(fd, *ranges[0]), 2)
            offset = 1 + lines
            for child, (a, b) in zip(children, ranges[1:]):
                if fault is not None:
                    break
                part = _result(child, store)
                if part is not None and all(store._rows[kind].keys().isdisjoint(ids)
                                            for kind, (ids, _) in part[1].items()):
                    for kind, (ids, matrix) in part[1].items():
                        store.add_rows(kind, ids, matrix)
                    lines, by_child = part[0], by_child + 1
                else:  # the one pass that names a fault
                    lines, fault = _load_range(store, _lines(fd, a, b), offset + 1)
                offset += lines
    if fault is not None:
        raise fault.at(path)
    return store, by_child


def save_protocol(protocol: Protocol, path: str, comments: tuple[str, ...] = ()) -> None:
    with atomic_write(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for t in protocol.trials:
            fh.write(f"{','.join(t.enroll_ids)}\t{t.test_id}\t{t.label}\n")


def _trial(line: str) -> Trial:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError("expected 3 tab-separated fields")
    enroll, test_id, label = parts
    if label not in LABELS:
        raise ValueError(f"unknown label token {label!r}")
    return Trial(tuple(enroll.split(",")), test_id, label)


def parse_protocol(path: str, partition: str = "eval") -> Protocol:
    numbered = read_lines(path, lambda lineno, line: (lineno, _trial(line)), numbered=True)
    return Protocol([t for _, t in numbered], partition, path, [n for n, _ in numbered])


@dataclass(frozen=True)
class TrialRows:
    """Trials as store rows: ``enroll`` (N, E) speaker rows padded with row 0
    up to the largest enrollment count E, the real ``count``, the test
    speaker and CM rows and the labels. Indexing selects trials."""

    enroll: np.ndarray
    count: np.ndarray
    test_spk: np.ndarray
    test_cm: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.count)

    def __getitem__(self, idx) -> "TrialRows":
        return TrialRows(*(getattr(self, f.name)[idx] for f in fields(self)))


def compile_trials(store: EmbeddingStore, trials) -> TrialRows:
    """Resolve every id of a trial list or ``Protocol`` to its store row, so
    an unknown id raises the store's KeyError here: the first in trial order,
    prefixed with the protocol's file and line when it was read from one.
    TrialRows pass through."""
    if isinstance(trials, TrialRows):
        return trials
    protocol = trials if isinstance(trials, Protocol) else Protocol(trials)
    spk, cm = store._rows["spk"], store._rows["cm"]
    try:
        enrolled = [spk[e] for t in protocol.trials for e in t.enroll_ids]
        test_spk = np.array([spk[t.test_id] for t in protocol.trials], dtype=np.intp)
        test_cm = np.array([cm[t.test_id] for t in protocol.trials], dtype=np.intp)
    except KeyError:
        for i, t in enumerate(protocol.trials):  # trial by trial, to name the first missing id
            try:
                for kind, utt_id in [*(("spk", e) for e in t.enroll_ids),
                                     ("spk", t.test_id), ("cm", t.test_id)]:
                    store.row(kind, utt_id)
            except MissingIdError as exc:
                raise MissingIdError(f"{protocol.where(i)}{exc}") from None
        raise
    count = np.array([len(t.enroll_ids) for t in protocol.trials], dtype=np.intp)
    enroll = np.zeros((len(count), count.max(initial=1)), dtype=np.intp)  # padded with row 0
    enroll[np.arange(enroll.shape[1]) < count[:, None]] = enrolled
    return TrialRows(enroll, count, test_spk, test_cm, np.array(protocol.labels()))


# ---------------------------------------------------------------------------
# synthetic workload


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian-cluster generator with independently tunable speaker
    separation (sigma_between vs sigma_within) and spoof detectability
    (spoof_shift in CM space, spoof_spk_noise in speaker space).

    Spoofed utterances mimic the attacked speaker: their speaker embedding
    is drawn around the speaker mean with spread
    sqrt(sigma_within^2 + spoof_spk_noise^2), so spoof_spk_noise = 0 makes
    them distributionally identical to bonafide utterances; their CM
    embedding is displaced spoof_shift away from the bonafide centroid, so
    spoof_shift = 0 hides them from the CM space too.
    """

    train_speakers: int = 50
    dev_speakers: int = 10
    eval_speakers: int = 20
    utterances_per_speaker: int = 6
    d_spk: int = 16
    d_cm: int = 12
    sigma_within: float = 0.055
    sigma_between: float = 1.1
    spoof_shift: float = 1.1
    spoof_spk_noise: float = 0.05
    train_trials_per_label: int = 90
    dev_trials_per_label: int = 60
    eval_trials_per_label: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("train_speakers", "dev_speakers", "eval_speakers",
                     "utterances_per_speaker", "d_spk", "d_cm",
                     "train_trials_per_label", "dev_trials_per_label",
                     "eval_trials_per_label"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.sigma_within <= 0 or self.sigma_between <= 0:
            raise ValueError("sigma_within and sigma_between must be > 0")
        if self.spoof_shift < 0 or self.spoof_spk_noise < 0:
            raise ValueError("spoof_shift and spoof_spk_noise must be >= 0")

    def speakers_for(self, partition: str) -> int:
        return getattr(self, f"{partition}_speakers")

    def trials_for(self, partition: str) -> int:
        return getattr(self, f"{partition}_trials_per_label")


def generate_synthetic(cfg: SynthConfig) -> tuple[EmbeddingStore, dict[str, Protocol]]:
    """Build (store, {train/dev/eval: Protocol}) with disjoint speaker sets.

    Label counts per partition match the config exactly; everything is
    drawn from one seeded generator, so identical configs reproduce
    identical stores and protocols.
    """
    n_utts = cfg.utterances_per_speaker
    if n_utts < 2:
        raise ValueError("utterances_per_speaker must be >= 2 to form target trials")
    for part in PARTITIONS:
        if cfg.speakers_for(part) < 2:
            raise ValueError(f"{part} needs >= 2 speakers to form nontarget trials")

    rng = np.random.default_rng(cfg.seed)
    store = EmbeddingStore(cfg.d_spk, cfg.d_cm)
    shift_dir = rng.normal(size=cfg.d_cm)
    shift_dir /= np.linalg.norm(shift_dir)
    spoof_spread = math.hypot(cfg.sigma_within, cfg.spoof_spk_noise)

    protocols: dict[str, Protocol] = {}
    n_enroll = min(3, n_utts - 1)
    for part in PARTITIONS:
        speakers = []
        for s in range(cfg.speakers_for(part)):
            sid = f"{part}-spk{s:04d}"
            mean = rng.normal(size=cfg.d_spk)
            mean *= cfg.sigma_between / np.linalg.norm(mean)
            utts = []
            for u in range(n_utts):
                uid = f"{sid}-u{u:02d}"
                store.add(
                    uid,
                    spk=mean + cfg.sigma_within * rng.normal(size=cfg.d_spk),
                    cm=cfg.sigma_within * rng.normal(size=cfg.d_cm),
                )
                utts.append(uid)
            speakers.append((sid, mean, tuple(utts[:n_enroll]), utts[n_enroll:]))

        n_spk = len(speakers)
        n_trials = cfg.trials_for(part)
        trials = []
        for _ in range(n_trials):
            _, _, enroll, tests = speakers[rng.integers(n_spk)]
            trials.append(Trial(enroll, tests[rng.integers(len(tests))], "target"))
        for _ in range(n_trials):
            i = rng.integers(n_spk)
            j = (i + 1 + rng.integers(n_spk - 1)) % n_spk
            _, _, enroll, _ = speakers[i]
            _, _, _, tests = speakers[j]
            trials.append(Trial(enroll, tests[rng.integers(len(tests))], "nontarget"))
        spoof_counter = [0] * n_spk
        for _ in range(n_trials):
            i = rng.integers(n_spk)
            sid, mean, enroll, _ = speakers[i]
            uid = f"{sid}-spoof{spoof_counter[i]:03d}"
            spoof_counter[i] += 1
            store.add(
                uid,
                spk=mean + spoof_spread * rng.normal(size=cfg.d_spk),
                cm=cfg.spoof_shift * shift_dir + cfg.sigma_within * rng.normal(size=cfg.d_cm),
            )
            trials.append(Trial(enroll, uid, "spoof"))
        protocols[part] = Protocol(trials, part)

    return store, protocols
