"""Embedding storage, trial protocols, and the synthetic workload generator.

Every text input (embeddings, protocols, score files, run files) goes
through ``read_lines``, so all four formats share one convention: UTF-8,
lines end at ``\n`` (a trailing ``\r`` is dropped), blank lines and lines
starting with ``#`` are skipped, and every error names the input as
``path:line: message``.

* Embedding file: header ``#EMB v1 d_spk=<int> d_cm=<int>`` on line 1, then
  one line per stored vector: ``utt_id<TAB>spk|cm<TAB>comma-separated
  floats``. The floats are ASCII decimal (or ``inf``/``nan``, which the
  store rejects), parsed by numpy's text reader: Python-only spellings such
  as ``1_0`` or non-ASCII digits are malformed. They are written with 17
  significant digits so 64-bit values round-trip exactly.
* Protocol file: one trial per line,
  ``enroll_ids(comma-joined)<TAB>test_id<TAB>label`` with label one of
  target / nontarget / spoof.

The store keeps one matrix per embedding kind. ``compile_trials`` turns a
trial list into row indices once (``TrialRows``); ``fusion.fuse_batch``
then gathers whole batches from those rows.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

LABELS = ("target", "nontarget", "spoof")
PARTITIONS = ("train", "dev", "eval")

_EMB_HEADER = re.compile(r"^#EMB v1 d_spk=(\d+) d_cm=(\d+)$", re.ASCII)
# Embedding lines held pending and then parsed with one np.loadtxt call per
# kind: about 1 MB of text at SASV-2022 sizes.
_CHUNK_ROWS = 256


@contextmanager
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
    """A fault found after its line was read; ``read_lines`` reports it at
    ``lineno`` instead of the line being read."""

    def __init__(self, lineno: int, message):
        super().__init__(str(message))
        self.lineno = lineno


def read_lines(path: str, parse_line, *, header=None, strip: bool = False,
               numbered: bool = False, end=None) -> list:
    """``[parse_line(line) ...]`` over a UTF-8 text file, skipping blank and
    ``#`` lines (after a whitespace strip when ``strip`` is set); ``header``
    gets line 1 whatever it holds, and ``numbered`` passes ``(lineno, line)``.
    A ValueError raised while decoding or parsing line N comes out as
    ``path:N: message``. ``end`` finishes deferred work, which holds only
    lines before the one being read: after the last line, and before a
    fault is raised, so that the fault of a deferred line (a ``LineError``)
    comes first."""
    lineno, out, fault = 1, [], None
    with open(path, "rb") as fh:
        try:
            if header is not None:
                header(fh.readline().decode("utf-8").rstrip("\r\n"))
            for lineno, raw in enumerate(fh, start=1 if header is None else 2):
                line = raw.decode("utf-8")
                line = line.strip() if strip else line.rstrip("\r\n")
                if line and not line.startswith("#"):
                    out.append(parse_line(lineno, line) if numbered else parse_line(line))
        except ValueError as exc:
            fault = exc
        try:
            if end is not None:
                end()
        except ValueError as exc:
            fault = exc
    if fault is not None:
        lineno = fault.lineno if isinstance(fault, LineError) else lineno
        raise ValueError(f"{path}:{lineno}: {fault}")
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


def load_embeddings(path: str) -> EmbeddingStore:
    """Read an embedding file. Lines are checked as they are read and held
    in file order; every ``_CHUNK_ROWS`` lines their payloads are parsed, one
    call per kind, and a fault is reported at the first faulty line."""
    store = None
    pending = []  # (lineno, utt_id, kind, payload) in file order, one chunk at most

    def header(line):
        nonlocal store
        m = _EMB_HEADER.match(line)
        if not m:
            raise ValueError(f"bad embedding header {line!r}")
        store = EmbeddingStore(int(m.group(1)), int(m.group(2)), path)

    def flush():
        chunk = pending[:]
        pending.clear()
        failed = set()  # kinds of which nothing was stored
        for kind in _KIND_NAMES:
            rows = [(utt_id, payload) for _, utt_id, k, payload in chunk if k == kind]
            if rows:
                ids, payloads = zip(*rows)
                try:
                    store.add_rows(kind, ids, _parse_floats(payloads))
                except ValueError:
                    failed.add(kind)
        for lineno, utt_id, kind, payload in chunk:  # row by row, to name the first faulty line
            if kind in failed:
                try:
                    store.add_rows(kind, [utt_id], _parse_floats([payload]))
                except ValueError as exc:
                    raise LineError(lineno, exc) from None

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

    read_lines(path, record, header=header, numbered=True, end=flush)
    return store


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
    """Resolve every id of a trial list or ``Protocol`` to its store row,
    trial by trial, so an unknown id raises the store's KeyError here,
    prefixed with the protocol's file and line when it was read from one;
    TrialRows pass through."""
    if isinstance(trials, TrialRows):
        return trials
    protocol = trials if isinstance(trials, Protocol) else Protocol(trials)
    enroll, test_spk, test_cm = [], [], []
    for i, t in enumerate(protocol.trials):
        try:
            enroll.append([store.row("spk", e) for e in t.enroll_ids])
            test_spk.append(store.row("spk", t.test_id))
            test_cm.append(store.row("cm", t.test_id))
        except MissingIdError as exc:
            raise MissingIdError(f"{protocol.where(i)}{exc}") from None
    count = np.array([len(r) for r in enroll], dtype=np.intp)
    width = max(count, default=1)
    padded = np.array([r + [0] * (width - len(r)) for r in enroll], dtype=np.intp)
    return TrialRows(padded.reshape(len(enroll), width), count, np.array(test_spk, dtype=np.intp),
                     np.array(test_cm, dtype=np.intp), np.array(protocol.labels()))


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
