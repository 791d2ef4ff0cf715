"""The eight backend ensemble architectures and their forward pass.

Presets (fusion mode, conv stack, attention, head):

==============  =======  ==================  ============  ==========  ==============
name            fusion   conv ch / kernels   attention     pool        dnn nodes
==============  =======  ==================  ============  ==========  ==============
Extend512_DNN   concat   -                   -             -           512,256,128,64
Extend1024_DNN  concat   -                   -             -           1024,512,256,128,64
CNN1D           stack1d  256,128,64 / 3,3,3  -             16          512,256,64
CNN1D_SE        stack1d  256,128,64 / 3,3,3  SE1D after 3  16          512,256,64
CNN1D_PA        stack1d  256,128,64 / 3,3,3  PA after 3    16          512,256,64
CNN2D           circ2d   32,64,128,256 /     -             16x16       256,128,64
                         5,3,3,3
CNN2D_SE        circ2d   as CNN2D            SE2D after 3  16x16       256,128,64
CNN2D_VSE       circ2d   as CNN2D            VSE after 3   16x16       256,128,64
==============  =======  ==================  ============  ==========  ==============

Conv blocks run conv -> batch norm -> LeakyReLU as one op
(``tensor.conv_block``). Kernels are odd and convs run at stride 1 with
k // 2 zero padding, so every block keeps its input's size; attention
reduction ratio is 8 everywhere; a final linear layer maps the last DNN
width to 2 logits (class 1 = bonafide target). Weights use uniform fan-in
init with bound sqrt(6/fan_in), biases start at zero.

One code path serves every preset; only the rank of the fused input
differs (``fusion.RANK``: 0, 1 or 2 spatial axes, the length of
``pool_size``). ``Model.forward(batch, training=False)`` is
``head(features(batch, training))``: ``features`` runs the conv blocks,
attention, pool and flatten and gives one flat row per trial (a concat
batch passes through unchanged), and ``head`` runs the DNN and the output
layer on those rows. A model holds no mode: ``training`` picks the conv
blocks' batch norm, on the batch moments (moving the running statistics)
or on the running statistics.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import attention as att
from . import fusion
from . import tensor as T
from .data import atomic_write
from .tensor import RunningStats, Tensor

CHECKPOINT_FORMAT = "sasv-backend-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    name: str
    fusion_mode: str
    conv_channels: tuple[int, ...] = ()
    conv_kernels: tuple[int, ...] = ()
    pool_size: tuple[int, ...] = ()
    dnn_nodes: tuple[int, ...] = ()
    attention_kind: str | None = None
    attention_position: int | None = None
    reduction_ratio: int = 8
    num_classes: int = 2

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"model name must be a string, got {self.name!r}")
        if self.fusion_mode not in fusion.MODES:
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r}")
        sizes = {key: getattr(self, key)
                 for key in ("conv_channels", "conv_kernels", "pool_size", "dnn_nodes")}
        sizes["reduction_ratio"] = (self.reduction_ratio,)
        for key, values in sizes.items():
            if not all(_is_int(v) and v >= 1 for v in values):
                raise ValueError(f"{key} must be positive integers, got {getattr(self, key)!r}")
        if len(self.conv_channels) != len(self.conv_kernels):
            raise ValueError(
                f"conv_channels and conv_kernels must have equal length, got "
                f"{len(self.conv_channels)} and {len(self.conv_kernels)}"
            )
        if any(k % 2 == 0 for k in self.conv_kernels):
            raise ValueError(
                f"conv_kernels must be odd, so that every conv block keeps its size, got "
                f"{self.conv_kernels}"
            )
        axes = fusion.RANK[self.fusion_mode]
        if bool(self.conv_channels) != bool(axes) or len(self.pool_size) != axes:
            raise ValueError(
                f"fusion mode {self.fusion_mode!r} needs {'some' if axes else 'no'} conv layers "
                f"and a pool size of {axes} axes, got {len(self.conv_channels)} conv layers "
                f"and pool size {self.pool_size}"
            )
        if self.attention_kind is not None:
            if self.attention_kind not in att.KINDS:
                raise ValueError(f"unknown attention kind {self.attention_kind!r}")
            if att.RANK[self.attention_kind] != axes:
                raise ValueError(
                    f"attention kind {self.attention_kind} does not fit fusion mode "
                    f"{self.fusion_mode!r}"
                )
            pos = self.attention_position
            if not _is_int(pos) or not 0 <= pos < len(self.conv_channels):
                raise ValueError(
                    f"attention position {pos!r} is not a valid conv layer index"
                )
        elif self.attention_position is not None:
            raise ValueError(
                f"attention position {self.attention_position!r} given without an attention kind"
            )
        if not self.dnn_nodes:
            raise ValueError("at least one DNN layer is required")
        if not _is_int(self.num_classes) or self.num_classes != 2:
            raise ValueError(f"num_classes must be 2 (bonafide target or not), got "
                             f"{self.num_classes!r}")


def _is_int(value) -> bool:
    """An integer, not a bool: a JSON header may hold 3.0 or true where 3
    belongs."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Attention sits after the third conv block (index 2) in every attention
# preset; the 1D pool target of 16 mirrors the 2D preset's 16x16.
_DNN512 = ModelConfig(name="Extend512_DNN", fusion_mode=fusion.CONCAT,
                      dnn_nodes=(512, 256, 128, 64))
_CNN1D = ModelConfig(name="CNN1D", fusion_mode=fusion.STACK1D, conv_channels=(256, 128, 64),
                     conv_kernels=(3, 3, 3), pool_size=(16,), dnn_nodes=(512, 256, 64))
_CNN2D = ModelConfig(name="CNN2D", fusion_mode=fusion.CIRC2D,
                     conv_channels=(32, 64, 128, 256), conv_kernels=(5, 3, 3, 3),
                     pool_size=(16, 16), dnn_nodes=(256, 128, 64))
PRESETS: dict[str, ModelConfig] = {config.name: config for config in (
    _DNN512,
    replace(_DNN512, name="Extend1024_DNN", dnn_nodes=(1024, 512, 256, 128, 64)),
    _CNN1D,
    replace(_CNN1D, name="CNN1D_SE", attention_kind=att.SE1D, attention_position=2),
    replace(_CNN1D, name="CNN1D_PA", attention_kind=att.PA, attention_position=2),
    _CNN2D,
    replace(_CNN2D, name="CNN2D_SE", attention_kind=att.SE2D, attention_position=2),
    replace(_CNN2D, name="CNN2D_VSE", attention_kind=att.VSE, attention_position=2),
)}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}, expected one of {sorted(PRESETS)}"
        ) from None


class Model:
    """One built network: config, named parameters and BN buffers."""

    def __init__(self, config: ModelConfig, dims: tuple[int, int, int], seed: int, *,
                 _init: bool = True):
        if len(dims) != 3 or not all(_is_int(v) and v >= 1 for v in dims):
            raise ValueError(f"embedding dims must be three positive integers, got {dims!r}")
        if not _is_int(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.config = config
        self.dims = tuple(int(x) for x in dims)
        self.seed = int(seed)
        self.params: dict[str, Tensor] = {}
        self.bn_stats: dict[str, RunningStats] = {}
        self._attention: att.AttentionParams | None = None
        # A checkpoint load overwrites every array, so it skips the random init.
        self._build(np.random.default_rng(seed) if _init else None)

    # -- construction ------------------------------------------------------

    def _add_param(self, name: str, tensor: Tensor) -> Tensor:
        self.params[name] = tensor
        return tensor

    def _build(self, rng: np.random.Generator | None) -> None:
        """Allocate every array; with ``rng`` None the weights are left
        uninitialised."""
        cfg = self.config
        d, b, q = self.dims
        nd, spatial = len(cfg.pool_size), max(d, b, q)  # every conv block keeps the size
        in_ch = 3 if nd else d + b + q
        for i, (ch, k) in enumerate(zip(cfg.conv_channels, cfg.conv_kernels)):
            self._add_param(f"conv{i}.w", T.init_weight(rng, (ch, in_ch) + (k,) * nd,
                                                        in_ch * k**nd))
            self._add_param(f"conv{i}.b", Tensor(np.zeros(ch), requires_grad=True))
            self._add_param(f"bn{i}.gamma", Tensor(np.ones(ch), requires_grad=True))
            self._add_param(f"bn{i}.beta", Tensor(np.zeros(ch), requires_grad=True))
            self.bn_stats[f"bn{i}"] = RunningStats(ch)
            if cfg.attention_position == i:
                self._attention = att.AttentionParams.init(
                    cfg.attention_kind, rng, channels=ch, features=spatial,
                    reduction=cfg.reduction_ratio,
                )
                for wname, wt in self._attention.named_weights():
                    self._add_param(f"att.{wname}", wt)
            in_ch = ch
        if max(cfg.pool_size, default=0) > spatial:
            raise ValueError(f"pool size {cfg.pool_size} exceeds the post-conv size {spatial}")

        width = in_ch * math.prod(cfg.pool_size)
        for i, nodes in enumerate(cfg.dnn_nodes):
            self._add_param(f"fc{i}.w", T.init_weight(rng, (width, nodes), width))
            self._add_param(f"fc{i}.b", Tensor(np.zeros(nodes), requires_grad=True))
            width = nodes
        self._add_param("head.w", T.init_weight(rng, (width, cfg.num_classes), width))
        self._add_param("head.b", Tensor(np.zeros(cfg.num_classes), requires_grad=True))

    # -- parameter access --------------------------------------------------

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _state(self) -> dict[str, np.ndarray]:
        """All learnable arrays and BN buffers by checkpoint name, not copied."""
        out = {name: p.data for name, p in self.params.items()}
        for name, st in self.bn_stats.items():
            out[f"{name}.running_mean"] = st.mean
            out[f"{name}.running_var"] = st.var
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all learnable arrays and BN buffers, for snapshots."""
        return {name: arr.copy() for name, arr in self._state().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore a snapshot: one C-ordered float64 copy per array, so the
        model shares no memory with ``arrays``."""
        for name, p in self.params.items():
            p.data = np.array(arrays[name], dtype=np.float64, order="C").reshape(p.data.shape)
        for name, st in self.bn_stats.items():
            st.mean = np.array(arrays[f"{name}.running_mean"], dtype=np.float64)
            st.var = np.array(arrays[f"{name}.running_var"], dtype=np.float64)

    # -- forward -----------------------------------------------------------

    def features(self, batch: np.ndarray, training: bool = False) -> Tensor:
        """The head's input rows for a fused batch of the config's fusion
        mode: conv blocks (in training mode when ``training``), attention,
        pool and flatten. A batch of another rank ends in a DimensionError."""
        cfg, p = self.config, self.params
        x = Tensor(np.asarray(batch, dtype=np.float64))
        if not cfg.pool_size:  # concat: already one flat row per trial
            return x
        for i in range(len(cfg.conv_kernels)):
            x = T.conv_block(
                x, p[f"conv{i}.w"], p[f"conv{i}.b"], p[f"bn{i}.gamma"], p[f"bn{i}.beta"],
                self.bn_stats[f"bn{i}"], training,
            )
            if cfg.attention_position == i:
                x = att.apply_attention(x, self._attention)
        x = T.adaptive_avg_pool(x, cfg.pool_size)
        return T.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))

    def head(self, h: Tensor) -> Tensor:
        """Logits (Bx2) from the rows of ``features``: the DNN and the output layer."""
        p = self.params
        for i in range(len(self.config.dnn_nodes)):
            h = T.leaky_relu(T.linear(h, p[f"fc{i}.w"], p[f"fc{i}.b"]))
        return T.linear(h, p["head.w"], p["head.b"])

    def forward(self, batch: np.ndarray, training: bool = False) -> Tensor:
        """Logits (Bx2) for a fused input batch."""
        return self.head(self.features(batch, training))


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of class 1 from Bx2 logits (max-shifted)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e[:, 1] / e.sum(axis=1)


def build(config: ModelConfig | str, dims: tuple[int, int, int], seed: int = 0) -> Model:
    """Construct a model from a preset name or an explicit config."""
    if isinstance(config, str):
        config = preset(config)
    return Model(config, dims, seed)


# -- checkpoint io -----------------------------------------------------------
#
# One JSON header line (config echo, dims, seed, array manifest), then the
# raw little-endian float64 bytes of every array in manifest order. Writing
# is bit-deterministic for a given model state.


def save_checkpoint(model: Model, path: str) -> None:
    arrays = model._state()
    names = list(arrays.keys())
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "dims": list(model.dims),
        "seed": model.seed,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        for n in names:  # through the array's own buffer when it is C-ordered <f8
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8"))


def _check_keys(path: str, what: str, got: dict, expected) -> None:
    missing, unknown = sorted(set(expected) - set(got)), sorted(set(got) - set(expected))
    if missing or unknown:
        raise ValueError(f"{path}: {what} has missing keys {missing}, unknown keys {unknown}")


def load_checkpoint(path: str) -> Model:
    """Read a checkpoint; every header field, the config and the array
    manifest are checked against the model they build, and any mismatch is
    a ValueError naming the file. The payload is read straight into the
    built model's arrays, so no copy of it is ever held."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode())
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ValueError(f"{path}: checkpoint header is not UTF-8 JSON: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        _check_keys(path, "checkpoint header", header,
                    ("arrays", "config", "dims", "format", "seed", "version"))
        cfg_dict = header["config"] if isinstance(header["config"], dict) else {}
        _check_keys(path, "checkpoint config", cfg_dict, [f.name for f in fields(ModelConfig)])
        try:
            cfg_dict = dict(cfg_dict)
            for key in ("conv_channels", "conv_kernels", "pool_size", "dnn_nodes"):
                cfg_dict[key] = tuple(cfg_dict[key])
            model = Model(ModelConfig(**cfg_dict), tuple(header["dims"]), header["seed"],
                          _init=False)
        except (TypeError, ValueError, OverflowError, MemoryError) as exc:
            raise ValueError(f"{path}: checkpoint config, dims or seed build no model: {exc}") from None
        state = model._state()
        expected = [{"name": n, "shape": list(a.shape)} for n, a in state.items()]
        if header["arrays"] != expected:
            got = header["arrays"] if isinstance(header["arrays"], list) else []
            bad = [e["name"] for e in expected if e not in got] or "extra or reordered entries"
            raise ValueError(f"{path}: checkpoint array manifest does not match the model: {bad}")
        for name, arr in state.items():
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise ValueError(f"{path}: checkpoint payload size mismatch")
            if sys.byteorder != "little":  # the payload is little-endian
                arr.byteswap(inplace=True)
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: checkpoint array {name!r} has non-finite values")
        if fh.read(1):
            raise ValueError(f"{path}: checkpoint payload size mismatch")
    return model
