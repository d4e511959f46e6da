"""The forecaster families: persistence, one-block FFNN/LSTM, and the
encoder-decoder models with and without attention, in expected-value and
binned-distribution target modes.

Decoder wiring for the attention variant: each decoder LSTM layer reads an
attention context at every step inside its lstm_layer node, which projects
the (batch, q) query itself, over the encoder's top-layer outputs as keys
and values. Layer 1's query is (step input, layer-1 h) and it reads
(context, step input); layer j>1's query is layer j's h and it reads
(context, layer j-1's output); with decoder_nwp the step input adds the
weather. Under teacher forcing no layer's input depends on the layer above,
so each layer runs its 24 steps as one node (layer-major, Appleyard et al.
2016) and the head runs per step on one unstack node's views of the top
layer's outputs. The self-recurrent decoder feeds each forecast back, so it
runs one node per layer and step. The attention-free s2s decoder stays per
step in both modes: one input GEMM over every step would round differently
from the self-recurrent per-step GEMM. The attention projection width is
units//2, which keeps the attention variants' parameter count in line with
the equal-capacity baselines.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Tensor
from .data import Sample, expected_value
from .errors import ConfigError, ContractError

FAMILIES = ("persistence", "ffnn", "lstm", "s2s", "s2s_attn")
TARGET_MODES = ("pdf", "expected")

_FAMILY_LABEL = {"persistence": "Persistence", "ffnn": "FFNN", "lstm": "LSTM",
                 "s2s": "S2S", "s2s_attn": "S2S-Attn"}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; fully determines the parameter count."""

    family: str
    target_mode: str = "pdf"
    units_per_layer: int = 110
    depth: int = 2
    input_features: int = 6
    input_steps: int = 480
    output_steps: int = 24
    bins: int = 50
    decoder_nwp: bool = False  # append forecast-day weather to decoder inputs

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family '{self.family}'")
        if self.target_mode not in TARGET_MODES:
            raise ConfigError(f"unknown target mode '{self.target_mode}'")
        for name in ("units_per_layer", "depth", "input_features", "input_steps",
                     "output_steps", "bins"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.decoder_nwp and self.family in ("ffnn", "lstm", "persistence"):
            raise ConfigError("decoder_nwp applies to encoder-decoder families only")

    @property
    def step_width(self) -> int:
        return self.bins if self.target_mode == "pdf" else 1

    @property
    def attn_width(self) -> int:
        return max(1, self.units_per_layer // 2)

    @property
    def name(self) -> str:
        label = _FAMILY_LABEL[self.family]
        if self.family == "persistence":
            return label
        return f"{label}-{'pdf' if self.target_mode == 'pdf' else 'E'}"


@dataclass
class Forecast:
    """A day-ahead forecast: one entry per hourly step.

    In pdf mode each step is a binned distribution summing to 1; in expected
    mode each step is a scalar in [0, 1] (power normalized by rated maximum).
    """

    mode: str
    steps: np.ndarray  # (output_steps, bins) or (output_steps,)

    def __post_init__(self):
        if self.mode == "pdf":
            sums = self.steps.sum(axis=-1)
            if np.any(self.steps < 0.0) or np.any(np.abs(sums - 1.0) > 1e-9):
                raise ContractError("pdf forecast steps must be distributions summing to 1")
        else:
            if np.any(self.steps < 0.0) or np.any(self.steps > 1.0):
                raise ContractError("expected-value forecast steps must lie in [0, 1]")

    @property
    def expected(self) -> np.ndarray:
        if self.mode == "pdf":
            return expected_value(self.steps)
        return self.steps


def persistence_forecast(history_pdf: np.ndarray) -> Forecast:
    """Repeat the previous day: F(t) = P(t - steps) for each forecast step."""
    history = np.asarray(history_pdf, dtype=np.float64)
    if history.ndim != 2:
        raise ContractError(f"history must be (steps, bins), got shape {history.shape}")
    return Forecast("pdf", history.copy())


class Model:
    """Common surface: parameters(), forward(sample, mode) and batch forward."""

    def __init__(self, config: ModelConfig):
        self.config = config

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []

    def forward_batch(self, inputs: np.ndarray, p0: np.ndarray,
                      teacher: np.ndarray | None, mode: str,
                      nwp_ahead: np.ndarray | None = None) -> Tensor:
        """The whole batch's forecast as one (batch, output_steps, step_width)
        tensor: distributions in pdf mode, unclipped expected values otherwise."""
        raise NotImplementedError

    def forward_samples(self, samples: list[Sample],
                        mode: str = "self_recurrent") -> list[Forecast]:
        """Run the samples through forward_batch in groups of _forward_group
        windows, in order; one Forecast each."""
        cfg = self.config
        _check_decoding(mode)
        group = _forward_group(cfg)
        forecasts = []
        for g0 in range(0, len(samples), group):
            inputs, p0, teacher, nwp = sample_arrays(samples[g0:g0 + group], cfg,
                                                     targets=mode == "teacher_forcing")
            out = self.forward_batch(inputs, p0, teacher, mode, nwp)
            forecasts.extend(assemble_forecast(cfg, s) for s in out.data)
        return forecasts

    def forward(self, sample: Sample, mode: str = "self_recurrent") -> Forecast:
        """Run one sample through the model and assemble a Forecast."""
        return self.forward_samples([sample], mode)[0]


# Estimated activation bytes one forward_samples group may hold: a rough
# target, not a bound. A wider group pays the forward pass's per-step Python
# cost, and streams each weight, once for more windows, so it runs faster; this
# budget keeps evaluate and validation from growing with the number of windows
# they score. _window_bytes estimates one window; one over the budget runs
# alone. Measured untaped peaks of one call (tracemalloc, 480 steps, published
# widths, pdf/E) against 9.44 MB (9 MiB):
#   family    units    windows  peak MB     estimate MB per window
#   ffnn      616/640  1        7.42/7.71   7.10/7.37
#   lstm      184      4        6.96        2.12
#   s2s       128/132  37/36    9.04/9.03   0.25/0.26 (0.24/0.25 measured)
#   s2s_attn  110/115  8        8.47/8.78   1.06/1.10 (1.06/1.10 measured)
# At 32 units and 192 steps (criterion 4) s2s_attn takes 57 windows, 165 KB
# each (163 KB measured). 8 published s2s_attn windows per call run about
# 1.2x faster than the 4 that the whole-sequence encoder's windows allowed;
# streamed at 4 a call they ran 0.95x, so the gain comes from the width. A
# group width also sets the BLAS's rounding of a row, so forecasts may move
# in the last bit with it.
_FORWARD_BYTES = 9 * 2**20


def _window_bytes(cfg: ModelConfig) -> int:
    """Estimated bytes one window holds in an untaped forward_batch call.
    An encoder-decoder window holds its inputs, the keys and values of its
    attention layers, and one _PROJECTION_CHUNK of the streamed encoder's step
    buffers: about seven (chunk, units) arrays, the gate buffer's four, both
    layers' h buffers and the step scratch. A one-block window holds three
    (input_steps, units) arrays, what an ffnn layer's input, affine output
    and tanh output hold."""
    steps, u = cfg.input_steps, cfg.units_per_layer
    if cfg.family not in ("s2s", "s2s_attn"):
        return 8 * 3 * steps * u
    keys_values = 2 * cfg.depth * steps * cfg.attn_width if cfg.family == "s2s_attn" else 0
    return 8 * (steps * cfg.input_features + keys_values + 7 * ad._PROJECTION_CHUNK * u)


def _forward_group(cfg: ModelConfig) -> int:
    """Windows per forward_batch call under the approximate _FORWARD_BYTES
    budget; a window larger than the budget runs alone."""
    return max(1, _FORWARD_BYTES // _window_bytes(cfg))


def _check_decoding(mode: str) -> None:
    if mode not in ("teacher_forcing", "self_recurrent"):
        raise ContractError(f"unknown decoding mode '{mode}'")


def sample_arrays(samples: list[Sample], cfg: ModelConfig, targets: bool = True):
    """Stack samples into forward_batch's arrays: inputs, p0, teacher and nwp.
    teacher is None unless `targets`; nwp is None unless the model decodes
    with forecast-day weather."""
    inputs = np.stack([s.input for s in samples])
    if cfg.target_mode == "pdf":
        p0 = np.stack([s.p0_pdf for s in samples])
    else:
        p0 = np.array([[s.p0_e] for s in samples])
    teacher = None
    if targets:
        if any(s.target_pdf is None for s in samples):
            raise ContractError("sample has no targets")
        if cfg.target_mode == "pdf":
            teacher = np.stack([s.target_pdf for s in samples])
        else:
            teacher = np.stack([s.target_e for s in samples])[:, :, None]
    nwp = None  # forward_batch rejects a decoder_nwp model without weather
    if cfg.decoder_nwp and all(s.nwp_ahead is not None for s in samples):
        nwp = np.stack([s.nwp_ahead for s in samples])
    return inputs, p0, teacher, nwp


def assemble_forecast(cfg: ModelConfig, steps: np.ndarray) -> Forecast:
    """A Forecast from one sample's (output_steps, step_width) outputs."""
    if cfg.target_mode == "pdf":
        return Forecast("pdf", steps)
    return Forecast("expected", np.clip(steps[:, 0], 0.0, 1.0))


class PersistenceModel(Model):
    """Zero-parameter reference: replays the previous day's distributions."""

    def forward(self, sample: Sample, mode: str = "self_recurrent") -> Forecast:
        _check_decoding(mode)
        history = sample.history_pdf
        if history.shape[0] != self.config.output_steps:
            raise ContractError(
                f"history has {history.shape[0]} hours, need {self.config.output_steps}")
        return persistence_forecast(history)

    def forward_samples(self, samples, mode="self_recurrent"):
        """No network to batch: one replay per sample."""
        _check_decoding(mode)
        return [self.forward(s, mode) for s in samples]


class OneBlockModel(Model):
    """Stacked per-step layers followed by the temporal transformation.

    The dense variant shares its weights across time steps; the recurrent
    variant rolls its state over the full input window. Both ignore the
    decoding mode because the whole forecast is produced in one shot.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__(config)
        u = config.units_per_layer
        self.layers = []
        width = config.input_features
        for _ in range(config.depth):
            if config.family == "ffnn":
                self.layers.append(ly.DenseLayer(width, u, activation="tanh", rng=rng))
            else:
                self.layers.append(ly.LstmLayer(width, u, rng=rng))
            width = u
        self.transform = ly.TemporalTransform(config.input_steps, u, config.step_width,
                                              config.output_steps, rng=rng)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layer{i}.{n}", p) for n, p in layer.parameters())
        out.extend((f"transform.{n}", p) for n, p in self.transform.parameters())
        return out

    def forward_batch(self, inputs, p0, teacher, mode, nwp_ahead=None):
        cfg = self.config
        seq = Tensor(inputs)
        for layer in self.layers:
            seq = layer(seq) if cfg.family == "ffnn" else ly.lstm_sequence(layer, seq)[0]
        out = ly.temporal_transform(self.transform, seq)
        return ad.softmax(out) if cfg.target_mode == "pdf" else out


class Seq2SeqModel(Model):
    """Encoder-decoder forecaster, optionally with per-step attention.

    The encoder's final layer states seed the decoder layers; its top-layer
    output sequence serves as keys and values for every attention layer. The
    first decoder step consumes the last observed hour in both modes; later
    steps consume the previous target (teacher forcing) or the model's own
    previous output (self-recurrent).
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__(config)
        u = config.units_per_layer
        feat = config.input_features
        self.attention = config.family == "s2s_attn"
        self.attn_width = config.attn_width

        self.encoder = []
        width = feat
        for _ in range(config.depth):
            self.encoder.append(ly.LstmLayer(width, u, rng=rng))
            width = u

        dec_in = config.step_width + (5 if config.decoder_nwp else 0)
        self.decoder = []
        self.attn = []
        width = dec_in
        for i in range(config.depth):
            if self.attention:
                q_size = dec_in + u if i == 0 else u
                self.attn.append(ly.AttentionLayer(q_size, u, u, self.attn_width, rng=rng))
                width = self.attn_width + (dec_in if i == 0 else u)
            self.decoder.append(ly.LstmLayer(width, u, rng=rng))
            width = u
        self.head = ly.DenseLayer(u, config.step_width, rng=rng)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.encoder):
            out.extend((f"encoder{i}.{n}", p) for n, p in layer.parameters())
        for i, layer in enumerate(self.attn):
            out.extend((f"attention{i}.{n}", p) for n, p in layer.parameters())
        for i, layer in enumerate(self.decoder):
            out.extend((f"decoder{i}.{n}", p) for n, p in layer.parameters())
        out.extend((f"head.{n}", p) for n, p in self.head.parameters())
        return out

    def forward_batch(self, inputs, p0, teacher, mode, nwp_ahead=None):
        cfg = self.config
        if mode == "teacher_forcing" and teacher is None:
            raise ContractError("teacher forcing requires target values")
        if cfg.decoder_nwp and nwp_ahead is None:
            raise ContractError("decoder_nwp models need forecast-day weather")
        if ad._active_tape() is None:
            dec_states, keys_values = self._encode_streamed(inputs)
        else:  # the backward needs every step, so each layer runs whole
            seq = Tensor(inputs)
            dec_states = []  # the encoder layers' last states seed the decoder layers
            for layer in self.encoder:
                seq, h_last, c_last = ly.lstm_sequence(layer, seq)
                dec_states.append((h_last, c_last))
            # The top layer's outputs are the keys and values of every attention layer.
            keys_values = [layer.project_keys_values(seq, seq) for layer in self.attn]

        reads = ([ly.attend_projected(a, kv) for a, kv in zip(self.attn, keys_values)]
                 or [None] * cfg.depth)
        if mode == "teacher_forcing" and self.attention:
            # Step t reads the teacher row t-1, and the first step reads p0.
            x = (Tensor(np.concatenate((p0[:, None], teacher[:, :-1]), axis=1)),)
            x += (Tensor(nwp_ahead),) if cfg.decoder_nwp else ()
            for layer, state, read in zip(self.decoder, dec_states, reads):
                x = ly.lstm_sequence(layer, x, state, read)[0]
            return ad.stack([self._head(h) for h in ad.unstack(x, axis=1)], axis=1)

        feedback = Tensor(p0)
        outputs = []
        for t in range(cfg.output_steps):
            step_in = Tensor(teacher[:, t - 1]) if t and mode == "teacher_forcing" else feedback
            x = (step_in, Tensor(nwp_ahead[:, t])) if cfg.decoder_nwp else (step_in,)
            for i, layer in enumerate(self.decoder):
                dec_states[i] = ly.lstm_step(layer, x, dec_states[i], reads[i])
                x = dec_states[i][0]
            out = self._head(x)
            feedback = out if cfg.target_mode == "pdf" else Tensor(np.clip(out.data, 0.0, 1.0))
            outputs.append(out)
        return ad.stack(outputs, axis=1)

    def _head(self, h: Tensor) -> Tensor:
        """One step's forecast from the top decoder layer's h."""
        out = self.head(h)
        return ad.softmax(out) if self.config.target_mode == "pdf" else out

    def _encode_streamed(self, inputs: np.ndarray):
        """The untaped encoder, run _PROJECTION_CHUNK steps at a time: each
        layer carries its (h, c) from chunk to chunk, and each top-layer chunk
        goes straight through every attention layer's key and value
        projections, so no layer's full output sequence is ever held. Returns
        the layers' last states and each attention layer's (keys, values).
        These equal the whole-sequence path's bitwise, except where the BLAS
        runs a chunk's smaller key and value GEMMs on another kernel, which
        may round them differently in the last bit."""
        batch, steps = inputs.shape[:2]
        states = [layer.initial_state(batch) for layer in self.encoder]
        keys = [np.empty((batch, self.attn_width, steps)) for _ in self.attn]
        values = [np.empty((batch, steps, self.attn_width)) for _ in self.attn]
        for t0 in range(0, steps, ad._PROJECTION_CHUNK):
            t1 = min(t0 + ad._PROJECTION_CHUNK, steps)
            seq = Tensor(inputs[:, t0:t1])
            for i, layer in enumerate(self.encoder):
                seq, h, c = ad.lstm_layer(seq, *states[i], layer.w_x, layer.w_h, layer.bias)
                states[i] = (h, c)
            # The chunk's top-layer outputs as step-major rows, the layout
            # lstm_layer keeps them in: one key and one value GEMM per chunk.
            n = t1 - t0
            rows = seq.data.swapaxes(0, 1).reshape(n * batch, -1)
            for layer, k, v in zip(self.attn, keys, values):
                k[..., t0:t1] = (ly.dense_forward(layer.w_k, rows).data
                                 .reshape(n, batch, -1).transpose(1, 2, 0))
                v[:, t0:t1] = (ly.dense_forward(layer.w_v, rows).data
                               .reshape(n, batch, -1).swapaxes(0, 1))
            del rows  # the next chunk's layers run without this one's buffers
        return states, list(zip(keys, values))


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Construct a fully initialized model for the configured family."""
    rng = np.random.default_rng(seed)
    if config.family == "persistence":
        return PersistenceModel(config)
    if config.family in ("ffnn", "lstm"):
        return OneBlockModel(config, rng)
    return Seq2SeqModel(config, rng)


def count_parameters(model: Model) -> int:
    return sum(p.data.size for _, p in model.parameters())


# Published per-family layer widths for the ~425k-parameter comparison grid.
BENCHMARK_UNITS = {
    ("ffnn", "expected"): 640,
    ("ffnn", "pdf"): 616,
    ("lstm", "expected"): 184,
    ("lstm", "pdf"): 184,
    ("s2s", "expected"): 132,
    ("s2s", "pdf"): 128,
    ("s2s_attn", "expected"): 115,
    ("s2s_attn", "pdf"): 110,
}


def benchmark_config(family: str, target_mode: str, **overrides) -> ModelConfig:
    """Config with the published unit count for a family/mode pair."""
    units = BENCHMARK_UNITS[(family, target_mode)]
    cfg = ModelConfig(family=family, target_mode=target_mode, units_per_layer=units)
    return replace(cfg, **overrides) if overrides else cfg
