"""Plain-text run configuration.

One ``key = value`` per line; blank lines and ``#`` comments are
ignored.  Unknown keys are rejected rather than skipped so a typo never
silently runs with a default.
"""

import dataclasses
from dataclasses import dataclass

from . import backbone as bb
from .attention import check_mode
from .errors import ConfigError, ParseError
from .model import HEAD_TYPES, build_model
from .tracker import CropParams
from .train import TrainConfig

PRESETS = bb.PRESET_NAMES

_BOOL_WORDS = {
    "true": True, "false": False, "yes": True, "no": False,
    "1": True, "0": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a train or track run needs, with documented defaults."""

    preset: str = "mixformer"
    head: str = "corner"
    attention: str = "asymmetric"
    update_interval: int = 200
    score_threshold: float = 0.5
    search_factor: float = 5.0
    template_factor: float = 2.0
    online_templates: int = 1
    seed: int = 0
    stage1_iters: int = 2000
    stage2_iters: int = 500
    batch_size: int = 4
    lr: float = 1e-4
    decay_fraction: float = 0.8
    weight_decay: float = 1e-4
    clip_norm: float = 0.1
    flip: bool = True
    brightness: bool = True
    max_gap: int = 8

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(
                f"preset must be one of {PRESETS}, got {self.preset!r}"
            )
        if self.head not in HEAD_TYPES:
            raise ConfigError(
                f"head must be one of {HEAD_TYPES}, got {self.head!r}"
            )
        check_mode(self.attention)
        if self.update_interval < 1:
            raise ConfigError(
                f"update_interval must be >= 1, got {self.update_interval}"
            )
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError(
                f"score_threshold must lie in [0, 1], got {self.score_threshold}"
            )
        if self.online_templates < 0:
            raise ConfigError(
                f"online_templates must be >= 0, got {self.online_templates}"
            )
        self.crop_params()
        self.to_train_config()

    @property
    def templates(self):
        """Total template slots: the static one plus the online ones."""
        return 1 + self.online_templates

    def crop_params(self):
        return CropParams(search_factor=self.search_factor,
                          template_factor=self.template_factor)

    def to_train_config(self):
        return TrainConfig(
            stage1_iters=self.stage1_iters, stage2_iters=self.stage2_iters,
            batch_size=self.batch_size, lr=self.lr,
            decay_fraction=self.decay_fraction,
            weight_decay=self.weight_decay, clip_norm=self.clip_norm,
            flip=self.flip, brightness=self.brightness,
            max_gap=self.max_gap, seed=self.seed,
        )

    def backbone_config(self):
        return bb.preset(self.preset, templates=self.templates,
                         mode=self.attention)

    def build_model(self):
        return build_model(self.preset, head=self.head, mode=self.attention,
                           templates=self.templates, seed=self.seed)


def _convert(key, value, kind):
    if kind is bool:
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{key} expects a boolean, got {value!r}")
        return _BOOL_WORDS[word]
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {value!r}") from None
    if kind is float:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key} expects a number, got {value!r}") from None
    return value


def parse_run_config(text):
    """Parse key = value lines into a RunConfig."""
    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    defaults = RunConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        values[key] = _convert(key, value, type(getattr(defaults, key)))
    return RunConfig(**values)


def load_run_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def format_run_config(cfg):
    """Render a RunConfig as parseable key = value text."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
