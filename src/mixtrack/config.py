"""Plain-text run configuration.

One ``key = value`` per line; blank lines and ``#`` comments are
ignored.  Unknown keys are rejected rather than skipped so a typo never
silently runs with a default.
"""

import dataclasses
from dataclasses import dataclass

from . import backbone as bb
from .data import _read_text
from .errors import ConfigError, ParseError
from .model import build_model, load_model
from .tracker import _check_update
from .train import TrainConfig

_BOOL_WORDS = {
    "true": True, "false": False, "yes": True, "no": False,
    "1": True, "0": False,
}


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Everything a train or track run needs, with documented defaults.

    The training settings are TrainConfig's fields, crop factors included,
    so a RunConfig is the TrainConfig both training stages take, and its
    crops are the tracker's.
    """

    preset: str = "mixformer"
    attention: str = "asymmetric"
    update_interval: int = 200
    score_threshold: float = 0.5
    online_templates: int = 1

    def __post_init__(self):
        super().__post_init__()
        _check_update(self.update_interval, self.score_threshold)
        self.backbone_config()

    @property
    def templates(self):
        """Total template slots: the static one plus the online ones."""
        return 1 + self.online_templates

    def to_train_config(self):
        return TrainConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(TrainConfig)})

    def backbone_config(self):
        return bb.preset(self.preset, templates=self.templates,
                         mode=self.attention)

    def build_model(self):
        return build_model(self.preset, mode=self.attention,
                           templates=self.templates, seed=self.seed)

    def load_model(self, arrays):
        """This config's model holding checkpoint ``arrays``, with no random
        draw (``model.load_model``)."""
        return load_model(arrays, self.preset, mode=self.attention,
                          templates=self.templates)


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
        values[key] = _convert(key, value, kinds[key])
    return RunConfig(**values)


def load_run_config(path):
    return parse_run_config(_read_text(path))


def format_run_config(cfg):
    """Render a RunConfig as parseable key = value text: its own fields,
    then the training ones."""
    inherited = dataclasses.fields(TrainConfig)
    own = dataclasses.fields(RunConfig)[len(inherited):]
    lines = []
    for f in own + inherited:
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
