import ast
import dataclasses
import pathlib

import pytest

import mixtrack
from mixtrack.config import (
    RunConfig,
    format_run_config,
    load_run_config,
    parse_run_config,
)
from mixtrack.errors import ConfigError, ParseError
from mixtrack.train import TrainConfig

DEFAULT_TEXT = """\
preset = mixformer
attention = asymmetric
update_interval = 200
score_threshold = 0.5
online_templates = 1
seed = 0
stage1_iters = 2000
stage2_iters = 500
batch_size = 4
lr = 0.0001
decay_fraction = 0.8
weight_decay = 0.0001
clip_norm = 0.1
flip = true
brightness = true
max_gap = 8
search_factor = 5.0
template_factor = 2.0
"""

# every field away from its default
NON_DEFAULT = dict(
    preset="tiny", attention="full", update_interval=7,
    score_threshold=0.25, search_factor=4.5, template_factor=2.5,
    online_templates=2, seed=5, stage1_iters=11, stage2_iters=3,
    batch_size=2, lr=3e-4, decay_fraction=0.5, weight_decay=2e-4,
    clip_norm=0.2, flip=False, brightness=False, max_gap=4,
)


class TestDefaults:
    def test_documented_defaults(self):
        cfg = RunConfig()
        assert cfg.preset == "mixformer"
        assert cfg.attention == "asymmetric"
        assert cfg.update_interval == 200
        assert cfg.score_threshold == 0.5
        assert cfg.online_templates == 1
        assert cfg.templates == 2

    def test_train_config_mapping(self):
        cfg = RunConfig(**NON_DEFAULT)
        assert isinstance(cfg, TrainConfig)
        t = cfg.to_train_config()
        assert type(t) is TrainConfig
        for f in dataclasses.fields(TrainConfig):
            assert getattr(t, f.name) == getattr(cfg, f.name) == NON_DEFAULT[f.name]

    def test_crop_params_mapping(self):
        cfg = RunConfig(search_factor=4.0, template_factor=2.5)
        cp = cfg.crop_params()
        assert cp.search_factor == 4.0
        assert cp.template_factor == 2.5

    @pytest.mark.parametrize("kwargs", [
        {"preset": "huge"},
        {"template_factor": float("inf")},
        {"attention": "dense"},
        {"update_interval": 0},
        {"score_threshold": 1.5},
        {"online_templates": -1},
        {"search_factor": 0.5},
        {"stage1_iters": 0},
        {"lr": -1.0},
        {"search_factor": float("nan")},
        {"search_factor": float("inf")},
        {"template_factor": float("nan")},
        {"lr": float("nan")},
        {"score_threshold": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


class TestParsing:
    def test_full_file(self):
        text = """
        # tracker settings
        preset = tiny
        attention = full

        update_interval = 50   # refresh often
        score_threshold = 0.6
        online_templates = 2
        seed = 9
        stage1_iters = 12
        lr = 0.0002
        flip = false
        """
        cfg = parse_run_config(text)
        assert cfg.preset == "tiny"
        assert cfg.attention == "full"
        assert cfg.update_interval == 50
        assert cfg.score_threshold == 0.6
        assert cfg.templates == 3
        assert cfg.seed == 9
        assert cfg.stage1_iters == 12
        assert cfg.lr == 0.0002
        assert cfg.flip is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'presett'"):
            parse_run_config("presett = tiny\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config("seed = 1\nseed = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_run_config("preset = tiny\nbroken line\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("line", [
        "seed = banana",
        "lr = fast",
        "flip = maybe",
        "stage1_iters = 1.5",
        "search_factor = nan",
        "search_factor = inf",
        "template_factor = nan",
        "lr = nan",
    ])
    def test_bad_value_types(self, line):
        with pytest.raises(ConfigError):
            parse_run_config(line)

    @pytest.mark.parametrize("word,value", [
        ("true", True), ("false", False), ("YES", True), ("no", False),
        ("1", True), ("0", False),
    ])
    def test_bool_words(self, word, value):
        cfg = parse_run_config(f"brightness = {word}\n")
        assert cfg.brightness is value

    def test_empty_text_gives_defaults(self):
        assert parse_run_config("") == RunConfig()

    def test_format_parse_round_trip(self):
        cfg = RunConfig(preset="tiny", attention="full", update_interval=7,
                        flip=False, lr=5e-5, seed=123)
        assert parse_run_config(format_run_config(cfg)) == cfg

    def test_every_field_round_trips(self):
        cfg = RunConfig(**NON_DEFAULT)
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)}
        for key, value in NON_DEFAULT.items():
            assert getattr(RunConfig(), key) != value
        assert parse_run_config(format_run_config(cfg)) == cfg

    def test_default_text_is_pinned(self):
        """Checkpoints embed this text, so its keys, order and spelling of
        values must not drift."""
        assert format_run_config(RunConfig()) == DEFAULT_TEXT

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = tiny\nseed = 4\n")
        cfg = load_run_config(path)
        assert cfg.preset == "tiny"
        assert cfg.seed == 4

    def test_build_model_respects_keys(self):
        cfg = parse_run_config(
            "preset = tiny\nattention = full\nonline_templates = 0\n"
        )
        model = cfg.build_model()
        assert model.config.templates == 1
        assert model.config.mode == "full"


# The package's settable values: parameters with a default, plus dataclass
# fields.  A change that adds an option raises this ceiling in its own diff
# and gives the reason in CHANGES.md.
SETTABLE_CEILING = 87


def settable_values():
    """``module.function(param)`` of each parameter with a default and
    ``module.Class.field`` of each dataclass field in the package."""
    found = []
    for path in sorted(pathlib.Path(mixtrack.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                name = getattr(node, "name", "<lambda>")
                found += [f"{path.stem}.{name}({arg.arg})" for arg in defaulted]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [f"{path.stem}.{node.name}.{ast.unparse(s.target)}"
                          for s in node.body if isinstance(s, ast.AnnAssign)]
    return found


def test_settable_values_stay_under_the_ceiling():
    found = settable_values()
    assert len(found) <= SETTABLE_CEILING, "\n".join(found)
