"""Full tracking model: the backbone, the corner head on its search
features, and the score predictor.  Every parameter is a view of the
model's float32 ``arena``, in named order.

Two constructors: ``build_model`` draws a new model's values, and
``load_model`` builds one around a checkpoint's arrays without drawing.
"""

import numpy as np

from . import backbone as bb
from . import nn
from .checkpoint import Stored
from .heads import CornerHead
from .spm import ScorePredictor


class TrackModel(nn.Module):
    def __init__(self, bb_config, init):
        """The modules, with initial values from ``init`` (an ``nn.Draw``,
        or a ``checkpoint.Stored``), whose ``pack`` then fills the arena."""
        self.config = bb_config
        self.backbone = bb.Backbone(bb_config, init)
        dim = bb_config.out_dim
        self.head = CornerHead(dim, init)
        per_template = bb_config.stage_layouts()[-1].tokens_per_template
        self.score = ScorePredictor(dim, per_template, init)
        self.arena = init.pack(self.named_params())

    def stage_params(self, score):
        """(arena slice, tensors) of the score head if ``score``, else of all
        other parameters; the score head, built last, is the arena's tail."""
        params = list(self.named_params().values())
        split = len(params) - len(self.score.named_params())
        offset = sum(p.data.size for p in params[:split])
        if score:
            return self.arena[offset:], params[split:]
        return self.arena[:offset], params[:split]

    def forward_box(self, templates, search, cache=None):
        """Predict [B, 4] normalized corner boxes over the search crop.

        With a ``TemplateCache`` from ``backbone.forward_template`` the
        templates are not read and the search runs against the cache.
        Returns (boxes, search_feat, template_tokens); the extras feed the
        score predictor.
        """
        if cache is None:
            feat, tmpl = self.backbone.forward(templates, search)
        else:
            feat, tmpl = self.backbone.forward_search(search, cache)
        return self.head(feat), feat, tmpl

    def predict_score(self, search_feat, box, template_tokens):
        """Confidence of one unbatched prediction.

        search_feat is [C, h, w], template_tokens the full final template
        sequence [L, C]; only the initial template's rows are read.
        """
        return self.score(search_feat, box, template_tokens)


def build_model(preset="mixformer", mode="asymmetric", templates=2, seed=0):
    """Construct a TrackModel with deterministic initialization."""
    cfg = bb.preset(preset, templates=templates, mode=mode)
    rng = np.random.default_rng(np.random.SeedSequence([0x6D6978, int(seed)]))
    return TrackModel(cfg, nn.Draw(rng))


def load_model(arrays, preset, mode, templates):
    """A TrackModel holding checkpoint ``arrays`` (name -> array), built
    without the random draw: the arena is allocated once and each array is
    copied into it once.  Names, shapes and values are checked as
    ``checkpoint.load_state`` checks them."""
    cfg = bb.preset(preset, templates=templates, mode=mode)
    return TrackModel(cfg, Stored(arrays))
