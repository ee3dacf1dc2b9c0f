"""Full tracking model: backbone plus one localization head plus the score
predictor.  The head type is interchangeable; both operate on the same
backbone outputs, so checkpoints differ only in head parameters.
"""

import numpy as np

from . import backbone as bb
from . import nn
from .errors import ConfigError
from .heads import CornerHead, QueryHead
from .spm import ScorePredictor

HEAD_TYPES = ("corner", "query")


class TrackModel(nn.Module):
    def __init__(self, bb_config, head_type, rng):
        if head_type not in HEAD_TYPES:
            raise ConfigError(
                f"head must be one of {HEAD_TYPES}, got {head_type!r}"
            )
        self.config = bb_config
        self.head_type = head_type
        self.backbone = bb.Backbone(bb_config, rng)
        dim = bb_config.out_dim
        if head_type == "corner":
            self.head = CornerHead(dim, rng)
        else:
            self.head = QueryHead(dim, rng)
        self.score = ScorePredictor(dim, rng)

    def forward_box(self, templates, search, cache=None):
        """Predict [B, 4] normalized corner boxes over the search crop.

        With a ``TemplateCache`` from ``backbone.forward_template`` the
        templates are not read and the search runs against the cache.
        Returns (boxes, search_feat, template_tokens); the extras feed the
        score predictor.
        """
        reg = self.head.token if self.head_type == "query" else None
        if cache is None:
            feat, tmpl, reg_out = self.backbone.forward(templates, search, reg_token=reg)
        else:
            feat, tmpl, reg_out = self.backbone.forward_search(search, cache, reg_token=reg)
        box = self.head(reg_out if self.head_type == "query" else feat)
        return box, feat, tmpl

    def tokens_per_template(self):
        return self.config.stage_layouts()[-1].tokens_per_template

    def predict_score(self, search_feat, box, template_tokens):
        """Confidence of one unbatched prediction.

        search_feat is [C, h, w], template_tokens the full final template
        sequence [L, C]; only the initial template's rows are read.
        """
        return self.score(
            search_feat, box, template_tokens, per_template=self.tokens_per_template()
        )


def build_model(preset="mixformer", head="corner", mode="asymmetric", templates=2, seed=0):
    """Construct a TrackModel with deterministic initialization."""
    cfg = bb.preset(preset, templates=templates, mode=mode)
    rng = np.random.default_rng(np.random.SeedSequence([0x6D6978, int(seed)]))
    return TrackModel(cfg, head, rng)
