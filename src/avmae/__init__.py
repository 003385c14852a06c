"""Desk-scale audio-visual masked autoencoder with dual masking,
local-global modality encoders, an iterative correlation head, and
finite-difference-verified hand-written gradients."""

from .blocks import (Attention, Block, ConvBNPReLU, FeedForward, LayerNorm,
                     Linear, Parameter)
from .config import (ModelConfig, TrainConfig, desk_train_config,
                     fullscale_train_config, preset, preset_names, validate)
from .embedding import AudioEmbed, RawClip, VideoEmbed
from .encoder import LGIEncoder, partition
from .finetune import FinetuneModel
from .gradcheck import GradCheckReport, grad_check
from .iavcl import IAVCLHead
from .losses import cross_entropy_ls, info_nce, masked_mse
from .masking import MaskPair, assemble_combined, random_mask, running_cell_mask, tube_mask
from .pretrain import PretrainModel, make_mask_pairs
from .training import AdamW, SyntheticTask, gen_synthetic, lr_at, run_stage

__version__ = "0.1.0"
