"""Iterative audio-visual correlation head used at the supervised stages.

Layer-weighted aggregation of per-layer region-token snapshots feeds a chain
of DiER units (parallel self/cross attention with sigmoid channel gating per
modality, plus one shared evolutionary-refinement layer that updates the
multimodal feature), then a HAFE layer that fuses the per-unit features
across granularities and feeds the multimodal state back, and finally a
pooled linear head.

The refinement layer is a single block: its parameters are shared across all
units and across both modalities.

Every tensor carries a leading sample axis: the head runs a whole batch in
one pass.
"""

from __future__ import annotations

import numpy as np

from .blocks import (DEFAULT_DTYPE, Attention, Block, BlockList, ConvBNPReLU,
                     FeedForward, LayerNorm, Linear, Parameter, sigmoid,
                     sigmoid_backward, softmax, softmax_backward, trunc_normal)
from .config import ModelConfig


class DenseInteraction(Block):
    """One modality's parallel self/cross attention with channel gates."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.norm_self = LayerNorm(dim)
        self.attn_self = Attention(dim, heads, rng)
        self.norm_cq = LayerNorm(dim)
        self.norm_ckv = LayerNorm(dim)
        self.attn_cross = Attention(dim, heads, rng)
        self.gate_self = Linear(2 * dim, dim, rng)
        self.gate_cross = Linear(2 * dim, dim, rng)

    def forward(self, own: np.ndarray, partner: np.ndarray) -> np.ndarray:
        f_s = own + self.attn_self.forward(self.norm_self.forward(own))
        f_c = own + self.attn_cross.forward(self.norm_cq.forward(own),
                                            self.norm_ckv.forward(partner))
        f_sc = np.concatenate([f_s, f_c], axis=-1)
        g_s = sigmoid(self.gate_self.forward(f_sc))
        g_c = sigmoid(self.gate_cross.forward(f_sc))
        out = g_s * f_s + g_c * f_c
        self._save(f_s, f_c, g_s, g_c)
        return out

    def backward(self, d_out: np.ndarray):
        f_s, f_c, g_s, g_c = self._load()
        d_fs = d_out * g_s
        d_fc = d_out * g_c
        d_gc = sigmoid_backward(g_c, d_out * f_c)
        d_gs = sigmoid_backward(g_s, d_out * f_s)
        d_fsc = self.gate_cross.backward(d_gc) + self.gate_self.backward(d_gs)
        d_fs = d_fs + d_fsc[..., :self.dim]
        d_fc = d_fc + d_fsc[..., self.dim:]
        d_q, d_kv = self.attn_cross.backward(d_fc, self.norm_cq.output(),
                                             self.norm_ckv.output())
        d_own = d_fc + self.norm_cq.backward(d_q)
        d_partner = self.norm_ckv.backward(d_kv)
        d_sq, d_skv = self.attn_self.backward(d_fs, self.norm_self.output())
        d_own = d_own + d_fs + self.norm_self.backward(d_sq + d_skv)
        return d_own, d_partner


class DiERUnit(Block):
    """Per-unit dense interactions; the refinement layer is passed in."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.dense_a = DenseInteraction(dim, heads, rng)
        self.dense_v = DenseInteraction(dim, heads, rng)

    def forward(self, f1_a: np.ndarray, f1_v: np.ndarray):
        f2_a = self.dense_a.forward(f1_a, f1_v)
        f2_v = self.dense_v.forward(f1_v, f1_a)
        return f2_a, f2_v

    def backward(self, d2_a: np.ndarray, d2_v: np.ndarray):
        d_v_own, d_a_partner = self.dense_v.backward(d2_v)
        d_a_own, d_v_partner = self.dense_a.backward(d2_a)
        return d_a_own + d_a_partner, d_v_own + d_v_partner


class RefinementLayer(Block):
    """Shared evolutionary refinement of the multimodal feature.

    Single-head cross-attention pulls each modality's unit output into the
    multimodal query, a 1x1 conv + batch-norm + PReLU stack produces the
    residuals, and the sum is layer-normalised. One instance serves every
    unit and both modalities.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_linear = Linear(2 * dim, dim, rng)
        self.shca = Attention(dim, 1, rng)
        self.conv = ConvBNPReLU(dim, rng)
        self.norm = LayerNorm(dim)

    def refine(self, f_av: np.ndarray, f2_a: np.ndarray, f2_v: np.ndarray,
               training: bool = True) -> np.ndarray:
        r_a = self.conv.forward(self.shca.forward(f_av, f2_a), training=training)
        r_v = self.conv.forward(self.shca.forward(f_av, f2_v), training=training)
        # shca's inputs, for its backward: f_av is the input projection's
        # output in the first unit, so no LayerNorm rebuilds it there
        self._save(f_av, f2_a, f2_v)
        return self.norm.forward(f_av + r_a + r_v)

    def refine_backward(self, d_out: np.ndarray):
        f_av, f2_a, f2_v = self._load()
        d_sum = self.norm.backward(d_out)
        d_hv = self.conv.backward(d_sum)
        d_qv, d_f2_v = self.shca.backward(d_hv, f_av, f2_v)
        d_ha = self.conv.backward(d_sum)
        d_qa, d_f2_a = self.shca.backward(d_ha, f_av, f2_a)
        return d_sum + d_qv + d_qa, d_f2_a, d_f2_v


class HAFELayer(Block):
    """Hierarchical aggregation over unit outputs with multimodal feedback."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.norm_units = LayerNorm(dim)
        self.attn_units = Attention(dim, heads, rng)
        self.norm_ffn1 = LayerNorm(dim)
        self.ffn1 = FeedForward(dim, rng)
        self.gate = Linear(dim, dim, rng)
        self.norm_fq = LayerNorm(dim)
        self.norm_fkv = LayerNorm(dim)
        self.cross = Attention(dim, heads, rng)
        self.norm_ffn2 = LayerNorm(dim)
        self.ffn2 = FeedForward(dim, rng)

    def forward(self, stack: np.ndarray, f_av: np.ndarray) -> np.ndarray:
        """stack: [S, n_units, K, C]; f_av: [S, K, C] -> [S, K, C]."""
        normed = self.norm_units.forward(stack)
        # unit-axis attention, batched over token positions
        att = self.attn_units.forward(normed.swapaxes(1, 2))
        h = stack + att.swapaxes(1, 2)
        gamma = h + self.ffn1.forward(self.norm_ffn1.forward(h))
        g = sigmoid(self.gate.forward(gamma))
        f3 = np.sum(g * gamma, axis=1)
        f4 = f3 + self.cross.forward(self.norm_fq.forward(f3),
                                     self.norm_fkv.forward(f_av))
        out = f4 + self.ffn2.forward(self.norm_ffn2.forward(f4))
        self._save(gamma, g)
        return out

    def backward(self, d_out: np.ndarray):
        gamma, g = self._load()
        d_f4 = d_out + self.norm_ffn2.backward(
            self.ffn2.backward(d_out, self.norm_ffn2.output()))
        d_q, d_kv = self.cross.backward(d_f4, self.norm_fq.output(), self.norm_fkv.output())
        d_f3 = d_f4 + self.norm_fq.backward(d_q)
        d_fav = self.norm_fkv.backward(d_kv)
        d_gamma = g * d_f3[:, None]
        d_g = sigmoid_backward(g, gamma * d_f3[:, None])
        d_gamma = d_gamma + self.gate.backward(d_g)
        d_h = d_gamma + self.norm_ffn1.backward(
            self.ffn1.backward(d_gamma, self.norm_ffn1.output()))
        d_stack = d_h.copy()
        d_aq, d_akv = self.attn_units.backward(d_h.swapaxes(1, 2),
                                               self.norm_units.output().swapaxes(1, 2))
        d_normed = (d_aq + d_akv).swapaxes(1, 2)
        d_stack += self.norm_units.backward(d_normed)
        return d_stack, d_fav


class IAVCLHead(Block):
    """Full fine-tuning fusion head over per-layer region-token snapshots."""

    def __init__(self, cfg: ModelConfig, num_outputs: int, rng: np.random.Generator):
        super().__init__()
        dim = cfg.encoder_dim
        self.cfg = cfg
        self.num_outputs = num_outputs
        self.n_layers = cfg.encoder_depth
        self.layer_logits_a = Parameter(np.zeros(self.n_layers, dtype=DEFAULT_DTYPE))
        self.layer_logits_v = Parameter(np.zeros(self.n_layers, dtype=DEFAULT_DTYPE))
        self.units = BlockList([DiERUnit(dim, cfg.encoder_heads, rng)
                                for _ in range(cfg.num_dier_units)])
        self.er = RefinementLayer(dim, rng)
        self.hafe_a = HAFELayer(dim, cfg.encoder_heads, rng)
        self.hafe_v = HAFELayer(dim, cfg.encoder_heads, rng)
        self.head = Linear(2 * dim, num_outputs, rng)

    def layer_weights(self):
        """Normalised per-layer aggregation weights (each sums to one)."""
        return softmax(self.layer_logits_a.data), softmax(self.layer_logits_v.data)

    def reinit_head(self, rng: np.random.Generator):
        weight = self.head.weight.data
        weight[...] = trunc_normal(rng, weight.shape)
        self.head.bias.data[...] = 0.0

    def forward(self, snaps_a: list[np.ndarray], snaps_v: list[np.ndarray],
                training: bool = True) -> np.ndarray:
        """Per-layer snapshots [S, K, C] of each modality -> logits [S, outputs]."""
        if len(snaps_a) != self.n_layers or len(snaps_v) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} snapshots per modality, got "
                f"{len(snaps_a)}/{len(snaps_v)}")
        stack_a = np.stack(snaps_a, axis=1)          # [S, N_l, K, C]
        stack_v = np.stack(snaps_v, axis=1)
        alpha_a, alpha_v = self.layer_weights()
        n, n_l, k, c = stack_a.shape
        agg_a = (alpha_a @ stack_a.reshape(n, n_l, k * c)).reshape(n, k, c)
        agg_v = (alpha_v @ stack_v.reshape(n, n_l, k * c)).reshape(n, k, c)
        f_av0 = np.concatenate([agg_a, agg_v], axis=-1)
        f1_a = stack_a.mean(axis=1)
        f1_v = stack_v.mean(axis=1)

        f_av = self.er.input_linear.forward(f_av0)
        preserved_a, preserved_v = [], []
        for unit in self.units:
            f2_a, f2_v = unit.forward(f1_a, f1_v)
            f_av = self.er.refine(f_av, f2_a, f2_v, training=training)
            preserved_a.append(f2_a)
            preserved_v.append(f2_v)
            f1_a, f1_v = f2_a, f2_v

        f4_a = self.hafe_a.forward(np.stack(preserved_a, axis=1), f_av)
        f4_v = self.hafe_v.forward(np.stack(preserved_v, axis=1), f_av)
        pooled = np.concatenate([f4_a.mean(axis=1), f4_v.mean(axis=1)], axis=-1)
        out = self.head.forward(pooled[:, None])[:, 0]
        self._save(stack_a, stack_v, alpha_a, alpha_v, k)
        return out

    def backward(self, d_out: np.ndarray):
        stack_a, stack_v, alpha_a, alpha_v, k = self._load()
        d_pooled = self.head.backward(d_out[:, None])[:, 0]
        dim = d_pooled.shape[-1] // 2
        d_f4_a = np.repeat(d_pooled[:, None, :dim] / k, k, axis=1)
        d_f4_v = np.repeat(d_pooled[:, None, dim:] / k, k, axis=1)

        d_stack_pv, d_fav_v = self.hafe_v.backward(d_f4_v)
        d_stack_pa, d_fav_a = self.hafe_a.backward(d_f4_a)
        d_fav = d_fav_v + d_fav_a

        # each unit's input gradient feeds the unit before it; unit 0's is d_f1
        d_f1_a = np.zeros_like(d_f4_a)
        d_f1_v = np.zeros_like(d_f4_v)
        for idx in reversed(range(len(self.units))):
            d_fav, d_f2_a, d_f2_v = self.er.refine_backward(d_fav)
            d_f2_a = d_f2_a + d_stack_pa[:, idx] + d_f1_a
            d_f2_v = d_f2_v + d_stack_pv[:, idx] + d_f1_v
            d_f1_a, d_f1_v = self.units[idx].backward(d_f2_a, d_f2_v)

        d_f_av0 = self.er.input_linear.backward(d_fav)
        d_agg_a = d_f_av0[..., :dim]
        d_agg_v = d_f_av0[..., dim:]

        d_snaps_a = [alpha_a[l] * d_agg_a + d_f1_a / self.n_layers
                     for l in range(self.n_layers)]
        d_snaps_v = [alpha_v[l] * d_agg_v + d_f1_v / self.n_layers
                     for l in range(self.n_layers)]
        n = len(d_out)
        d_alpha_a = np.add.reduce((d_agg_a[:, None] * stack_a).reshape(n, self.n_layers, -1),
                                  axis=-1)
        d_alpha_v = np.add.reduce((d_agg_v[:, None] * stack_v).reshape(n, self.n_layers, -1),
                                  axis=-1)
        g_logits_a, g_logits_v = self._grad_slots(n)
        g_logits_a[...] = softmax_backward(alpha_a, d_alpha_a)
        g_logits_v[...] = softmax_backward(alpha_v, d_alpha_v)
        self._fold_grads()
        return d_snaps_a, d_snaps_v
