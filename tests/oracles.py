"""Straight-line reference implementations used as independent oracles.

Everything here is written with explicit per-head / per-region / per-row
loops and reads parameters directly off the production blocks, so the only
thing shared with the library is the parameter values. No batching, no
grouping, no cache machinery.
"""

import math
from dataclasses import dataclass

import numpy as np

from avmae.blocks import LAYERNORM_EPS, softmax
from avmae.encoder import SizeGroup


def oracle_softmax_row(row):
    shifted = row - row.max()
    e = np.exp(shifted)
    return e / e.sum()


def oracle_attention(q_in, kv_in, att):
    """Per-head loop evaluation of multi-head scaled-dot-product attention."""
    heads = att.heads
    d = att.head_dim
    wq, wk, wv = att.w_q.data, att.w_k.data, att.w_v.data
    bq, bk, bv = att.b_q.data, att.b_k.data, att.b_v.data
    head_outs = []
    for j in range(heads):
        sl = slice(j * d, (j + 1) * d)
        qj = q_in @ wq[:, sl] + bq[sl]
        kj = kv_in @ wk[:, sl] + bk[sl]
        vj = kv_in @ wv[:, sl] + bv[sl]
        scores = qj @ kj.T / math.sqrt(d)
        probs = np.stack([oracle_softmax_row(r) for r in scores])
        head_outs.append(probs @ vj)
    merged = np.concatenate(head_outs, axis=1)
    return merged @ att.w_o.data + att.b_o.data


def oracle_layernorm(x, ln):
    out = np.empty_like(x)
    flat = x.reshape(-1, x.shape[-1])
    dst = out.reshape(-1, x.shape[-1])
    for i, row in enumerate(flat):
        mu = row.mean()
        var = row.var()
        dst[i] = (row - mu) / math.sqrt(var + LAYERNORM_EPS) * ln.scale.data + ln.shift.data
    return out


def oracle_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def oracle_ffn(x, ffn):
    h = x @ ffn.fc1.weight.data + ffn.fc1.bias.data
    return oracle_gelu(h) @ ffn.fc2.weight.data + ffn.fc2.bias.data


def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_lgi_layer(locals_, s, members, layer):
    """Four attention stages plus the shared feed-forward, region by region."""
    k = len(members)
    locals1 = locals_.copy()
    s1 = np.empty_like(s)
    for i in range(k):
        x = np.concatenate([s[i:i + 1], locals_[members[i]]], axis=0)
        y = x + oracle_attention(oracle_layernorm(x, layer.norm1),
                                 oracle_layernorm(x, layer.norm1), layer.attn_local)
        s1[i] = y[0]
        locals1[members[i]] = y[1:]

    n2 = oracle_layernorm(s1, layer.norm2)
    s2 = s1 + oracle_attention(n2, n2, layer.attn_region)

    locals2 = locals1.copy()
    kv = oracle_layernorm(s2, layer.norm3_kv)
    for i in range(k):
        m = members[i]
        if m.size == 0:
            continue
        q = oracle_layernorm(locals1[m], layer.norm3_q)
        locals2[m] = locals1[m] + oracle_attention(q, kv, layer.cross_local)

    s3 = s2.copy()
    kv_all = oracle_layernorm(locals2, layer.norm4_kv)
    for i in range(k):
        m = members[i]
        if m.size == 0:
            continue
        q = oracle_layernorm(s2[i:i + 1], layer.norm4_q)
        s3[i] = s2[i] + oracle_attention(q, kv_all[m], layer.cross_region)[0]

    locals3 = locals2 + oracle_ffn(oracle_layernorm(locals2, layer.norm_ffn), layer.ffn)
    s4 = s3 + oracle_ffn(oracle_layernorm(s3, layer.norm_ffn), layer.ffn)
    return locals3, s4


def oracle_fusion_block(v, a, block):
    v_mid = v + oracle_attention(oracle_layernorm(v, block.norm_vq),
                                 oracle_layernorm(a, block.norm_vkv), block.attn_v)
    a_mid = a + oracle_attention(oracle_layernorm(a, block.norm_aq),
                                 oracle_layernorm(v, block.norm_akv), block.attn_a)
    v_out = v_mid + oracle_ffn(oracle_layernorm(v_mid, block.norm_vf), block.ffn_v)
    a_out = a_mid + oracle_ffn(oracle_layernorm(a_mid, block.norm_af), block.ffn_a)
    return v_out, a_out


def oracle_decoder_block(x, block):
    n1 = oracle_layernorm(x, block.norm1)
    x = x + oracle_attention(n1, n1, block.attn)
    return x + oracle_ffn(oracle_layernorm(x, block.norm2), block.ffn)


def oracle_dense_interaction(own, partner, dense):
    n_self = oracle_layernorm(own, dense.norm_self)
    f_s = own + oracle_attention(n_self, n_self, dense.attn_self)
    f_c = own + oracle_attention(oracle_layernorm(own, dense.norm_cq),
                                 oracle_layernorm(partner, dense.norm_ckv),
                                 dense.attn_cross)
    f_sc = np.concatenate([f_s, f_c], axis=1)
    g_s = oracle_sigmoid(f_sc @ dense.gate_self.weight.data + dense.gate_self.bias.data)
    g_c = oracle_sigmoid(f_sc @ dense.gate_cross.weight.data + dense.gate_cross.bias.data)
    return g_s * f_s + g_c * f_c


def oracle_conv_bn_prelu_train(x, conv):
    y = x @ conv.conv.weight.data + conv.conv.bias.data
    mu = y.mean(axis=0)
    var = y.var(axis=0)
    z = (y - mu) / np.sqrt(var + 1e-5) * conv.bn_scale.data + conv.bn_shift.data
    slope = conv.prelu_slope.data
    return np.where(z < 0, z * slope, z)


def oracle_refine(f_av, f2_a, f2_v, er):
    r_a = oracle_conv_bn_prelu_train(oracle_attention(f_av, f2_a, er.shca), er.conv)
    r_v = oracle_conv_bn_prelu_train(oracle_attention(f_av, f2_v, er.shca), er.conv)
    return oracle_layernorm(f_av + r_a + r_v, er.norm)


def oracle_dier_chain(snaps_a, snaps_v, head):
    """Layer aggregation plus the unit chain of the correlation head."""
    n_l = len(snaps_a)
    logits_a = head.layer_logits_a.data
    logits_v = head.layer_logits_v.data
    alpha_a = oracle_softmax_row(logits_a)
    alpha_v = oracle_softmax_row(logits_v)
    agg_a = sum(alpha_a[l] * snaps_a[l] for l in range(n_l))
    agg_v = sum(alpha_v[l] * snaps_v[l] for l in range(n_l))
    f_av0 = np.concatenate([agg_a, agg_v], axis=1)
    f1_a = sum(snaps_a) / n_l
    f1_v = sum(snaps_v) / n_l

    f_av = f_av0 @ head.er.input_linear.weight.data + head.er.input_linear.bias.data
    preserved = []
    for unit in head.units:
        f2_a = oracle_dense_interaction(f1_a, f1_v, unit.dense_a)
        f2_v = oracle_dense_interaction(f1_v, f1_a, unit.dense_v)
        f_av = oracle_refine(f_av, f2_a, f2_v, head.er)
        preserved.append((f2_a, f2_v))
        f1_a, f1_v = f2_a, f2_v
    return preserved, f_av


def oracle_hafe(stack, f_av, hafe):
    n_units, k, _ = stack.shape
    normed = oracle_layernorm(stack, hafe.norm_units)
    h = stack.copy()
    for pos in range(k):
        h[:, pos, :] += oracle_attention(normed[:, pos, :], normed[:, pos, :],
                                         hafe.attn_units)
    gamma = h + oracle_ffn(oracle_layernorm(h, hafe.norm_ffn1), hafe.ffn1)
    f3 = np.zeros_like(f_av)
    for level in range(n_units):
        g = oracle_sigmoid(gamma[level] @ hafe.gate.weight.data + hafe.gate.bias.data)
        f3 += g * gamma[level]
    f4 = f3 + oracle_attention(oracle_layernorm(f3, hafe.norm_fq),
                               oracle_layernorm(f_av, hafe.norm_fkv), hafe.cross)
    return f4 + oracle_ffn(oracle_layernorm(f4, hafe.norm_ffn2), hafe.ffn2)


# ---------------------------------------------------------------------------
# Bit-exact references: the kernels written with np.mean / np.var / np.sum /
# np.max, and AdamW as a loop over parameters. The library's versions must
# match these byte for byte, not within a tolerance.
# ---------------------------------------------------------------------------


def oracle_sigmoid_split(x):
    """Sigmoid evaluated separately on each sign, scattered by boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def oracle_softmax_backward(out, d_out, axis=-1):
    dot = np.sum(d_out * out, axis=axis, keepdims=True)
    return out * (d_out - dot)


def oracle_layernorm_forward(x, scale, shift, eps):
    """Returns (out, xhat, inv)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * scale + shift, xhat, inv


def oracle_layernorm_backward(d_out, xhat, inv, scale):
    """Returns (d_x, d_scale, d_shift)."""
    red = tuple(range(d_out.ndim - 1))
    d_scale = (d_out * xhat).sum(axis=red)
    d_shift = d_out.sum(axis=red)
    d_xhat = d_out * scale
    d_x = inv * (d_xhat
                 - d_xhat.mean(axis=-1, keepdims=True)
                 - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True))
    return d_x, d_scale, d_shift


def oracle_batchnorm_prelu_forward(y, scale, shift, slope, eps):
    """Training-mode batch norm over axis 0 plus PReLU, after the 1x1 conv.

    Returns (out, mu, var, yhat, inv, z).
    """
    mu = y.mean(axis=0)
    var = y.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    yhat = (y - mu) * inv
    z = yhat * scale + shift
    return np.where(z < 0, z * slope, z), mu, var, yhat, inv, z


def oracle_batchnorm_prelu_backward(d_out, yhat, inv, z, scale, slope):
    """Returns (d_y, d_scale, d_shift, d_slope)."""
    neg = z < 0
    d_z = np.where(neg, d_out * slope, d_out)
    d_slope = np.where(neg, d_out * z, 0.0).sum(axis=0)
    d_scale = (d_z * yhat).sum(axis=0)
    d_shift = d_z.sum(axis=0)
    d_yhat = d_z * scale
    d_y = inv * (d_yhat
                 - d_yhat.mean(axis=0)
                 - yhat * (d_yhat * yhat).mean(axis=0))
    return d_y, d_scale, d_shift, d_slope


class OracleAdamW:
    """AdamW updating one parameter at a time with its own moment arrays."""

    def __init__(self, named_params, beta1=0.9, beta2=0.95, eps=1e-8, lr_scales=None):
        self.params = list(named_params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_scales = lr_scales or {}
        self.t = 0
        self.m = {name: np.zeros_like(p.data, dtype=np.float64)
                  for name, p in self.params}
        self.v = {name: np.zeros_like(p.data, dtype=np.float64)
                  for name, p in self.params}

    def step(self, lr, weight_decay):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient in parameter {name}")
            g = p.grad.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            eff_lr = lr * self.lr_scales.get(name, 1.0)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data *= 1.0 - eff_lr * weight_decay
            p.data -= (eff_lr * update).astype(p.data.dtype)


def oracle_trunc_normal(rng, shape, dtype=np.float32):
    """Truncated normal N(0, 0.02) by whole-array passes: each of up to 16
    passes checks every entry and redraws the out-of-range ones, then
    everything is clipped to two deviations."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    np.clip(out, -2.0 * std, 2.0 * std, out=out)
    return out.astype(dtype)


# ---------------------------------------------------------------------------
# Staged references: the expressions the library evaluates in place, written
# with every term in an array of its own and the per-sample gradients copied
# into one array of rows before they are added. The operations and their
# order are the library's, so its results must match these byte for byte,
# also on signed zeros, subnormals and overflow.
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def staged_accumulate(grad, grads):
    """``grad`` after a parameter's only call of a pass adds its per-sample
    gradients ``grads`` [S, *grad.shape]: one sample by ``+=``; more staged
    as the rows ``grad, grads[S-1], ..., grads[0]`` and reduced along axis 0,
    or added row by row for a single element."""
    grad = grad.copy()
    if len(grads) == 1:
        grad += grads[0]
        return grad
    rows = np.empty((1 + len(grads),) + grad.shape, dtype=grad.dtype)
    rows[0] = grad
    rows[1:] = grads[::-1]
    if grad.size > 1:
        np.add.reduce(rows, axis=0, out=grad)
    else:
        for row in rows[1:]:
            grad += row
    return grad


def staged_fold(grad, per_call):
    """``grad`` after a block applied ``len(per_call)`` times in a pass adds
    each backward call's per-sample gradients ``per_call[j]`` [S, *shape]:
    staged as the rows ``grad``, then sample S-1's calls in backward order,
    then sample S-2's, ..., and reduced along axis 0, or added row by row for
    one sample or a single element. This is a loop of single-sample
    backwards run from the last sample to the first."""
    grad = grad.copy()
    n_samples, n_calls = per_call[0].shape[0], len(per_call)
    rows = np.empty((1 + n_samples * n_calls,) + grad.shape, dtype=grad.dtype)
    rows[0] = grad
    body = rows[1:].reshape((n_samples, n_calls) + grad.shape)
    for j, grads in enumerate(per_call):
        body[:, j] = grads[::-1]
    if n_samples > 1 and grad.size > 1:
        np.add.reduce(rows, axis=0, out=grad)
    else:
        for row in rows[1:]:
            grad += row
    return grad


def staged_affine(x, w, b):
    return x @ w + b


def staged_merge(x):
    """[..., H, T, d] -> [..., T, H * d], a copy."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def staged_attention_forward(att, q_in, kv_in):
    """Attention.forward with ``@ w + b`` projections and a merge copy, on
    the block's own head split and softmax."""
    q = att._split(staged_affine(q_in, att.w_q.data, att.b_q.data))
    k = att._split(staged_affine(kv_in, att.w_k.data, att.b_k.data))
    v = att._split(staged_affine(kv_in, att.w_v.data, att.b_v.data))
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(att.head_dim)
    probs = softmax(scores, axis=-1)
    return staged_affine(staged_merge(probs @ v), att.w_o.data, att.b_o.data)


def staged_attention(att, q_in, kv_in, d_out):
    """One Attention forward and backward in the merge-copy formulation:
    every head product computed into its own [.., H, T, d] array and merged
    by a copy, one reduce per bias, and the np.max / np.sum softmax. Returns
    ``(out, d_q_in, d_kv_in, grads)``, ``grads`` the per-sample gradient
    [S, *shape] of each parameter by name."""
    n, c, d = len(q_in), att.dim, att.head_dim

    def split(x):
        return x.reshape(x.shape[:-1] + (att.heads, d)).swapaxes(-2, -3)

    def rows(x):
        return x.reshape(n, -1, c)

    shared = kv_in.ndim < q_in.ndim
    q = split(staged_affine(q_in, att.w_q.data, att.b_q.data))
    k = split(staged_affine(kv_in, att.w_k.data, att.b_k.data))
    v = split(staged_affine(kv_in, att.w_v.data, att.b_v.data))
    if shared:
        k, v = k[:, None], v[:, None]
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(d)
    probs = oracle_softmax(scores, axis=-1)
    merged = staged_merge(probs @ v)
    out = staged_affine(merged, att.w_o.data, att.b_o.data)

    grads = {"w_o": rows(merged).transpose(0, 2, 1) @ rows(d_out),
             "b_o": np.add.reduce(rows(d_out), axis=1)}
    d_ctx = split(d_out @ att.w_o.data.T)
    d_scores = oracle_softmax_backward(probs, d_ctx @ v.swapaxes(-1, -2))
    d_scores /= math.sqrt(d)
    d_qf = staged_merge(d_scores @ k)
    d_kf = staged_merge(d_scores.swapaxes(-1, -2) @ q)
    d_vf = staged_merge(probs.swapaxes(-1, -2) @ d_ctx)
    if shared:
        d_kf, d_vf = np.add.reduce(d_kf, axis=1), np.add.reduce(d_vf, axis=1)
    for name, x, d_y in (("q", q_in, d_qf), ("k", kv_in, d_kf), ("v", kv_in, d_vf)):
        grads["w_" + name] = rows(x).transpose(0, 2, 1) @ rows(d_y)
        grads["b_" + name] = np.add.reduce(rows(d_y), axis=1)
    d_kv_in = d_kf @ att.w_k.data.T
    d_kv_in += d_vf @ att.w_v.data.T
    return out, d_qf @ att.w_q.data.T, d_kv_in, grads


def staged_gelu_with_cache(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def staged_gelu_backward(x, d_out, t):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return d_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def staged_softmax_backward(out, d_out, axis=-1):
    d_in = d_out - np.add.reduce(d_out * out, axis=axis, keepdims=True)
    d_in *= out
    return d_in


def _staged_mean_last(x):
    out = np.add.reduce(x, axis=-1, keepdims=True)
    out /= x.shape[-1]
    return out


def staged_layernorm_input_grad(d_out, xhat, inv, scale):
    """LayerNorm's input gradient from its saved ``xhat`` and ``inv``."""
    d_xhat = d_out * scale
    d_in = d_xhat - _staged_mean_last(d_xhat)
    d_xhat *= xhat
    d_in -= xhat * _staged_mean_last(d_xhat)
    d_in *= inv
    return d_in


def staged_branch_scales(rngs, rate, dtype):
    """LGILayer._branch_scales from six scalar draws per sample."""
    if rngs is None or rate <= 0.0:
        return [None] * 6
    draws = np.array([[rng.random() for _ in range(6)] for rng in rngs])
    scales = np.where(draws < rate, 0.0, 1.0 / (1.0 - rate)).astype(dtype)
    return list(scales.T)


def staged_update_statistics(block):
    """ConvBNPReLU.update_statistics as written: the block's buffers are
    written after each sample of each call."""
    from avmae.blocks import BATCHNORM_MOMENTUM as m

    calls, block._stats = block._stats, []
    for sample in range(len(calls[0][0]) if calls else 0):
        for mu, var in calls:
            if block.num_batches == 0:
                block.running_mean = mu[sample]
                block.running_var = var[sample]
            else:
                block.running_mean = (1 - m) * block.running_mean + m * mu[sample]
                block.running_var = (1 - m) * block.running_var + m * var[sample]
            block.num_batches += 1


def oracle_take_rows(x, index):
    """The rows ``index`` [S, R] of each sample of x [S, N, C]."""
    return np.take_along_axis(x, index[:, :, None], axis=1)


def oracle_put_rows(n, index, values):
    """Zeros [S, n, C] with each sample's ``values`` [S, R, C] at its rows
    ``index`` [S, R]."""
    full = np.zeros((len(values), n, values.shape[-1]), dtype=values.dtype)
    np.put_along_axis(full, index[:, :, None], values, axis=1)
    return full


# ---------------------------------------------------------------------------
# The per-sample fine-tune path: FinetuneModel fed one clip per call (a batch
# of one), forward in sample order and backward in reverse, with a
# generator per sample. The batched path must match it byte for byte.
# ---------------------------------------------------------------------------


def per_sample_forward(model, clips, rngs=None, drop_path=0.0, training=True):
    rngs = [None] * len(clips) if rngs is None else rngs
    return np.stack([
        model.forward_sample([clip], rngs=None if rng is None else [rng],
                             drop_path=drop_path, training=training)[0]
        for clip, rng in zip(clips, rngs)])


def per_sample_backward(model, d_logits):
    for j in reversed(range(len(d_logits))):
        model.backward_sample(d_logits[j:j + 1])


def per_sample_supervised_step(model, clips, labels, indices, step, tcfg,
                               optimizer, lr):
    """``training.supervised_step`` on the per-sample path."""
    from avmae.losses import cross_entropy_ls
    from avmae.training import sample_rng

    rngs = [sample_rng(tcfg.seed, step, i) for i in indices]
    logits = per_sample_forward(model, [clips[i] for i in indices], rngs,
                                tcfg.drop_path, training=True)
    batch_labels = np.asarray([labels[i] for i in indices])
    loss, d_logits = cross_entropy_ls(logits, batch_labels, tcfg.label_smoothing)
    per_sample_backward(model, d_logits)
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    acc = float(np.mean(np.argmax(logits, axis=1) == batch_labels))
    return {"loss": loss, "acc": acc}


# ---------------------------------------------------------------------------
# The per-sample pretrain path: PretrainModel fed one clip per call (a batch
# of one), forward in sample order and backward in reverse, with the losses
# taken clip by clip. The batched pretrain step must match it byte for byte.
# ---------------------------------------------------------------------------


def per_sample_pretrain_step(model, clips, indices, step, tcfg, optimizer, lr,
                             dual_masking=True):
    """``training.pretrain_step`` on the per-sample path."""
    from avmae.config import DECODER_MASK_RATIO
    from avmae.losses import info_nce, masked_mse
    from avmae.pretrain import make_mask_pairs
    from avmae.training import sample_rng

    cfg = model.cfg
    results = []
    for clip_idx in indices:
        rng = sample_rng(tcfg.seed, step, clip_idx)
        pair_v, pair_a = make_mask_pairs(cfg, model.video_shape, model.audio_shape,
                                         rng, dual_masking=dual_masking)
        res = model.forward_sample([clips[clip_idx]], [pair_v], [pair_a])
        for r in res.values():
            r["predictions"], r["targets"] = r["predictions"][0], r["targets"][0]
            r["pooled"] = {idx: p[0] for idx, p in r["pooled"].items()}
        results.append(res)

    b = len(results)
    mse_terms = {"video": [], "audio": []}
    d_preds = {"video": [], "audio": []}
    for res in results:
        for modality in ("video", "audio"):
            r = res[modality]
            ratio = (DECODER_MASK_RATIO if dual_masking
                     else 1.0 - r["predictions"].shape[0] / r["n_tokens"])
            loss, d_pred = masked_mse(r["predictions"], r["targets"], ratio,
                                      r["n_tokens"])
            mse_terms[modality].append(loss)
            d_preds[modality].append(d_pred / b)
    mse_v = float(np.mean(mse_terms["video"]))
    mse_a = float(np.mean(mse_terms["audio"]))

    nce_total = 0.0
    d_pooled = {"video": [{} for _ in range(b)], "audio": [{} for _ in range(b)]}
    if b >= 2:
        for skip_idx in cfg.skip_indices:
            feats_a = np.stack([res["audio"]["pooled"][skip_idx] for res in results])
            feats_v = np.stack([res["video"]["pooled"][skip_idx] for res in results])
            nce, d_a, d_v = info_nce(feats_a.astype(np.float64),
                                     feats_v.astype(np.float64),
                                     cfg.contrastive_temperature)
            nce_total += nce
            lam = cfg.contrastive_weight
            for j in range(b):
                dtype = d_preds["video"][j].dtype
                d_pooled["audio"][j][skip_idx] = (lam * d_a[j]).astype(dtype)[None]
                d_pooled["video"][j][skip_idx] = (lam * d_v[j]).astype(dtype)[None]

    total = mse_a + mse_v + cfg.contrastive_weight * nce_total

    for j in reversed(range(b)):
        model.backward_sample(d_preds["video"][j][None], d_preds["audio"][j][None],
                              d_pooled["video"][j], d_pooled["audio"][j])
    optimizer.step(lr, tcfg.weight_decay)
    model.zero_grad()
    return {"loss": total, "mse_a": mse_a, "mse_v": mse_v, "nce": nce_total}


def per_clip_targets(model, clips, pairs_v, pairs_a):
    """The reconstruction targets of ``PretrainModel.forward_sample``, clip by
    clip: every patch of the whole clip standardised in float64 by the
    mean/var formulation and cast to the model dtype, then the clip's target
    rows gathered. Returns {modality: [S, targets, patch]}."""
    from avmae.embedding import TARGET_EPS, audio_patches, video_patches

    out = {}
    for modality, patchify, patch, pairs in (
            ("video", video_patches, model.cfg.video_tubelet, pairs_v),
            ("audio", audio_patches, model.cfg.audio_patch, pairs_a)):
        rows = []
        for clip, pair in zip(clips, pairs):
            p = patchify(getattr(clip, modality), patch).astype(np.float64)
            full = ((p - p.mean(axis=1, keepdims=True))
                    / np.sqrt(p.var(axis=1, keepdims=True) + TARGET_EPS))
            rows.append(full.astype(model.mask_token_v.data.dtype)[pair.target_indices])
        out[modality] = np.stack(rows)
    return out


# ---------------------------------------------------------------------------
# The per-sample region layout: one partition per sample, stacked into the
# batch's size groups. ``encoder.partition`` must build exactly these arrays.
# ---------------------------------------------------------------------------


@dataclass
class RegionPartition:
    """Disjoint assignment of present tokens to spatial(-temporal) regions.

    ``members[i]``: region i's indices into the present-token array, ascending.
    ``groups``: one ``(size, ids [G], index [G, size])`` per distinct region
    size, ascending, with ``index[g] == members[ids[g]]``.
    """

    members: list[np.ndarray]
    groups: list[tuple[int, np.ndarray, np.ndarray]]

    @property
    def n_regions(self) -> int:
        return len(self.members)

    def sizes(self) -> list[int]:
        return [m.size for m in self.members]


def grid_partition(grid, coords: np.ndarray, region_shape) -> RegionPartition:
    """``partition`` of the tokens at ``coords`` [N, ndim] of ``grid``."""
    if len(region_shape) != len(grid):
        raise ValueError("region rank must match grid rank")
    region_grid = []
    for g, r in zip(grid, region_shape):
        if g % r != 0:
            raise ValueError(f"region shape {region_shape} does not tile grid {grid}")
        region_grid.append(g // r)

    region_coord = coords // np.asarray(region_shape, dtype=np.int64)
    flat = np.ravel_multi_index(tuple(region_coord.T), region_grid)
    n_regions = math.prod(region_grid)
    # region i owns order[starts[i]:starts[i] + counts[i]], ascending
    order = np.argsort(flat, kind="stable").astype(np.int64)
    counts = np.bincount(flat, minlength=n_regions)
    starts = np.cumsum(counts) - counts
    members = [order[a:a + n] for a, n in zip(starts.tolist(), counts.tolist())]
    groups = [(n, np.flatnonzero(counts == n)) for n in sorted(set(counts.tolist()))]
    groups = [(n, ids, order[starts[ids, None] + np.arange(n)]) for n, ids in groups]
    return RegionPartition(members, groups)


@dataclass
class BatchPartition:
    """The region partitions of S samples with N tokens each, and their
    regions bucketed by size across the batch: one ``SizeGroup`` per size
    any sample has, ascending."""

    parts: list[RegionPartition]
    n_tokens: int
    groups: list[SizeGroup]

    @property
    def members(self) -> list[np.ndarray]:
        """The batch as one partition of its S*N token rows into S*K
        regions: sample j's region i is ``members[j*K + i]``, as rows
        ``j*N + m`` of the flattened tokens."""
        return [m + j * self.n_tokens for j, part in enumerate(self.parts)
                for m in part.members]


def stack_partitions(parts: list[RegionPartition]) -> BatchPartition:
    """One batch layout from per-sample partitions with equal token counts."""
    n_samples, k = len(parts), parts[0].n_regions
    n_tokens = sum(parts[0].sizes())
    for part in parts:
        if part.n_regions != k or sum(part.sizes()) != n_tokens:
            raise ValueError("stacked partitions need equal region and token counts")
    by_size = {}   # size -> [S] (ids, index) at flat rows, None if absent
    for j, part in enumerate(parts):
        for size, ids, index in part.groups:
            by_size.setdefault(size, [None] * n_samples)[j] = (ids + j * k,
                                                               index + j * n_tokens)
    groups = []
    for size in sorted(by_size):
        rows = by_size[size]
        width = max(len(r[0]) for r in rows if r is not None)
        if all(r is not None and len(r[0]) == width for r in rows):
            groups.append(SizeGroup(size, np.stack([r[0] for r in rows]),
                                    np.stack([r[1] for r in rows]), None))
            continue
        ids = np.zeros((n_samples, width), dtype=np.int64)
        index = np.zeros((n_samples, width, size), dtype=np.int64)
        pad = np.ones((n_samples, width), dtype=bool)
        for j, r in enumerate(rows):
            if r is not None:
                count = len(r[0])
                ids[j, :count], index[j, :count], pad[j, :count] = r[0], r[1], False
        groups.append(SizeGroup(size, ids, index, pad))
    return BatchPartition(parts, n_tokens, groups)
