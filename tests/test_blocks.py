"""Core numerics: forward semantics, hand-written backwards, grad checks."""

import inspect

import numpy as np
import pytest

from avmae import verify
from avmae.blocks import (BATCHNORM_EPS, LAYERNORM_EPS, Attention, Block, ConvBNPReLU,
                          FeedForward, GradientStateError, LayerNorm, Linear, Parameter,
                          gelu_backward, gelu_with_cache, no_tape, sigmoid, softmax,
                          softmax_backward, trunc_normal)
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.embedding import (AudioEmbed, PatchEmbed, VideoEmbed, grid_codes,
                             positional_encoding, sincos_1d)
from avmae.encoder import LGIEncoder
from avmae.finetune import FinetuneModel
from avmae.gradcheck import grad_check
from avmae.iavcl import DiERUnit, IAVCLHead
from avmae.losses import info_nce
from avmae.pretrain import FusionBlock, PretrainModel, make_mask_pairs
from avmae.training import (AdamW, SyntheticTask, gen_synthetic, optimizer_for,
                            pretrain_step, sample_rng, supervised_step)

from oracles import (oracle_attention, oracle_batchnorm_prelu_backward,
                     oracle_batchnorm_prelu_forward, oracle_layernorm_backward,
                     oracle_layernorm_forward, oracle_sigmoid_split,
                     oracle_softmax, oracle_softmax_backward,
                     oracle_trunc_normal, staged_accumulate, staged_affine, staged_fold,
                     staged_attention, staged_attention_forward, staged_gelu_backward,
                     staged_gelu_with_cache, staged_layernorm_input_grad,
                     staged_batch_statistics, staged_softmax_backward,
                     staged_update_statistics, tape_breakdown, tape_bytes,
                     taped_arrays, format_tape_breakdown)
from registry_runs import assert_grad_check


class TestAttentionForward:
    def test_zero_input_gives_uniform_rows(self):
        """Constant logits: every attention row is the uniform distribution."""
        rng = np.random.default_rng(0)
        att = Attention(8, 2, rng)
        att.forward(np.zeros((1, 4, 8), dtype=np.float32))
        probs = att.last_probs()
        assert np.allclose(probs, 0.25, atol=1e-7)
        att.clear_caches()

    def test_single_token_softmax_is_identity(self):
        """T=1: softmax over one element is 1, so out = x Wv Wo + biases."""
        rng = np.random.default_rng(1)
        att = Attention(8, 2, rng).double()
        x = rng.normal(size=(1, 8))[None]
        out = att.forward(x)
        v = x @ att.w_v.data + att.b_v.data
        expected = v @ att.w_o.data + att.b_o.data
        assert np.allclose(out, expected, atol=1e-12)
        att.clear_caches()

    def test_row_sums_various_shapes(self):
        rng = np.random.default_rng(2)
        for t, c, h in ((1, 8, 1), (3, 8, 2), (7, 16, 4), (2, 12, 3)):
            att = Attention(c, h, rng).double()
            att.forward(rng.normal(size=(t, c))[None] * 5)
            assert np.allclose(att.last_probs().sum(axis=-1), 1.0, atol=1e-6)
            att.clear_caches()

    def test_mhsa_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        att = Attention(8, 2, rng).double()
        x = rng.normal(size=(3, 8))
        out = att.forward(x[None])[0]
        att.clear_caches()
        assert np.max(np.abs(out - oracle_attention(x, x, att))) < 1e-6

    def test_mhca_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        att = Attention(8, 2, rng).double()
        q = rng.normal(size=(2, 8))
        kv = rng.normal(size=(5, 8))
        out = att.forward(q[None], kv[None])[0]
        att.clear_caches()
        assert np.max(np.abs(out - oracle_attention(q, kv, att))) < 1e-6

    def test_cross_equals_self_bitwise(self):
        rng = np.random.default_rng(4)
        att = Attention(8, 4, rng)
        x = rng.normal(size=(5, 8)).astype(np.float32)[None]
        self_out = att.forward(x)
        cross_out = att.forward(x, x.copy())
        att.clear_caches()
        assert np.array_equal(self_out, cross_out)

    def test_single_key_attends_fully(self):
        """Tk=1: every query sees the single key with weight one."""
        rng = np.random.default_rng(5)
        att = Attention(8, 2, rng).double()
        att.forward(rng.normal(size=(4, 8))[None], rng.normal(size=(1, 8))[None])
        assert np.allclose(att.last_probs(), 1.0)
        att.clear_caches()

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(6)
        att = Attention(8, 2, rng).double()
        x = rng.normal(size=(3, 4, 8))
        batched = att.forward(x)
        att.clear_caches()
        singles = []
        for b in range(3):
            singles.append(att.forward(x[b][None])[0])
            att.clear_caches()
        assert np.allclose(batched, np.stack(singles), atol=1e-12)

    def test_dim_mismatch_raises(self):
        att = Attention(8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            att.forward(np.zeros((1, 3, 6), dtype=np.float32))

    def test_bad_head_count_raises(self):
        with pytest.raises(ValueError):
            Attention(8, 3, np.random.default_rng(0))


class TestBackwardProtocol:
    def test_linear_closed_form(self):
        """y = xW + b with upstream of ones: dW = x^T 1, db = column sums."""
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng).double()
        x = rng.normal(size=(5, 4))
        lin.forward(x[None])
        ones = np.ones((5, 3))
        lin.backward(ones[None])
        assert np.allclose(lin.weight.grad, x.T @ ones)
        assert np.allclose(lin.bias.grad, ones.sum(axis=0))

    def test_layernorm_constant_row_nullspace(self):
        """Per-row-constant input: gradient orthogonal to the ones direction."""
        ln = LayerNorm(8).double()
        x = np.tile(np.random.default_rng(1).normal(size=(4, 1)), (1, 8))
        ln.forward(x[None])
        d_x = ln.backward(np.random.default_rng(2).normal(size=(4, 8))[None])
        assert np.all(np.abs(d_x.sum(axis=-1)) < 1e-6)

    def test_backward_before_forward_raises(self):
        lin = Linear(3, 3, np.random.default_rng(0))
        with pytest.raises(GradientStateError):
            lin.backward(np.ones((1, 2, 3), dtype=np.float32))

    def test_cache_stack_handles_repeated_application(self):
        """Two forwards, then backwards in reverse order, accumulate both."""
        rng = np.random.default_rng(3)
        lin = Linear(3, 3, rng).double()
        x1 = rng.normal(size=(2, 3))
        x2 = rng.normal(size=(4, 3))
        lin.forward(x1[None])
        lin.forward(x2[None])
        g2 = np.ones((4, 3))
        g1 = np.ones((2, 3))
        lin.backward(g2[None])
        lin.backward(g1[None])
        assert np.allclose(lin.weight.grad, x1.T @ g1 + x2.T @ g2)

    def test_no_tape_forward_leaves_pending_tape(self):
        """A forward inside ``no_tape`` records nothing: the backward runs
        through the taped forward before it, and then there is none left."""
        rng = np.random.default_rng(5)
        lin = Linear(3, 2, rng).double()
        x, y = rng.normal(size=(1, 4, 3)), rng.normal(size=(1, 5, 3))
        lin.forward(y)
        with no_tape():
            out = lin.forward(x)
        assert np.array_equal(out, x @ lin.weight.data + lin.bias.data)
        lin.backward(np.ones((1, 5, 2)))
        assert np.array_equal(lin.weight.grad, y[0].T @ np.ones((5, 2)))
        with pytest.raises(GradientStateError):
            lin.backward(np.ones((1, 4, 2)))

    def test_no_tape_restores_taping_on_exit_and_error(self):
        lin = Linear(3, 3, np.random.default_rng(0))
        x = np.ones((1, 2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            with no_tape():
                with no_tape():
                    lin.forward(x)
                lin.forward(x)
                raise ValueError
        assert not lin._tape
        lin.forward(x)
        assert len(lin._tape) == 1

    def test_deterministic_given_inputs(self):
        rng = np.random.default_rng(4)
        att = Attention(8, 2, rng).double()
        x = rng.normal(size=(3, 8))
        g = rng.normal(size=(3, 8))
        outs = []
        for _ in range(2):
            att.zero_grad()
            att.forward(x[None])
            outs.append(att.backward(g.copy()[None], x[None]))
        assert np.array_equal(outs[0][0], outs[1][0])


class TestGradChecks:
    """Central-difference verification at 64-bit for every block."""

    @pytest.mark.parametrize("name,tol", [
        ("linear", 1e-6),
        ("layernorm", 1e-6),
        ("mhsa", 1e-6),
        ("mhca", 1e-6),
        ("ffn", 1e-6),
        ("conv_bn_prelu", 1e-6),
    ])
    def test_primitive_blocks(self, name, tol):
        assert_grad_check(name, tol)

    def test_corrupted_backward_fails(self):
        """Negative control: a sign-flipped weight gradient must be caught."""
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng).double()
        x = rng.normal(size=(5, 4))[None]
        w = rng.normal(size=(5, 3))[None]

        def fwd(x):
            out = lin.forward(x)

            def back():
                d_x = lin.backward(w.copy())
                lin.weight.grad *= -1.0  # deliberate corruption
                return {"x": d_x}
            return float(np.sum(out * w)), back

        report = grad_check(lin, fwd, {"x": x}, tolerance=1e-6)
        assert not report.passed
        assert report.max_errors["weight"] > 1e-2

    @pytest.mark.parametrize("check", [
        verify._block_check(5, lambda rng: FusionBlock(16, 4, rng),
                            {"v": (1, 6, 16), "a": (1, 3, 16)},
                            backward=lambda block, xs, wv, wa: block.backward(wv, wa)[:1]),
        verify._loss_check(8, lambda fa, fv: info_nce(fa, fv, 0.07)[:2],
                           {"fa": (5, 6), "fv": (5, 6)}),
    ], ids=["block", "loss"])
    def test_short_backward_is_refused(self, check):
        """A row whose backward returns fewer gradients than it has inputs
        would leave an input unprobed; the harness refuses it instead."""
        with pytest.raises(ValueError, match=r"returned 1 gradients for 2 inputs"):
            check(1e-4, 4)

    def test_missing_input_gradient_is_refused(self):
        """``grad_check`` itself refuses a backward whose dict leaves an
        input out, naming it, instead of passing with the input unprobed."""
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(1, 5, 4)).astype(np.float32)

        def fwd(x):
            out = lin.forward(x)
            return float(np.sum(out)), lambda: (lin.backward(np.ones_like(out)), {})[1]

        with pytest.raises(ValueError, match=r"returned 0 gradients for 1 inputs "
                                             r"\['x'\]; missing \['x'\]"):
            grad_check(lin, fwd, {"x": x}, tolerance=1e-6)


class TestDouble:
    """Blocks build in float32; ``Block.double`` makes their float64 twins."""

    def test_widens_parameters_and_floating_buffers(self):
        head = IAVCLHead(preset("Tiny"), 3, np.random.default_rng(0))
        assert head.double() is head
        for _, p in head.named_parameters():
            assert p.data.dtype == p.grad.dtype == np.float64
        conv = head.er.conv
        assert conv.running_mean.dtype == conv.running_var.dtype == np.float64
        assert conv.num_batches.dtype == np.int64
        assert dict(head.named_buffers())["er.conv.running_mean"] is conv.running_mean

    def test_twin_holds_the_float32_weights(self):
        for build in (lambda rng: IAVCLHead(preset("Tiny"), 3, rng),
                      lambda rng: PretrainModel(preset("Tiny"), (8, 32, 32), (32, 16), rng)):
            block, twin = build(np.random.default_rng(5)), build(np.random.default_rng(5)).double()
            for (name, p), (twin_name, twin_p) in zip(block.named_parameters(),
                                                      twin.named_parameters()):
                assert name == twin_name and p.data.dtype == np.float32
                assert np.array_equal(twin_p.data.astype(np.float32), p.data), name

    def test_packed_block_is_refused_and_unchanged(self):
        model = FinetuneModel(preset("Tiny"), (8, 32, 32), (32, 16), 2, np.random.default_rng(1))
        data, _ = model.pack()
        for block in (model, model.iavcl):
            with pytest.raises(ValueError, match="packed"):
                block.double()
        assert all(p.data.dtype == np.float32 and p.data.base is data
                   for _, p in model.named_parameters())
        assert all(b.dtype in (np.float32, np.int64) for _, b in model.named_buffers())

    def test_no_constructor_or_code_function_takes_a_dtype(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        found = [cls for cls in subclasses(Block) if cls.__module__.startswith("avmae.")]
        assert {IAVCLHead, FinetuneModel, PretrainModel, DiERUnit, LGIEncoder,
                VideoEmbed} <= set(found)
        for fn in [cls.__init__ for cls in found] + [trunc_normal, sincos_1d,
                                                     positional_encoding, grid_codes]:
            assert "dtype" not in inspect.signature(fn).parameters, fn.__qualname__


class TestConvBNPReLU:
    def test_identity_configuration_returns_normalized(self):
        """Identity conv, unit scale/shift-zero, slope 1: output is the
        per-channel standardisation of the input."""
        rng = np.random.default_rng(0)
        block = ConvBNPReLU(6, rng).double()
        block.conv.weight.data[...] = np.eye(6)
        block.conv.bias.data[...] = 0.0
        block.prelu_slope.data[...] = 1.0
        x = rng.normal(size=(8, 6))
        out = block.forward(x[None], training=True)
        block.clear_caches()
        expected = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 1e-5)
        assert np.allclose(out, expected, atol=1e-12)

    def test_identical_tokens_normalize_to_zero(self):
        rng = np.random.default_rng(1)
        block = ConvBNPReLU(6, rng).double()
        block.bn_shift.data[...] = 0.0
        x = np.tile(rng.normal(size=(1, 6)), (5, 1))
        out = block.forward(x[None], training=True)
        block.clear_caches()
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_eval_reproduces_first_batch_statistics(self):
        rng = np.random.default_rng(2)
        block = ConvBNPReLU(6, rng).double()
        x = rng.normal(size=(16, 6))
        train_out = block.forward(x[None], training=True)
        block.clear_caches()
        eval_out = block.forward(x[None], training=False)
        block.clear_caches()
        assert np.max(np.abs(train_out - eval_out)) < 1e-5
        # statistics recomputed by hand
        y = x @ block.conv.weight.data + block.conv.bias.data
        assert np.allclose(block.running_mean, y.mean(axis=0))
        assert np.allclose(block.running_var, y.var(axis=0))

    def test_training_forward_folds_statistics_at_once(self):
        """The call that computes a batch's statistics folds them: each
        sample counts one batch, the first seeds the running mean."""
        rng = np.random.default_rng(4)
        block = ConvBNPReLU(6, rng)
        x = rng.normal(size=(3, 5, 6)).astype(np.float32)
        block.forward(x, training=True)
        assert block.num_batches == 3
        mu, var = staged_batch_statistics(block, x)
        assert not np.array_equal(block.running_mean, mu[0])
        fresh = ConvBNPReLU(6, np.random.default_rng(4))
        fresh.forward(x[:1], training=True)
        assert fresh.num_batches == 1
        assert fresh.running_mean.tobytes() == mu[0].tobytes()
        assert fresh.running_var.tobytes() == var[0].tobytes()

    def test_eval_before_any_batch_raises(self):
        block = ConvBNPReLU(6, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            block.forward(np.zeros((1, 3, 6), dtype=np.float32), training=False)


class TestPurity:
    def test_forward_is_pure(self):
        """Same inputs and parameters give identical outputs across calls."""
        rng = np.random.default_rng(5)
        ffn = FeedForward(8, rng).double()
        x = rng.normal(size=(4, 8))[None]
        a = ffn.forward(x.copy())
        b = ffn.forward(x.copy())
        ffn.clear_caches()
        assert np.array_equal(a, b)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        for shape in ((3, 5), (2, 4, 6), (1, 1)):
            s = softmax(rng.normal(size=shape) * 10)
            assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


KERNEL_SHAPES = [lead + (c,) for c in (5, 17, 32) for lead in ((7,), (3, 6), (2, 3, 4))]
DTYPES = [np.float32, np.float64]


def in_dtype(block, dtype):
    """The block as built (float32), or its float64 twin."""
    return block.double() if dtype == np.float64 else block


class TestKernelsMatchMeanVarReferences:
    """The reductions are ufunc reduces plus an in-place divide: the same
    bits as the np.mean / np.var / np.sum / np.max formulation."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_layernorm(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        c = shape[-1]
        ln = in_dtype(LayerNorm(c), dtype)
        ln.scale.data[...] = rng.normal(1.0, 0.5, c)
        ln.shift.data[...] = rng.normal(0.0, 0.5, c)
        x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
        d_out = rng.normal(size=shape).astype(dtype)
        want, xhat, inv = oracle_layernorm_forward(x, ln.scale.data, ln.shift.data,
                                                   LAYERNORM_EPS)
        want_dx, want_dscale, want_dshift = oracle_layernorm_backward(
            d_out, xhat, inv, ln.scale.data)
        assert_same_bytes(ln.forward(x[None])[0], want)
        assert_same_bytes(ln.backward(d_out[None])[0], want_dx)
        assert_same_bytes(ln.scale.grad, want_dscale)
        assert_same_bytes(ln.shift.grad, want_dshift)

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_softmax(self, shape, dtype, axis):
        rng = np.random.default_rng(sum(shape) + 1)
        x = (rng.normal(size=shape) * 4.0).astype(dtype)
        d_out = rng.normal(size=shape).astype(dtype)
        out = softmax(x, axis=axis)
        assert_same_bytes(out, oracle_softmax(x, axis=axis))
        assert_same_bytes(softmax_backward(out, d_out, axis=axis),
                          oracle_softmax_backward(out, d_out, axis=axis))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [3, 17, 64])
    @pytest.mark.parametrize("c", [5, 17, 32])
    def test_convbnprelu_moments(self, c, n, dtype):
        rng = np.random.default_rng(c * n)
        block = in_dtype(ConvBNPReLU(c, rng), dtype)
        block.conv.bias.data[...] = rng.normal(0.0, 0.5, c)
        block.bn_scale.data[...] = rng.normal(1.0, 0.5, c)
        block.bn_shift.data[...] = rng.normal(0.0, 0.5, c)
        x = (rng.normal(size=(n, c)) * 2.0 + 0.5).astype(dtype)
        d_out = rng.normal(size=(n, c)).astype(dtype)
        w = block.conv.weight.data
        y = x @ w
        y = y + block.conv.bias.data
        want, mu, var, yhat, inv, z = oracle_batchnorm_prelu_forward(
            y, block.bn_scale.data, block.bn_shift.data, block.prelu_slope.data,
            BATCHNORM_EPS)
        d_y, d_scale, d_shift, d_slope = oracle_batchnorm_prelu_backward(
            d_out, yhat, inv, z, block.bn_scale.data, block.prelu_slope.data)
        assert_same_bytes(block.forward(x[None], training=True)[0], want)
        assert_same_bytes(block.running_mean, mu)
        assert_same_bytes(block.running_var, var)
        assert_same_bytes(block.backward(d_out[None])[0], d_y @ w.T)
        assert_same_bytes(block.bn_scale.grad, d_scale)
        assert_same_bytes(block.bn_shift.grad, d_shift)
        assert_same_bytes(block.prelu_slope.grad, d_slope)


class TestSigmoidMatchesSplitReference:
    """One exp of -|x| and a select: the bits of evaluating each sign
    separately and scattering by boolean masks."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bytes(self, dtype):
        rng = np.random.default_rng(7)
        info = np.finfo(dtype)
        special = np.array([0.0, -0.0, np.inf, -np.inf, info.tiny, -info.tiny,
                            info.smallest_subnormal, -info.smallest_subnormal,
                            info.max, -info.max, 88.0, -88.0, 104.0, -104.0],
                           dtype=dtype)
        x = np.concatenate([special,
                            (rng.normal(size=200_000) * 30.0).astype(dtype),
                            (rng.standard_cauchy(size=200_000)).astype(dtype)])
        assert_same_bytes(sigmoid(x), oracle_sigmoid_split(x))
        batch = x[:16 * 4 * 32].reshape(16, 4, 32)
        assert_same_bytes(sigmoid(batch), oracle_sigmoid_split(batch))


def with_special_values(rng, shape, dtype, scale=1.0):
    """Normal draws times ``scale`` with about a quarter of the entries
    replaced by ±0, subnormals, the smallest normals and values near
    overflow."""
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                        info.tiny / 8, -info.tiny / 8, info.tiny, -info.tiny,
                        info.max, -info.max, info.max / 3, -info.max / 3], dtype=dtype)
    out = (rng.normal(size=shape) * scale).astype(dtype)
    hit = rng.random(shape) < 0.25
    out[hit] = rng.choice(special, size=int(hit.sum()))
    return out


class TestKernelsMatchStagedExpressions:
    """The in-place kernels evaluate the same operations in the same order as
    the expressions with one array per term, so they give the same bytes,
    on signed zeros, subnormals and overflow too."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gelu(self, dtype):
        rng = np.random.default_rng(11)
        x = with_special_values(rng, (4, 9, 33), dtype, scale=3.0)
        d_out = with_special_values(rng, x.shape, dtype)
        with np.errstate(all="ignore"):
            got, got_t = gelu_with_cache(x)
            want, want_t = staged_gelu_with_cache(x)
            assert_same_bytes(got, want)
            assert_same_bytes(got_t, want_t)
            want_d = staged_gelu_backward(x, d_out, want_t)
            assert_same_bytes(gelu_backward(x, d_out, got_t), want_d)

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_backward(self, dtype, axis):
        rng = np.random.default_rng(12)
        out = softmax(rng.normal(size=(6, 5, 17)).astype(dtype) * 4, axis=axis)
        out[rng.random(out.shape) < 0.1] = 0.0
        d_out = with_special_values(rng, out.shape, dtype)
        with np.errstate(all="ignore"):
            assert_same_bytes(softmax_backward(out, d_out, axis=axis),
                              staged_softmax_backward(out, d_out, axis=axis))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layernorm_backward(self, dtype):
        rng = np.random.default_rng(13)
        ln = in_dtype(LayerNorm(17), dtype)
        ln.scale.data[...] = with_special_values(rng, (17,), dtype)
        x = (rng.normal(size=(3, 5, 17)) * 2.0).astype(dtype)
        x[rng.random(x.shape) < 0.2] = np.finfo(dtype).smallest_subnormal
        d_out = with_special_values(rng, x.shape, dtype)
        with np.errstate(all="ignore"):
            ln.forward(x)
            xhat, inv = ln._tape[-1]
            want = staged_layernorm_input_grad(d_out, xhat, inv, ln.scale.data)
            assert_same_bytes(ln.backward(d_out), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bias_add_epilogues(self, dtype):
        rng = np.random.default_rng(14)
        lin = in_dtype(Linear(16, 24, rng), dtype)
        att = in_dtype(Attention(16, 4, rng), dtype)
        for bias in (lin.bias, att.b_q, att.b_k, att.b_v, att.b_o):
            bias.data[...] = with_special_values(rng, bias.shape, dtype)
        x = with_special_values(rng, (2, 3, 5, 16), dtype)
        kv = with_special_values(rng, (2, 3, 7, 16), dtype)
        with np.errstate(all="ignore"), no_tape():
            assert_same_bytes(lin.forward(x), staged_affine(x, lin.weight.data, lin.bias.data))
            assert_same_bytes(att.forward(x, kv), staged_attention_forward(att, x, kv))
            assert_same_bytes(att.forward(x), staged_attention_forward(att, x, x))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_feedforward(self, n_samples, dtype):
        """Two calls per pass in LGI order (locals then regions forward,
        regions then locals backward): the block, which keeps only h,
        rebuilds the gelu value and tanh term and takes a copy of its input
        back, gives the bytes of a reference that keeps x, h, t and a, for
        the outputs, the input gradients and both Linears' folded parameter
        gradients."""
        rng = np.random.default_rng([n_samples, 15])
        ffn = in_dtype(FeedForward(8, rng), dtype)
        for lin in (ffn.fc1, ffn.fc2):
            lin.bias.data[...] = rng.normal(size=lin.bias.shape)
        xs = [(rng.normal(size=(n_samples, t, 8)) * 2.0).astype(dtype) for t in (17, 5)]
        d_outs = [rng.normal(size=x.shape).astype(dtype) for x in xs]
        outs = [ffn.forward(x) for x in xs]
        d_ins = [ffn.backward(d_out, x.copy())
                 for d_out, x in reversed(list(zip(d_outs, xs)))][::-1]
        w1, b1, w2, b2 = (ffn.fc1.weight.data, ffn.fc1.bias.data,
                          ffn.fc2.weight.data, ffn.fc2.bias.data)
        per_call = {name: [] for name, _ in ffn.named_parameters()}
        for x, d_out, out, d_in in reversed(list(zip(xs, d_outs, outs, d_ins))):
            h = staged_affine(x, w1, b1)
            a, t = staged_gelu_with_cache(h)
            assert_same_bytes(out, staged_affine(a, w2, b2))
            d_h = staged_gelu_backward(h, d_out @ w2.T, t)
            assert_same_bytes(d_in, d_h @ w1.T)
            per_call["fc1.weight"].append(x.transpose(0, 2, 1) @ d_h)
            per_call["fc1.bias"].append(np.add.reduce(d_h, axis=1))
            per_call["fc2.weight"].append(a.transpose(0, 2, 1) @ d_out)
            per_call["fc2.bias"].append(np.add.reduce(d_out, axis=1))
        for name, p in ffn.named_parameters():
            assert_same_bytes(p.grad, staged_fold(np.zeros_like(p.grad), per_call[name]))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_calls", [1, 3])
    @pytest.mark.parametrize("n_samples", [1, 16])
    def test_batchnorm_running_statistics(self, n_samples, n_calls, dtype):
        """After every call the running statistics are the bytes of writing
        the buffers after each of its samples: the first sample ever seeds
        them, every later one blends with momentum."""
        blocks = [in_dtype(ConvBNPReLU(8, np.random.default_rng(3)), dtype) for _ in range(2)]
        rng = np.random.default_rng(n_samples * n_calls)
        for _ in range(3):
            for _ in range(n_calls):
                x = (rng.normal(size=(n_samples, 5, 8)) * 3.0 + 1.0).astype(dtype)
                blocks[0].forward(x, training=True)
                blocks[0].clear_caches()
                staged_update_statistics(blocks[1], [staged_batch_statistics(blocks[1], x)])
                for name in ("running_mean", "running_var", "num_batches"):
                    assert_same_bytes(getattr(blocks[0], name), getattr(blocks[1], name))


def softmax_inputs(rng, shape, dtype):
    """Normal draws with about a tenth of the entries ±0, NaN or ±inf, and
    about half the rows made non-positive, so that many have a zero maximum
    of either sign (NaN is numpy's default quiet NaN)."""
    x = (rng.normal(size=shape) * 4.0).astype(dtype)
    u = rng.random(shape)
    for lo, value in ((0.0, -0.0), (0.04, 0.0), (0.07, np.nan), (0.08, np.inf),
                      (0.09, -np.inf)):
        x[(u >= lo) & (u < lo + 0.03)] = value
    flip = (rng.random(shape[:-1] + (1,)) < 0.5) & ~np.isnan(x)
    x[flip] = -np.abs(x[flip])
    return x


class TestRowMaxima:
    """softmax and its backward take the row maxima and sums of many short
    rows from one rows-innermost copy, and of the rest by one reduce per row:
    either way the bytes of the ``np.max`` / ``np.sum`` formulation, on every
    rank and on rows of one. The copy takes rows along the last axis, at
    least 256 of them, of 2 to 16 keys at any size or of up to 48 keys in
    arrays of up to 1 MiB. Past the small shapes: the Tiny fine-tune scores;
    255 rows, one below the row bound; (2048, 2, 8, 16) and (129, 2, 32, 32)
    past the byte bound, rows of 16 still copied and rows of 32 reduced per
    row; then 256 rows of 1 to 65 keys, across both key bounds, the blocks
    of 8 the copy's sums add in and the tails after them."""

    SHAPES = [(1,), (9,), (6, 1), (1, 7), (5, 4), (3, 4, 6), (2, 3, 1, 17), (2, 2, 3, 4, 5),
              (4, 2, 2, 17, 17), (3, 64), (3, 2, 65), (2, 101), (64, 4, 4, 16, 17),
              (16, 4, 4, 17, 17), (16, 4, 4, 16, 4), (3, 5, 17, 16), (2048, 2, 8, 16),
              (129, 2, 32, 32)] + [(4, 4, 16, keys) for keys in (1, 7, 8, 9, 15, 16, 17, 31,
                                                                 33, 47, 48, 49, 63, 64, 65)]

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_softmax_bytes(self, shape, dtype, axis):
        rng = np.random.default_rng(sum(shape) + len(shape))
        with np.errstate(all="ignore"):
            for _ in range(4):
                x = softmax_inputs(rng, shape, dtype)
                assert_same_bytes(softmax(x, axis=axis), oracle_softmax(x, axis=axis))

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_softmax_backward_bytes(self, shape, dtype, axis):
        """Gradients spread over 60 decades, with signed zeros: row sums
        that depend on the order they are added in."""
        rng = np.random.default_rng(sum(shape) + len(shape) + 1)
        with np.errstate(all="ignore"):
            for _ in range(2):
                out = softmax(softmax_inputs(rng, shape, dtype), axis=axis)
                d_out = spread_gradients(rng, shape, dtype)
                assert_same_bytes(softmax_backward(out, d_out, axis=axis),
                                  oracle_softmax_backward(out, d_out, axis=axis))


class TestAttentionMatchesMergeCopies:
    """Attention writes its head products straight into their merged layouts
    and reduces each set of bias gradients once: the bytes of the
    merge-copy formulation with one reduce per bias, for the output, both
    input gradients and every parameter gradient. The backward takes its
    inputs back as copies laid out like the forward's, not the arrays the
    forward saw."""

    # "units" is a self-attention over a swapaxes view, as HAFE's unit attention
    CASES = {"self": ((16, 4, 17, 32), None),
             "shared_cross": ((16, 4, 16, 32), (16, 4, 32)),
             "one_query": ((16, 4, 1, 32), (16, 4, 16, 32)),
             "self_3d": ((16, 4, 32), None),
             "cross_3d": ((16, 5, 32), (16, 9, 32)),
             "units": ((16, 5, 4, 32), None)}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("samples", [16, 1])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes(self, case, samples, dtype):
        q_shape, kv_shape = self.CASES[case]
        rng = np.random.default_rng([len(case), samples])
        att = in_dtype(Attention(32, 4, rng), dtype)
        for p in (att.b_q, att.b_k, att.b_v, att.b_o):
            p.data[...] = rng.normal(size=p.shape)
        q_in = (rng.normal(size=(samples,) + q_shape[1:]) * 2.0).astype(dtype)
        if case == "units":
            q_in = q_in.swapaxes(1, 2)
        kv_in = q_in if kv_shape is None else (
            rng.normal(size=(samples,) + kv_shape[1:]) * 2.0).astype(dtype)
        d_out = spread_gradients(rng, q_in.shape, dtype)
        want_out, want_dq, want_dkv, want_grads = staged_attention(att, q_in, kv_in, d_out)
        kv_arg = None if kv_shape is None else kv_in
        assert_same_bytes(att.forward(q_in, kv_arg), want_out)
        back = [x.swapaxes(1, 2).copy().swapaxes(1, 2) if case == "units" else x.copy()
                for x in (q_in, kv_arg) if x is not None]
        d_q_in, d_kv_in = att.backward(d_out, *back)
        assert_same_bytes(d_q_in, want_dq)
        assert_same_bytes(d_kv_in, want_dkv)
        for name, p in att.named_parameters():
            assert_same_bytes(p.grad, staged_accumulate(np.zeros_like(p.grad), want_grads[name]))


class TestHandBack:
    """A Linear or patch-embedding backward fed its input back by the caller
    gives the bytes of the path that tapes the input: the input gradient
    and every folded parameter gradient, over two calls per pass (forward in
    order, backward in reverse). The handed-back inputs are rebuilt, not the
    arrays the forward saw. (Attention's and FeedForward's hand-back are
    checked against their staged references above.) ``LayerNorm.output``,
    which rebuilds what the LayerNorm-fed callers hand back, gives the bytes
    of the forward's return."""

    @staticmethod
    def twins(build, dtype):
        return [in_dtype(build(np.random.default_rng(7)), dtype) for _ in range(2)]

    @staticmethod
    def assert_same_grads(got, want):
        for (_, p), (_, q) in zip(got.named_parameters(), want.named_parameters()):
            assert_same_bytes(p.grad, q.grad)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear(self, dtype):
        rng = np.random.default_rng(21)
        taped, handed = self.twins(lambda r: Linear(32, 24, r), dtype)
        xs = [rng.normal(size=(3, 4, 7, 32)).astype(dtype) for _ in range(2)]
        d_outs = [rng.normal(size=(3, 4, 7, 24)).astype(dtype) for _ in xs]
        for x in xs:
            assert_same_bytes(handed.forward(x, save_input=False), taped.forward(x))
        for x, d_out in reversed(list(zip(xs, d_outs))):
            assert_same_bytes(handed.backward(d_out, x=x.copy()), taped.backward(d_out))
        self.assert_same_grads(handed, taped)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("modality", ["video", "audio"])
    def test_patch_embed(self, modality, dtype):
        """The taped path is the projection taping the patches; the handed-
        back patches are made again from the clip arrays."""
        video_shape, audio_shape = PRESET_INPUTS["Tiny"]
        cls, clip_shape = ((VideoEmbed, video_shape) if modality == "video"
                           else (AudioEmbed, audio_shape))
        rng = np.random.default_rng(23)
        handed, taped = self.twins(lambda r: cls(preset("Tiny"), clip_shape, r), dtype)
        batches = [[rng.random(handed.shape).astype(np.float32) for _ in range(3)]
                   for _ in range(2)]
        d_outs = []
        for arrays in batches:
            patches = handed.patches(arrays)
            tokens = handed.forward(patches)
            want = taped.proj.forward(patches.astype(dtype)) + taped.codes
            assert_same_bytes(tokens, want)
            d_outs.append(rng.normal(size=tokens.shape).astype(dtype))
        for arrays, d_out in reversed(list(zip(batches, d_outs))):
            handed.backward(d_out, handed.patches(arrays))
            taped.proj.backward(d_out, input_grad=False)
        self.assert_same_grads(handed, taped)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layernorm_output_is_the_forward_return(self, dtype):
        """``output`` rebuilds the top entry's output; after that entry's
        backward it rebuilds the one below."""
        rng = np.random.default_rng(24)
        ln = in_dtype(LayerNorm(32), dtype)
        ln.scale.data[...] = rng.normal(size=32)
        ln.shift.data[...] = rng.normal(size=32)
        xs = [rng.normal(size=(3, 4, 7, 32)).astype(dtype) for _ in range(2)]
        outs = [ln.forward(x) for x in xs]
        assert_same_bytes(ln.output(), outs[1])
        ln.backward(np.ones_like(outs[1]))
        assert_same_bytes(ln.output(), outs[0])

    def test_layernorm_output_on_empty_tape_raises(self):
        ln = LayerNorm(8)
        with pytest.raises(GradientStateError):
            ln.output()
        ln.forward(np.ones((1, 2, 8), dtype=np.float32))
        ln.backward(np.ones((1, 2, 8), dtype=np.float32))
        with pytest.raises(GradientStateError):
            ln.output()


def layernorm_rows(model):
    """The bytes of every row of every output the model's LayerNorm tapes
    can rebuild, computed here from each entry's xhat."""
    rows = set()
    for norm in (b for b in model._walk() if isinstance(b, LayerNorm)):
        for xhat, _ in norm._tape:
            out = xhat * norm.scale.data + norm.shift.data
            rows.update(row.tobytes() for row in out.reshape(-1, out.shape[-1]))
    return rows


def assert_no_rebuildable_activations(model):
    """No FeedForward tape holds a [.., 4C] array but h, and neither Linear
    of one an input; no Attention tape holds the merged head products; no
    Attention or Linear tape holds an array all of whose rows are rows of a
    LayerNorm's output; no patch embedding tapes its patches."""
    blocks = list(model._walk())
    for ffn in (b for b in blocks if isinstance(b, FeedForward)):
        hidden = ffn.fc1.d_out
        for entry in ffn._tape:
            assert sum(a.shape[-1] == hidden for a in taped_arrays(entry)) == 1
        for lin in (ffn.fc1, ffn.fc2):
            assert all(not list(taped_arrays(entry)) for entry in lin._tape)
    for embed in (b for b in blocks if isinstance(b, PatchEmbed)):
        assert all(not list(taped_arrays(entry)) for entry in embed.proj._tape)
    for att in (b for b in blocks if isinstance(b, Attention)):
        for entry in att._tape:
            q, v, probs = entry[0], entry[2], entry[3]
            merged = np.empty(q.shape[:-3] + (q.shape[-2], att.dim), dtype=probs.dtype)
            np.matmul(probs, v, out=att._split(merged))
            assert not any(a.shape == merged.shape and np.array_equal(a, merged)
                           for a in taped_arrays(entry))
    rows = layernorm_rows(model)
    for block in blocks:
        if isinstance(block, (Attention, Linear)):
            for entry in block._tape:
                for a in taped_arrays(entry):
                    assert not all(row.tobytes() in rows
                                   for row in a.reshape(-1, a.shape[-1])), type(block)


class TestTapeSize:
    """What one taped Tiny forward leaves on the tapes: only what a backward
    cannot rebuild bit for bit from the rest or take back from its caller.
    A failure prints the tapes by block class and entry slot."""

    MIB = 1 << 20

    def assert_tapes(self, model, bound_mib):
        assert tape_bytes(model) <= bound_mib * self.MIB, format_tape_breakdown(
            tape_breakdown(model))
        assert_no_rebuildable_activations(model)

    def test_finetune_batch_of_16(self):
        video_shape, audio_shape = PRESET_INPUTS["Tiny"]
        clips, _ = gen_synthetic(SyntheticTask(4, video_shape, audio_shape), 16)
        model = FinetuneModel(preset("Tiny"), video_shape, audio_shape, 4,
                              rng=sample_rng(0))
        model.forward_sample(clips, rngs=[sample_rng(0, 1, i) for i in range(16)],
                             drop_path=desk_train_config("finetune").drop_path)
        # 11.30 MiB; 15.45 with the LayerNorm-fed inputs and the patches
        # taped, 21.15 with a, t and the merged products taped as well
        self.assert_tapes(model, 11.3)

    def test_pretrain_batch_of_8(self):
        cfg = preset("Tiny")
        video_shape, audio_shape = PRESET_INPUTS["Tiny"]
        clips, _ = gen_synthetic(SyntheticTask(4, video_shape, audio_shape), 8)
        model = PretrainModel(cfg, video_shape, audio_shape, rng=sample_rng(0))
        pairs_v, pairs_a = zip(*(make_mask_pairs(cfg, video_shape, audio_shape,
                                                 sample_rng(0, 1, i)) for i in range(8)))
        model.forward_sample(clips, pairs_v, pairs_a)
        # 1.95 MiB; 3.21 with the LayerNorm-fed inputs and the patches
        # taped, 4.26 with a, t and the merged products taped as well
        self.assert_tapes(model, 1.96)


def spread_gradients(rng, shape, dtype):
    """Random signs and magnitudes from 1e-30 to 1e30, with -0.0 and +0.0
    entries: rows whose sum depends on the order they are added in."""
    out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-30, 30, size=shape)
    u = rng.random(shape)
    out[u < 0.15] = -0.0
    out[(u >= 0.15) & (u < 0.2)] = 0.0
    return out.astype(dtype)


class GivenGradients(Block):
    """A block whose backward writes the per-sample gradients it is given,
    one array per own parameter."""

    def __init__(self, *grads):
        super().__init__()
        for i, grad in enumerate(grads):
            setattr(self, f"p{i}", Parameter(np.zeros_like(grad)))
            getattr(self, f"p{i}").grad[...] = grad

    def forward(self):
        self._save()

    def backward(self, *grads):
        self._load()
        for slot, g in zip(self._grad_slots(len(grads[0])), grads):
            slot[...] = g
        self._fold_grads()


def given_gradients(grads, packed):
    """A GivenGradients block starting from ``grads``; packed, it sits in a
    holder's arena after another parameter, so its own slice is offset."""
    block = GivenGradients(*grads)
    if packed:
        holder = Block()
        holder.q = Parameter(np.zeros(3, dtype=grads[0].dtype))
        holder.block = block
        holder.pack()
    return block


class TestAccumulate:
    """The slab fold gives the bytes of the staged folds, packed or not."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("start", ["zero", "random", "negative-zero"])
    @pytest.mark.parametrize("shape", [(32, 32), (32,), (4,), (1,)], ids=str)
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 16])
    def test_matches_staged_fold(self, n_samples, shape, start, dtype):
        """A block applied once per pass."""
        rng = np.random.default_rng([n_samples, len(shape), shape[0]])
        grads = spread_gradients(rng, (n_samples,) + shape, dtype)
        if start == "zero":
            grad = np.zeros(shape, dtype=dtype)
        elif start == "random":
            grad = spread_gradients(rng, shape, dtype)
        else:
            grad = np.full(shape, -0.0, dtype=dtype)
        for packed in (False, True):
            block = given_gradients([grad], packed)
            block.forward()
            block.backward(grads.copy())
            assert_same_bytes(block.p0.grad, staged_accumulate(grad, grads))

    @pytest.mark.parametrize("packed", [False, True], ids=["bare", "packed"])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shapes", [((32, 32), (32,)), ((4,), (3, 2)), ((1,),)],
                             ids=str)
    @pytest.mark.parametrize("n_samples", [1, 2, 7])
    @pytest.mark.parametrize("n_calls", [1, 2, 3])
    def test_calls_per_pass_match_staged_fold(self, n_calls, n_samples, shapes, dtype,
                                              packed):
        """A block applied 1, 2 and 3 times per pass, over two passes: each
        own parameter's gradient is the multi-call staged fold's."""
        rng = np.random.default_rng([n_calls, n_samples, len(shapes)])
        want = [spread_gradients(rng, shape, dtype) for shape in shapes]
        block = given_gradients(want, packed)
        for _ in range(2):
            per_call = [[spread_gradients(rng, (n_samples,) + shape, dtype)
                         for shape in shapes] for _ in range(n_calls)]
            for _ in range(n_calls):
                block.forward()
            for grads in per_call:
                block.backward(*grads)
            want = [staged_fold(grad, [call[i] for call in per_call])
                    for i, grad in enumerate(want)]
            for p, grad in zip(block._params.values(), want):
                assert_same_bytes(p.grad, grad)
        assert block._slab is None

    def test_forward_during_backward_pass_raises(self):
        """A taped forward while the slab is open would add a call the slab
        has no slot for; it raises. One inside ``no_tape`` records nothing."""
        rng = np.random.default_rng(4)
        lin = Linear(3, 2, rng).double()
        x = rng.normal(size=(1, 4, 3))
        lin.forward(x)
        lin.forward(x)
        lin.backward(np.ones((1, 4, 2)))
        with no_tape():
            lin.forward(x)
        with pytest.raises(GradientStateError):
            lin.forward(x)
        lin.backward(np.ones((1, 4, 2)))
        assert lin._slab is None
        assert np.array_equal(lin.weight.grad, 2 * (x[0].T @ np.ones((4, 2))))

    def test_clear_caches_drops_open_slab(self):
        rng = np.random.default_rng(6)
        lin = Linear(3, 2, rng).double()
        x = rng.normal(size=(2, 4, 3))
        lin.forward(x)
        lin.forward(x)
        lin.backward(np.ones((2, 4, 2)))
        lin.clear_caches()
        assert lin._slab is None and not lin.weight.grad.any()
        lin.forward(x[:1])
        lin.backward(np.ones((1, 4, 2)))
        assert np.array_equal(lin.weight.grad, x[0].T @ np.ones((4, 2)))

    def test_linear_without_input_grad(self):
        """``input_grad=False`` returns None and leaves the parameter
        gradients those of a full backward."""
        rng = np.random.default_rng(8)
        full, part = (Linear(5, 3, np.random.default_rng(2)) for _ in range(2))
        x = rng.normal(size=(2, 4, 5)).astype(np.float32)
        d_out = rng.normal(size=(2, 4, 3)).astype(np.float32)
        for lin in (full, part):
            lin.forward(x)
        assert full.backward(d_out) is not None
        assert part.backward(d_out, input_grad=False) is None
        for name in ("weight", "bias"):
            assert_same_bytes(getattr(part, name).grad, getattr(full, name).grad)

    def test_training_steps_write_every_slot(self, monkeypatch):
        """Every slab of a Tiny pretrain and fine-tune step is filled with NaN
        when it opens; no gradient the optimizer steps with holds one, so
        every backward wrote every slot of its own parameters."""
        video_shape, audio_shape = (8, 32, 32), (32, 16)
        clips, labels = gen_synthetic(SyntheticTask(4, video_shape, audio_shape), 4)
        opened, seen = [], []
        grad_row, step = Block._grad_row, AdamW.step

        def poisoned(self, n_samples):
            fresh = self._slab is None
            row = grad_row(self, n_samples)
            if fresh:
                self._slab.fill(np.nan)
                opened.append(type(self).__name__)
            return row

        def recording(self, lr, weight_decay):
            seen.append(self.grad.copy())
            step(self, lr, weight_decay)

        monkeypatch.setattr(Block, "_grad_row", poisoned)
        monkeypatch.setattr(AdamW, "step", recording)
        tcfg = desk_train_config("pretrain")
        pretrain = PretrainModel(preset("Tiny"), video_shape, audio_shape, rng=sample_rng(0))
        pretrain_step(pretrain, clips, [0, 1, 2, 3], 1, tcfg,
                      optimizer_for(pretrain, pretrain.cfg, tcfg), 1e-4)
        tcfg = desk_train_config("finetune")
        model = FinetuneModel(preset("Tiny"), video_shape, audio_shape, 4, rng=sample_rng(0))
        supervised_step(model, clips, labels, [0, 1, 2, 3], 1, tcfg,
                        optimizer_for(model, model.cfg, tcfg), 1e-4)
        assert len(seen) == 2 and len(opened) > 300
        assert {"PretrainModel", "LGIEncoder", "IAVCLHead", "Attention", "LayerNorm",
                "Linear", "ConvBNPReLU"} <= set(opened)
        for grad in seen:
            assert not np.isnan(grad).any()


class _OutOfRange:
    """Generator stub whose every normal draw lies outside two deviations,
    alternating sign, so no redraw pass ever succeeds."""

    def __init__(self):
        self.calls = 0

    def normal(self, loc, scale, size):
        self.calls += 1
        out = np.full(size, 3.0 * scale)
        out.reshape(-1)[1::2] *= -1.0
        return out


class TestTruncNormalMatchesWholeArrayPasses:
    """Rechecking only the redrawn entries gives the bits of whole-array
    passes and leaves the generator where they leave it."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(32,), (32, 32), (512, 512), (64, 8, 3)], ids=str)
    def test_bytes_and_next_draw(self, shape, dtype):
        seed = sum(shape)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bytes(trunc_normal(got_rng, shape).astype(dtype),
                          oracle_trunc_normal(want_rng, shape).astype(dtype))
        assert got_rng.normal(size=5).tobytes() == want_rng.normal(size=5).tobytes()

    def test_clip_after_sixteen_passes(self):
        got_rng, want_rng = _OutOfRange(), _OutOfRange()
        got = trunc_normal(got_rng, (5, 3))
        assert_same_bytes(got, oracle_trunc_normal(want_rng, (5, 3)))
        assert got_rng.calls == want_rng.calls == 17
        assert set(np.abs(got).ravel().tolist()) == {float(np.float32(0.04))}
