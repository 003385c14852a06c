"""Core numerics: forward semantics, hand-written backwards, grad checks."""

import numpy as np
import pytest

from avmae.blocks import (BATCHNORM_EPS, Attention, ConvBNPReLU, FeedForward,
                          GradientStateError, LayerNorm, Linear, no_tape,
                          sigmoid, softmax, softmax_backward)
from avmae.gradcheck import grad_check

from oracles import (oracle_attention, oracle_batchnorm_prelu_backward,
                     oracle_batchnorm_prelu_forward, oracle_layernorm_backward,
                     oracle_layernorm_forward, oracle_sigmoid_split,
                     oracle_softmax, oracle_softmax_backward)
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
        att = Attention(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(1, 8))[None]
        out = att.forward(x)
        v = x @ att.w_v.data + att.b_v.data
        expected = v @ att.w_o.data + att.b_o.data
        assert np.allclose(out, expected, atol=1e-12)
        att.clear_caches()

    def test_row_sums_various_shapes(self):
        rng = np.random.default_rng(2)
        for t, c, h in ((1, 8, 1), (3, 8, 2), (7, 16, 4), (2, 12, 3)):
            att = Attention(c, h, rng, dtype=np.float64)
            att.forward(rng.normal(size=(t, c))[None] * 5)
            assert np.allclose(att.last_probs().sum(axis=-1), 1.0, atol=1e-6)
            att.clear_caches()

    def test_mhsa_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        att = Attention(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(3, 8))
        out = att.forward(x[None])[0]
        att.clear_caches()
        assert np.max(np.abs(out - oracle_attention(x, x, att))) < 1e-6

    def test_mhca_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        att = Attention(8, 2, rng, dtype=np.float64)
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
        att = Attention(8, 2, rng, dtype=np.float64)
        att.forward(rng.normal(size=(4, 8))[None], rng.normal(size=(1, 8))[None])
        assert np.allclose(att.last_probs(), 1.0)
        att.clear_caches()

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(6)
        att = Attention(8, 2, rng, dtype=np.float64)
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
        lin = Linear(4, 3, rng, dtype=np.float64)
        x = rng.normal(size=(5, 4))
        lin.forward(x[None])
        ones = np.ones((5, 3))
        lin.backward(ones[None])
        assert np.allclose(lin.weight.grad, x.T @ ones)
        assert np.allclose(lin.bias.grad, ones.sum(axis=0))

    def test_layernorm_constant_row_nullspace(self):
        """Per-row-constant input: gradient orthogonal to the ones direction."""
        ln = LayerNorm(8, dtype=np.float64)
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
        lin = Linear(3, 3, rng, dtype=np.float64)
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
        lin = Linear(3, 2, rng, dtype=np.float64)
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
        att = Attention(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(3, 8))
        g = rng.normal(size=(3, 8))
        outs = []
        for _ in range(2):
            att.zero_grad()
            att.forward(x[None])
            outs.append(att.backward(g.copy()[None]))
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
        lin = Linear(4, 3, rng, dtype=np.float64)
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


class TestConvBNPReLU:
    def test_identity_configuration_returns_normalized(self):
        """Identity conv, unit scale/shift-zero, slope 1: output is the
        per-channel standardisation of the input."""
        rng = np.random.default_rng(0)
        block = ConvBNPReLU(6, rng, dtype=np.float64)
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
        block = ConvBNPReLU(6, rng, dtype=np.float64)
        block.bn_shift.data[...] = 0.0
        x = np.tile(rng.normal(size=(1, 6)), (5, 1))
        out = block.forward(x[None], training=True)
        block.clear_caches()
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_eval_reproduces_first_batch_statistics(self):
        rng = np.random.default_rng(2)
        block = ConvBNPReLU(6, rng, dtype=np.float64)
        x = rng.normal(size=(16, 6))
        train_out = block.forward(x[None], training=True)
        block.clear_caches()
        block.update_statistics()
        eval_out = block.forward(x[None], training=False)
        block.clear_caches()
        assert np.max(np.abs(train_out - eval_out)) < 1e-5
        # statistics recomputed by hand
        y = x @ block.conv.weight.data + block.conv.bias.data
        assert np.allclose(block.running_mean, y.mean(axis=0))
        assert np.allclose(block.running_var, y.var(axis=0))

    def test_eval_before_any_batch_raises(self):
        block = ConvBNPReLU(6, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            block.forward(np.zeros((1, 3, 6), dtype=np.float32), training=False)


class TestPurity:
    def test_forward_is_pure(self):
        """Same inputs and parameters give identical outputs across calls."""
        rng = np.random.default_rng(5)
        ffn = FeedForward(8, rng, dtype=np.float64)
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


class TestKernelsMatchMeanVarReferences:
    """The reductions are ufunc reduces plus an in-place divide: the same
    bits as the np.mean / np.var / np.sum / np.max formulation."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_layernorm(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        c = shape[-1]
        ln = LayerNorm(c, dtype=dtype)
        ln.scale.data[...] = rng.normal(1.0, 0.5, c)
        ln.shift.data[...] = rng.normal(0.0, 0.5, c)
        x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
        d_out = rng.normal(size=shape).astype(dtype)
        want, xhat, inv = oracle_layernorm_forward(x, ln.scale.data, ln.shift.data, ln.eps)
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
        block = ConvBNPReLU(c, rng, dtype=dtype)
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
        block.update_statistics()
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
