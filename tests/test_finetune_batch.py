"""The batch-first fine-tune path against the per-sample path, byte for byte."""

import numpy as np
import pytest

from avmae import encoder, finetune, training
from avmae.blocks import GradientStateError
from avmae.config import PRESET_INPUTS, desk_train_config, preset
from avmae.embedding import RawClip
from avmae.finetune import FinetuneModel
from avmae.losses import cross_entropy_ls
from avmae.pretrain import PretrainModel, make_mask_pairs
from avmae.training import SyntheticTask, gen_synthetic, sample_rng, train_accuracy

from oracles import (call_order_statistics, per_sample_backward, per_sample_forward,
                     per_sample_supervised_step, recording_statistics)

TINY_V, TINY_A = PRESET_INPUTS["Tiny"]
N_CLASSES = 3


def tiny_model(seed=0):
    return FinetuneModel(preset("Tiny"), TINY_V, TINY_A, N_CLASSES,
                         rng=sample_rng(seed, 0xF1E7))


def tiny_data(n, seed=0):
    task = SyntheticTask(N_CLASSES, TINY_V, TINY_A, noise=0.1, seed=seed)
    return gen_synthetic(task, n)


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def bn_state(model):
    return dict(model.named_buffers())


def bn_start(model):
    """A copy of the IAV-CL batch norm's buffers and the list its training
    calls will be recorded in from now on."""
    conv = model.iavcl.er.conv
    start = {name: b.copy() for name, b in conv.named_buffers()}
    return start, recording_statistics(conv)


# batch-norm calls per clip: both modalities of every DiER unit
PER_CLIP = 2 * preset("Tiny").num_dier_units


class TestBatchMatchesPerSample:
    def test_training_step_bytes(self):
        """S=4, float32, training mode, drop-path 0.5: logits and every
        parameter gradient equal the per-sample loop's, and the batch-norm
        running statistics equal its per-call statistics folded in call
        order."""
        clips, labels = tiny_data(4)
        rate, step = 0.5, 7
        # six branch decisions per layer, video layers then audio layers
        n_draws = 6 * 2 * preset("Tiny").encoder_depth
        draws = np.array([[sample_rng(0, step, i).random() for _ in range(n_draws)]
                          for i in range(4)])
        assert (draws < rate).any() and (draws >= rate).any()  # some branches drop

        batched, single = tiny_model(), tiny_model()
        for model in (batched, single):   # non-empty running statistics
            model.forward_sample(clips[:2], training=True)
            model.clear_caches()
        start, calls = bn_start(single)
        rngs = [sample_rng(0, step, i) for i in range(4)]
        logits = batched.forward_sample(clips, rngs=rngs, drop_path=rate)
        rngs = [sample_rng(0, step, i) for i in range(4)]
        want = per_sample_forward(single, clips, rngs, drop_path=rate)
        assert_same_bytes(logits, want, "logits")
        assert logits.dtype == np.float32

        _, d_logits = cross_entropy_ls(logits, np.asarray(labels), 0.1)
        batched.backward_sample(d_logits)
        per_sample_backward(single, d_logits)
        for (name, p), (_, q) in zip(batched.named_parameters(),
                                     single.named_parameters()):
            assert_same_bytes(p.grad, q.grad, name)
        call_order_statistics(single.iavcl.er.conv, start, calls, 4, PER_CLIP)
        want_bn = bn_state(single)
        for name, b in bn_state(batched).items():
            assert_same_bytes(b, want_bn[name], name)
        # one count per sample and call: 2 modalities per unit, 2 + 4 samples
        assert int(batched.iavcl.er.conv.num_batches) == (2 + 4) * 2 * 2

    def test_adamw_arena_after_three_steps(self, monkeypatch):
        clips, labels = tiny_data(8)
        tcfg = desk_train_config("finetune", seed=0)
        tcfg.batch = 4
        tcfg.drop_path = 0.5
        optimizers = []
        built = training.optimizer_for
        monkeypatch.setattr(training, "optimizer_for",
                            lambda *a: optimizers.append(built(*a)) or optimizers[-1])
        batched = tiny_model()
        training.run_supervised(batched, tcfg, clips, labels, steps=3)
        monkeypatch.setattr(training, "supervised_step", per_sample_supervised_step)
        single = tiny_model()
        start, calls = bn_start(single)
        training.run_supervised(single, tcfg, clips, labels, steps=3)
        got, want = optimizers
        assert got.t == want.t == 3
        for field in ("data", "grad", "m", "v"):
            assert_same_bytes(getattr(got, field), getattr(want, field), field)
        call_order_statistics(single.iavcl.er.conv, start, calls, tcfg.batch, PER_CLIP)
        want_bn = bn_state(single)
        for name, b in bn_state(batched).items():
            assert_same_bytes(b, want_bn[name], name)


class TestTrainAccuracy:
    def test_chunked_predictions_equal_per_clip_predict(self):
        n = training._EVAL_CHUNK + 3
        clips, labels = tiny_data(n, seed=1)
        model = tiny_model(1)
        tcfg = desk_train_config("finetune", seed=1)
        training.run_supervised(model, tcfg, clips, labels, steps=2)

        chunks = []
        forward = model.forward_sample

        def spy(batch, **kwargs):
            chunks.append(forward(batch, **kwargs))
            return chunks[-1]

        model.forward_sample = spy
        acc = train_accuracy(model, clips, labels)
        del model.forward_sample
        assert [len(c) for c in chunks] == [training._EVAL_CHUNK, 3]
        want = np.stack([model.predict(clip) for clip in clips])
        assert_same_bytes(np.concatenate(chunks), want, "eval logits")
        assert acc == np.mean(np.argmax(want, axis=1) == labels)


class TestTapeFreeEvaluation:
    def test_predict_between_forward_and_backward_keeps_the_step(self):
        """A predict between a training forward and its backward leaves the
        logits and every parameter gradient those of the uninterrupted step."""
        clips, labels = tiny_data(5)
        grads = []
        for interrupt in (False, True):
            model = tiny_model()
            rngs = [sample_rng(0, 3, i) for i in range(4)]
            logits = model.forward_sample(clips[:4], rngs=rngs, drop_path=0.5)
            _, d_logits = cross_entropy_ls(logits, np.asarray(labels[:4]), 0.1)
            if interrupt:
                model.predict(clips[4])
                train_accuracy(model, clips, labels)
            model.backward_sample(d_logits)
            grads.append((logits, dict(model.named_parameters())))
        (want_logits, want), (got_logits, got) = grads
        assert_same_bytes(got_logits, want_logits, "logits")
        for name, p in got.items():
            assert_same_bytes(p.grad, want[name].grad, name)

    def test_backward_after_tape_free_forward_raises(self):
        clips, labels = tiny_data(2)
        model = tiny_model()
        model.forward_sample(clips, training=True)   # running statistics
        model.clear_caches()
        d_logits = np.ones((1, N_CLASSES), dtype=np.float32)
        model.predict(clips[0])
        with pytest.raises(GradientStateError):
            model.backward_sample(d_logits)
        train_accuracy(model, clips, labels)
        with pytest.raises(GradientStateError):
            model.backward_sample(d_logits)

    def test_layouts_built_once_per_batch_size(self, monkeypatch):
        model = tiny_model()
        clips, labels = tiny_data(3)
        built = []
        build = encoder.partition
        monkeypatch.setattr(finetune, "partition", lambda grid, region, visible:
                            built.append(len(visible)) or build(grid, region, visible))
        monkeypatch.setattr(encoder, "partition", None)   # encode must not partition
        for _ in range(2):
            model.forward_sample(clips, training=True)
            model.clear_caches()
            model.predict(clips[0])
        assert built == [3, 3, 1, 1]   # video and audio, once per size


class TestClipShapeBoundary:
    @pytest.mark.parametrize("kind, modality", [
        ("finetune", "video"), ("finetune", "audio"),
        ("pretrain", "video"), ("pretrain", "audio")],
        ids=["video", "audio", "pretrain-video", "pretrain-audio"])
    def test_mismatched_clip_rejected_before_any_work(self, kind, modality):
        clips, _ = tiny_data(2)
        good = clips[1]
        if modality == "video":
            odd = RawClip(np.zeros((4,) + TINY_V[1:] + (3,), dtype=np.float32), good.audio)
            got, want = (4,) + TINY_V[1:], TINY_V
        else:
            odd = RawClip(good.video, np.zeros((16, TINY_A[1]), dtype=np.float32))
            got, want = (16, TINY_A[1]), TINY_A
        if kind == "finetune":
            model = tiny_model()
            forward = lambda batch: model.forward_sample(batch, training=True)
        else:
            cfg = preset("Tiny")
            model = PretrainModel(cfg, TINY_V, TINY_A, rng=sample_rng(0, 0xA11CE))
            pairs = [make_mask_pairs(cfg, TINY_V, TINY_A, sample_rng(0, 1, i))
                     for i in range(2)]
            forward = lambda batch: model.forward_sample(
                batch, [p[0] for p in pairs], [p[1] for p in pairs])
        with pytest.raises(ValueError, match=(
                rf"{modality} clip shape \({got[0]}, .*\) differs from "
                rf"the model's \({want[0]}, .*\)")):
            forward([good, odd])
        assert all(not block._tape for block in (model.video_embed.proj,
                                                 model.audio_embed.proj))
        if kind == "finetune":
            with pytest.raises(ValueError, match=f"{modality} clip shape"):
                model.predict(odd)
