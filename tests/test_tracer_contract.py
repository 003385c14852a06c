"""The names ``perfbench/tracer.py`` wraps still exist in ``avmae``.

The tracer finds package functions by module and name and block methods by
class name and method name; a rename in ``avmae`` would otherwise surface
only when ``perfbench/run.py --trace 1`` runs. The tracer module is loaded
from its file and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from avmae.config import PRESET_INPUTS, preset
from avmae.finetune import FinetuneModel
from avmae.pretrain import PretrainModel
from avmae.training import sample_rng

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module, name",
    list(tracer.FUNCTIONS) + [tracer.SETUP_FUNCTION, ("avmae.training", "optimizer_for")],
    ids=lambda value: value if isinstance(value, str) else None)
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_wrapped_methods_exist_on_tiny_models():
    cfg = preset("Tiny")
    video_shape, audio_shape = PRESET_INPUTS["Tiny"]
    models = [PretrainModel(cfg, video_shape, audio_shape, rng=sample_rng(0)),
              FinetuneModel(cfg, video_shape, audio_shape, 2, rng=sample_rng(0))]
    found = set()
    for model in models:
        for _, block, _, _ in tracer._walk(model):   # the blocks the tracer visits
            cls = type(block).__name__
            for method in tracer.WRAPPED_METHODS.get(cls, ()):
                assert callable(getattr(block, method, None)), f"{cls}.{method}"
                found.add(cls)
    assert found == set(tracer.WRAPPED_METHODS)
