"""Command-line entry points.

Subcommands: pretrain / posttrain / finetune (stage drivers), gen-data
(synthetic corpus), check-grads (finite-difference verification),
shapes (dimension trace and parameter accounting), maskdump (mask
inspection), verify (full property suite).

Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments, config files, datasets or checkpoints), 3 training diverged (a
non-finite gradient). Commands write only under their --out argument.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import verify as verifymod
from .atomic import write_atomic
from .config import (DOMAINS, PRESET_INPUTS, ModelConfig, TrainConfig,
                     desk_train_config, load_config_file, number, numbers,
                     preset, preset_names, validate)
from .masking import (mask_to_ascii, mask_to_pbm, random_mask,
                      running_cell_mask, tube_mask)
from .training import SyntheticTask, gen_synthetic, load_dataset, run_stage


_COUNT, _RATIO = number(int, 1), number(float, 0, 1, open_low=True)


def _task(text: str) -> tuple[int, float]:
    """``--task``'s '<classes>[,<noise>]' as (classes, noise)."""
    classes, comma, noise = text.partition(",")
    return _COUNT.parse(classes), number(float, 0).parse(noise if comma else "0")


def _resolve_configs(args, stage: str) -> tuple[ModelConfig, TrainConfig]:
    model_raw, train_raw = load_config_file(args.config) if args.config else (None, None)
    model_cfg = ModelConfig.from_dict(model_raw or {}, base=preset(args.preset))
    train_cfg = TrainConfig.from_dict(train_raw or {}, base=desk_train_config(stage))
    if args.seed is not None:  # an explicit flag wins over the config file
        train_cfg.seed = args.seed
    return model_cfg, train_cfg


def _cmd_train(args, stage: str) -> int:
    model_cfg, train_cfg = _resolve_configs(args, stage)
    clips, labels = load_dataset(args.data)
    video_shape, audio_shape = clips[0].video.shape[:3], clips[0].audio.shape
    errors = validate(model_cfg, video_shape, audio_shape)
    if errors:
        raise ValueError("config does not fit the data geometry:\n  "
                         + "\n  ".join(errors))
    data = clips if stage == "pretrain" else (clips, labels)
    ckpt_path, log = run_stage(stage, model_cfg, train_cfg, data,
                               video_shape, audio_shape, args.out,
                               checkpoint_in=getattr(args, "init", None),
                               steps=args.steps)
    last = log.records[-1] if log.records else {}
    print(f"{stage} finished: {len(log.records)} steps, "
          f"final loss {last.get('loss')}, checkpoint {ckpt_path}")
    return 0


def _cmd_gen_data(args) -> int:
    (n_classes, noise), shapes = args.task, PRESET_INPUTS[args.geometry]
    task = SyntheticTask(n_classes, *shapes, noise=noise, seed=args.seed)
    gen_synthetic(task, args.n, out_dir=args.out)
    print(f"wrote {args.n} clips and manifest.jsonl under {args.out}")
    return 0


def _cmd_check_grads(args) -> int:
    names = (list(verifymod.GRAD_CHECKS) if args.module == "all"
             else [args.module])
    failed = False
    for name in names:
        report = verifymod.run_grad_check(name, tolerance=args.tolerance)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}: max rel err {report.worst:.3e} "
              f"(tolerance {report.tolerance:g})")
        if not report.passed:
            for line in report.lines():
                print(f"    {line}")
            failed = True
    return 1 if failed else 0


def _cmd_shapes(args) -> int:
    print(verifymod.shape_trace(args.preset))
    return 0


def _cmd_maskdump(args) -> int:
    grid, ranks = args.grid, (2, 3) if args.type == "random" else (3,)
    if len(grid) not in ranks:
        raise ValueError(f"--grid for a {args.type} mask takes "
                         f"{' or '.join(map(str, ranks))} sizes, got {len(grid)}")
    rng = np.random.default_rng(args.seed)
    if args.type == "tube":
        mask = tube_mask(*grid, args.ratio, rng)
    elif args.type == "random":
        mask = random_mask(int(np.prod(grid)), args.ratio, rng)
    else:
        encoder = tube_mask(*grid, args.encoder_ratio, rng)
        mask = running_cell_mask(*grid, encoder, args.ratio, rng)
    sys.stdout.write(mask_to_ascii(mask, grid))
    if args.out:
        write_atomic(args.out, [mask_to_pbm(mask, grid).encode()])
        print(f"pbm written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = verifymod.property_suite(grad_probes=args.grad_probes)
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avmae",
        description="Audio-visual masked autoencoder: training, generation "
                    "and verification at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage, cmd in (("pretrain", "pretrain"), ("post_pretrain", "posttrain"),
                       ("finetune", "finetune")):
        p = sub.add_parser(cmd, help=f"run the {stage} stage")
        p.add_argument("--config", help="JSON config file (model/train sections)")
        p.add_argument("--preset", default="Tiny", choices=preset_names())
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--out", required=True, help="output directory")
        if stage != "pretrain":
            p.add_argument("--init", required=True, help="input checkpoint")
        p.add_argument("--seed", type=DOMAINS["seed"].parse,
                       help="RNG seed (overrides the config file)")
        p.add_argument("--steps", type=number(int, 0).parse,
                       help="override the step budget")
        p.set_defaults(func=lambda a, s=stage: _cmd_train(a, s))

    p = sub.add_parser("gen-data", help="generate a synthetic paired corpus")
    p.add_argument("--task", type=_task, required=True,
                   help="'<classes>[,<noise>]', e.g. '2' or '3,0.1'")
    p.add_argument("--n", type=_COUNT.parse, required=True)
    p.add_argument("--seed", type=DOMAINS["seed"].parse, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--geometry", default="Tiny", choices=preset_names(),
                   help="clip geometry preset")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("check-grads", help="finite-difference gradient checks")
    p.add_argument("--module", default="all",
                   choices=["all", *verifymod.GRAD_CHECKS])
    p.add_argument("--tolerance", type=number(float, 0, open_low=True).parse)
    p.set_defaults(func=_cmd_check_grads)

    p = sub.add_parser("shapes", help="dimension trace and parameter counts")
    p.add_argument("--preset", required=True, choices=preset_names())
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("maskdump", help="emit a mask as ascii and pbm")
    p.add_argument("--type", required=True, choices=["tube", "random", "cell"])
    p.add_argument("--grid", type=numbers(_COUNT).parse, required=True,
                   help="t,h,w (or h,w for random)")
    p.add_argument("--ratio", type=_RATIO.parse, required=True)
    p.add_argument("--encoder-ratio", type=_RATIO.parse, default=0.9,
                   help="encoder mask ratio backing a cell mask")
    p.add_argument("--seed", type=DOMAINS["seed"].parse, default=0)
    p.add_argument("--out", help="write a P1 pbm here")
    p.set_defaults(func=_cmd_maskdump)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--grad-probes", type=_COUNT.parse, default=16,
                   help="finite-difference probes per parameter tensor")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
