"""The ``moeup`` command-line interface.

Every subcommand prints one machine-readable JSON document to stdout and
human-readable progress text to stderr. Exit codes: 0 success, 1 validation
error, 2 I/O or artifact error. All randomness is controlled by ``--seed``;
re-running a command with identical flags gives bitwise-identical output
artifacts (no timestamps), on any core count where numpy's bundled OpenBLAS
is pinned to one thread (``moeup.util.pin_blas_threads``), and otherwise at
the same BLAS thread count. Unknown flags are rejected.

Config files are JSON, either flat ``ModelConfig`` fields or sections named
``model`` / ``train`` / ``upcycle`` mirroring the dataclass field names;
flags override file values, and the effective config is echoed into every
JSON result. The ``MOEUP_THREADS`` environment variable caps internal
parallelism (by default, the number of CPUs the process may run on); results
do not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

# Each command imports the modules it runs beyond these, so that ``moeup
# upcycle`` loads no model, trainer, corpus, analysis or accounting code.
from . import __version__
from . import checkpoint, upcycle
from .config import (BALANCE_MODES, ModelConfig, TrainingDiverged, ValidationError,
                     load_config_file, model_config_from_dict, model_config_from_file)
from .numerics import RngStream
from .util import thread_cap


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to exit code 1
        raise ValidationError(message)


def _emit(result: dict) -> None:
    print(json.dumps(result, indent=2, sort_keys=True))


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="moeup", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"moeup {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a from-scratch checkpoint")
    p.add_argument("--config", required=True, help="JSON model config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output checkpoint directory")

    p = sub.add_parser("upcycle", help="convert a dense checkpoint into an MoE checkpoint")
    p.add_argument("--method", required=True,
                   choices=list(upcycle.METHODS))
    p.add_argument("--in", dest="input", help="parent dense checkpoint directory")
    p.add_argument("--branches", help="comma-separated dense branch checkpoints (btx)")
    p.add_argument("--config", help="JSON config file (model/upcycle sections)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--experts", type=int, help="number of experts (default 8)")
    p.add_argument("--topk", type=int, help="experts selected per token (default 2)")
    p.add_argument("--granularity", type=int)
    p.add_argument("--shared", type=int, help="number of shared experts")
    p.add_argument("--shared-init", choices=list(upcycle.SHARED_INITS))
    p.add_argument("--scale-factor", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--noise-fraction", type=float)

    p = sub.add_parser("train", help="train a toy model on a token corpus")
    p.add_argument("--in", dest="input", required=True, help="input checkpoint directory")
    p.add_argument("--corpus", required=True, help="corpus file (domain TAB ids)")
    p.add_argument("--out", required=True, help="output directory (model + curve.jsonl)")
    p.add_argument("--config", help="JSON config file with a 'train' section")
    p.add_argument("--steps", type=int)
    p.add_argument("--tokens", type=int, help="token budget (alternative to --steps)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--max-lr", type=float)
    p.add_argument("--min-lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--tail", type=int)
    p.add_argument("--balance", choices=list(BALANCE_MODES))
    p.add_argument("--balance-coeff", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("flops", help="forward/training FLOPs accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--tokens", type=float, help="token budget for training FLOPs")

    p = sub.add_parser("params", help="parameter accounting")
    p.add_argument("--config", required=True)

    p = sub.add_parser("analyze-routing", help="routing statistics of a model on a corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory for CSV files")

    p = sub.add_parser("analyze-overlap", help="retained-overlap report for a reinit plan")
    p.add_argument("--plan", required=True, help="reinit_plan.json or its directory")
    p.add_argument("--topk", type=int, default=2)
    p.add_argument("--max-subsets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("catch-up", help="token deficit between two loss curves")
    p.add_argument("--base", required=True, help="base curve JSONL")
    p.add_argument("--other", required=True, help="other curve JSONL")
    p.add_argument("--window", type=int, default=5, help="smoothing window")
    p.add_argument("--out", help="optional CSV output path")

    p = sub.add_parser("inspect", help="report a checkpoint's manifest and stats")
    p.add_argument("--in", dest="input", required=True)

    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _out_dir(path: str) -> Path:
    """``--out`` as a path, checked before any work: it must not be a file.
    Commands create the directory only once their work has succeeded."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"--out {out} exists and is not a directory")
    return out


def _cmd_init(args) -> dict:
    _out_dir(args.out)
    config = model_config_from_file(args.config)
    # Each tensor is written as it is drawn: the whole checkpoint is never held.
    manifest = checkpoint.save(upcycle.scratch_stream(config, seed=args.seed), args.out)
    _info(f"wrote from-scratch checkpoint to {args.out}")
    return {
        "command": "init", "config": config.to_dict(), "seed": args.seed,
        "out": str(args.out), "stored_parameters": _stored_parameters(manifest),
    }


def _stored_parameters(manifest: dict) -> int:
    return sum(math.prod(t["shape"]) for t in manifest["tensors"])


def _from_config(cls, file: dict, section_name: str, flags: dict,
                 defaults: dict | None = None):
    """Build the dataclass ``cls`` from ``defaults``, then a section of the loaded
    config ``file``, then the flags that were set (unset flags are ``None``).

    Fields set by none of them keep the dataclass default. Unknown section
    keys and wrong-typed values raise ``ValidationError``.
    """
    section = file.get(section_name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"'{section_name}' section must be a JSON object")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {section_name} config fields: {sorted(unknown)}")
    settings = dict(defaults or {}) | section
    settings.update({k: v for k, v in flags.items() if v is not None})
    try:
        return cls(**settings)
    except TypeError as exc:
        raise ValidationError(f"invalid {section_name} config: {exc}") from exc


def _target_config(parent: ModelConfig, args, spec: upcycle.UpcycleSpec,
                   file: dict) -> ModelConfig:
    """The model section of the config file, or else the parent with the
    flags' experts and the spec's expert shape. :func:`moeup.upcycle.upcycle_stream`
    refuses a spec that contradicts the model section."""
    if "model" in file:
        return model_config_from_dict(file)
    experts = args.experts if args.experts is not None else 8
    topk = args.topk if args.topk is not None else 2
    return replace(parent, num_experts=experts, top_k=topk, granularity=spec.granularity,
                   shared_experts=spec.shared_experts)


# UpcycleSpec field -> the upcycle flag that sets it.
_SPEC_FLAGS = {"ratio": "--ratio", "seed": "--seed", "noise_sigma": "--noise-sigma",
               "noise_fraction": "--noise-fraction", "granularity": "--granularity",
               "shared_experts": "--shared", "shared_init": "--shared-init",
               "scale_factor": "--scale-factor"}


def _reject_unused(args, file: dict, spec_flags: dict) -> None:
    """Refuse a flag or ``upcycle`` config field that was given and that the
    method would ignore, rather than record it in the metadata or drop it."""
    method = args.method
    for name, flag in _SPEC_FLAGS.items():
        if name in upcycle.SPEC_FIELDS[method]:
            continue
        if spec_flags[name] is not None:
            raise ValidationError(f"{flag} does not apply to --method {method}")
        if name in file.get("upcycle", {}):
            raise ValidationError(
                f"upcycle config field '{name}' does not apply to --method {method}")
    shape = {"--experts": args.experts, "--topk": args.topk}
    ignored = {} if method == "btx" else {"--branches": args.branches}
    if method == "scratch":
        ignored |= shape | {"--in": args.input}
    for flag, value in ignored.items():
        if value is not None:
            raise ValidationError(f"{flag} does not apply to --method {method}")
    for flag, value in shape.items():
        if value is not None and "model" in file:
            raise ValidationError(f"{flag} does not apply: the model section of --config "
                                  f"sets the target's shape")


def _cmd_upcycle(args) -> dict:
    _out_dir(args.out)
    file = {} if args.config is None else load_config_file(args.config)  # read once
    flags = {name: getattr(args, flag[2:].replace("-", "_"))
             for name, flag in _SPEC_FLAGS.items()}
    spec = _from_config(upcycle.UpcycleSpec, file, "upcycle", flags | {"method": args.method})
    _reject_unused(args, file, flags)
    plan = None
    with contextlib.ExitStack() as inputs:
        if spec.method == "scratch":
            if args.config is None:
                raise ValidationError("--method scratch requires --config with a model section")
            built = upcycle.scratch_stream(model_config_from_dict(file), seed=spec.seed)
        else:
            if args.input is None:
                raise ValidationError(f"--method {spec.method} requires --in (parent checkpoint)")
            if spec.method == "btx" and not args.branches:
                raise ValidationError("--method btx requires --branches")
            # Verified handles: each tensor is read when the build asks for it.
            parent = inputs.enter_context(checkpoint.open(args.input))
            branches = [inputs.enter_context(checkpoint.open(p))
                        for p in (args.branches or "").split(",") if p]
            config = _target_config(parent.config, args, spec, file)
            built, plan = upcycle.upcycle_stream(spec, parent, config, branches)
        # Written as it is built: the whole checkpoint is never held.
        manifest = checkpoint.save(built, args.out)
    result = {
        "command": "upcycle", "method": spec.method, "spec": asdict(spec),
        "config": built.config.to_dict(), "metadata": built.metadata, "out": str(args.out),
        "stored_parameters": _stored_parameters(manifest),
    }
    if plan is not None:
        plan_path = upcycle.save_plan(plan, args.out)
        result["reinit_plan"] = str(plan_path)
    _info(f"wrote {spec.method} checkpoint to {args.out}")
    return result


# CLI defaults for the TrainConfig fields that have no dataclass default.
_TRAIN_REQUIRED = {"max_lr": 2e-3, "min_lr": 2e-4, "total_steps": 100}


def _train_config(args):
    from . import trainer

    flags = {
        "total_steps": args.steps, "batch_size": args.batch_size, "seq_len": args.seq_len,
        "max_lr": args.max_lr, "min_lr": args.min_lr, "warmup_steps": args.warmup,
        "tail_steps": args.tail, "balance_mode": args.balance,
        "balance_coeff": args.balance_coeff, "seed": args.seed,
    }
    file = {} if args.config is None else load_config_file(args.config)  # read once
    if args.tokens is not None:
        if args.steps is not None:
            raise ValidationError("pass either --steps or --tokens, not both")
        if args.tokens < 1:
            raise ValidationError(f"--tokens must be >= 1, got {args.tokens}")
        # The step count follows from the batch shape: read that first, with
        # step counts that cannot fail validation.
        zero_steps = dict.fromkeys(("total_steps", "warmup_steps", "tail_steps"), 0)
        probe = _from_config(trainer.TrainConfig, file, "train", flags | zero_steps,
                             _TRAIN_REQUIRED)
        flags["total_steps"] = -(-args.tokens // (probe.batch_size * probe.seq_len))
    config = _from_config(trainer.TrainConfig, file, "train", flags, _TRAIN_REQUIRED)
    if config.total_steps < 1:
        raise ValidationError(f"total_steps must be >= 1, got {config.total_steps}")
    return config


def _cmd_train(args) -> dict:
    from . import corpus as corpus_mod, trainer
    from .model import build_model, model_to_checkpoint

    out = _out_dir(args.out)
    cfg = _train_config(args)
    ckpt = checkpoint.load(args.input)
    data = corpus_mod.load_corpus(args.corpus)
    model = build_model(ckpt, max_positions=cfg.seq_len, stream=RngStream(cfg.seed))
    trainer.check_train_inputs(model, data, cfg)
    _info(f"training for {cfg.total_steps} steps "
          f"({cfg.total_steps * cfg.batch_size * cfg.seq_len} tokens)")
    model, curve = trainer.train(model, data, cfg)
    out.mkdir(parents=True, exist_ok=True)
    trained = model_to_checkpoint(
        model, metadata=dict(ckpt.metadata) | {"trained_steps": cfg.total_steps,
                                               "train_seed": cfg.seed})
    checkpoint.save(trained, out / "model")
    curve.save_jsonl(out / "curve.jsonl")
    first, last = curve.points[0], curve.points[-1]
    _info(f"loss {first.train_loss:.4f} -> {last.train_loss:.4f}")
    return {
        "command": "train", "config": ckpt.config.to_dict(), "train_config": asdict(cfg),
        "out": str(out), "curve": str(out / "curve.jsonl"),
        "initial_loss": first.train_loss, "final_loss": last.train_loss,
        "final_lm_loss": last.lm_loss, "final_balance_loss": last.balance_loss,
    }


def _cmd_flops(args) -> dict:
    from . import accounting

    config = model_config_from_file(args.config)
    breakdown = accounting.flops_forward(config, seq_len=args.seq_len)
    result = {
        "command": "flops", "config": config.to_dict(),
        "forward": breakdown.to_dict(),
    }
    if args.tokens is not None:
        result["total_tokens"] = args.tokens
        result["training_flops"] = accounting.training_flops(config, args.tokens)
    _info(accounting.format_flops_table(breakdown, config.num_layers))
    return result


def _cmd_params(args) -> dict:
    from . import accounting

    config = model_config_from_file(args.config)
    breakdown = accounting.count_params(config)
    _info(f"total parameters:  {breakdown.total:,}")
    _info(f"active parameters: {breakdown.active:,}")
    return {"command": "params", "config": config.to_dict(), "params": breakdown.to_dict()}


def _cmd_analyze_routing(args) -> dict:
    from . import analysis, corpus as corpus_mod
    from .model import build_model

    out = _out_dir(args.out)
    ckpt = checkpoint.load(args.input)
    data = corpus_mod.load_corpus(args.corpus)
    model = build_model(ckpt, max_positions=data.seq_len, stream=RngStream(0))
    summary = analysis.summarize_routing(analysis.collect_traces(model, data))
    out.mkdir(parents=True, exist_ok=True)
    fractions_csv = out / "routing_fractions.csv"
    entropy_csv = out / "layer_entropy.csv"
    analysis.routing_fractions_csv(summary, fractions_csv)
    analysis.layer_entropy_csv(summary, entropy_csv)
    _info(f"wrote {fractions_csv} and {entropy_csv}")
    return {
        "command": "analyze-routing", "config": ckpt.config.to_dict(),
        "fractions_csv": str(fractions_csv), "entropy_csv": str(entropy_csv),
        "entropy": {str(k): v for k, v in sorted(summary.entropy.items())},
        "tokens_per_domain": summary.tokens_per_domain,
    }


def _cmd_analyze_overlap(args) -> dict:
    from . import analysis

    plan = upcycle.load_plan(args.plan)
    report = analysis.overlap_report(plan, k=args.topk, max_subsets=args.max_subsets,
                                     subset_seed=args.seed)
    return {
        "command": "analyze-overlap", "ratio": report.ratio, "dimension": report.dimension,
        "layers": [asdict(layer) for layer in report.layers],
    }


def _cmd_catch_up(args) -> dict:
    from . import analysis, trainer

    base = trainer.LossCurve.load_jsonl(args.base)
    other = trainer.LossCurve.load_jsonl(args.other)
    points = analysis.catch_up(base, other, smooth_window=args.window)
    if args.out:
        analysis.catch_up_csv(points, args.out)
        _info(f"wrote {args.out}")
    return {
        "command": "catch-up", "window": args.window,
        "points": [{"base_tokens": p.base_tokens, "deficit": p.deficit} for p in points],
    }


def _cmd_inspect(args) -> dict:
    from . import accounting

    # The manifest, open's verify pass and the hash it computes: no tensor is built.
    with checkpoint.open(args.input) as ckpt:
        stored = ckpt.num_parameters()
        _info(f"{len(ckpt.specs())} tensors, {stored:,} stored parameters")
        return {
            "command": "inspect", "manifest": ckpt.manifest,
            "stored_parameters": stored,
            "counted_parameters": accounting.count_params(ckpt.config).to_dict(),
            "checkpoint_hash": checkpoint.checkpoint_hash(ckpt),
        }


_HANDLERS = {
    "init": _cmd_init,
    "upcycle": _cmd_upcycle,
    "train": _cmd_train,
    "flops": _cmd_flops,
    "params": _cmd_params,
    "analyze-routing": _cmd_analyze_routing,
    "analyze-overlap": _cmd_analyze_overlap,
    "catch-up": _cmd_catch_up,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        thread_cap()  # a bad MOEUP_THREADS fails here, before any work
        result = _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (ValidationError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (checkpoint.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
