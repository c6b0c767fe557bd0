"""Command-line front end.

Subcommands: generate | select | loss | gradcheck | sweep.  Each reads its
inputs, builds its config, runs, then writes its outputs and echoes them to
stdout unless --quiet.  Every output file is written by one writer,
`kernels.write_text`, over the file's old bytes.  A config is its
dataclass's defaults, overridden by the --config file, overridden by every
flag whose dest names one of its fields; no handler lists the fields.  All
file outputs are deterministic for a fixed seed: floats are written with
repr(), JSON keys are sorted, and CSVs carry the resolved configuration as a
single leading comment line.

Exit codes: 0 success, 2 invalid configuration or inputs, 3 file-system
errors, 4 pipeline stage failure, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .discovery import (
    DiscoveryConfig,
    StageError,
    _run_each,
    coverage_metrics,
    known_prototypes,
    run_discovery,
)
from .kernels import TRANSFORMS, EmbeddingSet, IndexSet, _csv_text
from .kernels import read_embeddings_csv, write_embeddings_csv, write_text
from .losses import LossConfig, finite_difference_check, loss_total
from .objectives import Family
from .scenes import SceneSpec, gen_scene, gen_separation_cases

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAGE = 4
EXIT_CHECK = 5

SWEEP_GRIDS = {
    "k": [0, 5, 10, 30, 100],
    "tau_e": [0.05, 0.2, 0.5],
    "tau_b": [0.1, 0.3, 0.5],
    "eta": [0.5, 1.0, 1.5],
}


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _config_file(args) -> dict:
    return _load_json(args.config) if args.config else {}


def _config(args, cls, file_cfg: dict | None = None, **fixed):
    """cls from defaults < the --config file (or file_cfg) < every flag whose
    dest is a field of cls < fixed, with key validation.  A flag or fixed
    value of None leaves the field unset.  cls names the key of a value it
    refuses; a TypeError, for a value of the wrong type, exits 2 too."""
    if file_cfg is None:
        file_cfg = _config_file(args)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(file_cfg) - names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: val for key, val in vars(args).items() if key in names}
    merged = dict(file_cfg)
    merged.update({k: v for k, v in {**flags, **fixed}.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ValueError(str(e)) from None


def _emit(args, path: str | None, text: str) -> None:
    """Write text to path when there is one, then echo it unless --quiet."""
    if path:
        write_text(path, text)
    if not args.quiet:
        print(text.rstrip("\n"))


def _config_dict(cfg) -> dict:
    out = dataclasses.asdict(cfg)
    for key, val in out.items():
        if isinstance(val, Family):
            out[key] = val.value
    return out


def _parse_sets(path: str, n: int):
    """The known classes, U and T of a --sets file: K a list of lists of
    integers (or K1..Kn lists of integers), U and the optional T (default:
    every item) lists of integers.  Anything else raises ValueError naming
    the file and the key."""
    spec = _load_json(path)

    def items(key, value) -> IndexSet:
        if not isinstance(value, list) or any(type(i) is not int for i in value):
            raise ValueError(f"{path}: {key} must be a list of integers")
        return IndexSet.of(value)

    if "K" in spec:
        if not isinstance(spec["K"], list):
            raise ValueError(f"{path}: K must be a list of lists of integers")
        classes = [items(f"K[{j}]", c) for j, c in enumerate(spec["K"])]
    else:
        keyed = sorted(
            (int(k[1:]), k) for k in spec if k.startswith("K") and k[1:].isdigit()
        )
        classes = [items(k, spec[k]) for _, k in keyed]
    if not classes:
        raise ValueError("sets file defines no known classes (K or K1..Kn)")
    u = items("U", spec.get("U", []))
    t = items("T", spec["T"]) if "T" in spec else IndexSet.of(range(n))
    return classes, u, t


def _sets_from_labels(embeddings: EmbeddingSet):
    labels = embeddings.labels
    class_ids = sorted(int(c) for c in np.unique(labels) if c >= 1)
    if not class_ids:
        raise ValueError("scene has no labeled known items")
    classes = [
        IndexSet.of(int(i) for i in np.flatnonzero(labels == c)) for c in class_ids
    ]
    u = IndexSet.of(int(i) for i in np.flatnonzero(labels == 0))
    t = IndexSet.of(range(embeddings.n))
    return classes, u, t


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> int:
    spec = _config(args, SceneSpec)
    scene = gen_scene(spec)
    comment = json.dumps(_config_dict(spec), sort_keys=True)
    write_embeddings_csv(scene, args.out, header_comment=comment)
    _emit(
        args,
        None,
        json.dumps(
            {
                "out": str(args.out),
                "n_total": spec.n_total,
                "n_known": spec.n_known,
                "n_unknown": spec.n_unknown,
                "n_background": spec.n_background,
                "n_classes": spec.n_classes,
                "d": spec.d,
                "seed": spec.seed,
            },
            sort_keys=True,
        ),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def _prototypes(args, scene: EmbeddingSet) -> EmbeddingSet:
    """The --prototypes file, of the scene's dimension, or else the scene's knowns."""
    if not args.prototypes:
        return known_prototypes(scene)
    protos = read_embeddings_csv(args.prototypes)
    if protos.d != scene.d:
        raise ValueError(f"{args.prototypes}: {protos.d} features, the scene has {scene.d}")
    return protos


def _cmd_select(args) -> int:
    background = False if args.include_background else None
    config = _config(args, DiscoveryConfig, exclude_background_from_pool=background)
    scene = read_embeddings_csv(args.input)
    result = run_discovery(scene, _prototypes(args, scene), config)
    metrics = (
        coverage_metrics(result, scene.labels) if scene.labels is not None else {}
    )
    payload = json.dumps(result.to_json_dict(metrics), sort_keys=True, indent=2)
    _emit(args, args.out, payload + "\n")
    roles_out = args.roles_out or str(Path(args.out).with_suffix("")) + ".roles.csv"
    _write_roles_csv(roles_out, scene, result, config)
    return EXIT_OK


def _write_roles_csv(path, scene, result, config) -> None:
    kept = sorted(result.kept)
    # Precedence known > background > unknown > rest: later updates win.
    role = dict.fromkeys(result.unknown, "unknown")
    role.update(dict.fromkeys(result.background, "background"))
    role.update(dict.fromkeys(result.known, "known"))
    if scene.labels is None:
        truth = [""] * len(kept)
    else:
        truth = list(map(str, scene.labels[kept].tolist()))
    text = _csv_text(
        ["index"] + [f"f{j}" for j in range(scene.d)] + ["truth", "role"],
        list(map(str, kept)),
        scene.data[kept],
        truth,
        [role.get(i, "rest") for i in kept],
        comment=json.dumps(_config_dict(config), sort_keys=True),
    )
    write_text(path, text)


# ---------------------------------------------------------------------------
# loss / gradcheck


def _loss_inputs(args, file_cfg: dict):
    """The scene, its --sets file and the loss config, built in that order."""
    scene = read_embeddings_csv(args.input)
    classes, u, t = _parse_sets(args.sets, scene.n)
    return scene, classes, u, t, _config(args, LossConfig, file_cfg)


def _cmd_loss(args) -> int:
    file_cfg = _config_file(args)
    if args.cases is not None:
        return _loss_cases(args, file_cfg)
    if args.family == "all":
        raise ValueError("--family all is only valid with --cases")
    if not args.input:
        raise ValueError("an input CSV is required without --cases")
    if not args.sets:
        raise ValueError("--sets is required without --cases")
    scene, classes, u, t, config = _loss_inputs(args, file_cfg)
    report = loss_total(scene, classes, u, t, config)
    payload = json.dumps(
        {
            "l_self": report.l_self,
            "l_cross": report.l_cross,
            "l_total": report.l_total,
            "grad": report.grad.tolist(),
        },
        sort_keys=True,
    )
    _emit(args, args.out, payload + "\n")
    return EXIT_OK


def _loss_cases(args, file_cfg: dict) -> int:
    families = (
        [f.value for f in Family] if args.family == "all" else [args.family]
    )
    cases = gen_separation_cases(seed=args.seed or 0, n_cases=args.cases)
    idx, angles, fams, losses = [], [], [], []
    header_cfg = None
    for fam in families:
        config = _config(args, LossConfig, file_cfg, family=fam)
        if header_cfg is None:
            header_cfg = _config_dict(config)
            # The flag as given, else the file's value, else the default's alias.
            header_cfg["family"] = args.family or file_cfg.get("family", "fl")
        for i, case in enumerate(cases):
            report = loss_total(
                case.embeddings, [case.known], case.unknown, case.all_items, config
            )
            idx.append(str(i))
            angles.append(math.degrees(case.angle))
            fams.append(config.family.value)
            losses.append([report.l_self, report.l_cross, report.l_total])
    body = _csv_text(
        ["case", "angle_deg", "family", "l_self", "l_cross", "l_total"],
        idx,
        np.array(angles),
        fams,
        np.array(losses),
        comment=json.dumps(header_cfg, sort_keys=True),
    )
    _emit(args, args.out, body)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")
    scene, classes, u, t, config = _loss_inputs(args, _config_file(args))
    result = finite_difference_check(
        scene,
        classes,
        u,
        t,
        config,
        h=args.h,
        seed=args.seed or 0,
        perturb=args.perturb_grad,
    )
    report, fault = dict(result), None
    if result["checked"] == 0:
        # No error was measured: write null, not the NaN strict JSON rejects.
        report.update(max_abs_err=None, max_rel_err=None)
        n = result["tie_adjacent"]
        fault = f"gradient audit checked nothing: {n} of {n} probed coordinates were tie-adjacent"
    elif not result["max_rel_err"] < args.tol:
        fault = f"max_rel_err {result['max_rel_err']!r} is not below --tol {args.tol!r}"
    _emit(args, args.out, json.dumps(report, sort_keys=True) + "\n")
    if fault:
        print(f"error: {fault}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    sweep = _load_json(args.sweep)
    parameter = sweep.get("parameter")
    if parameter not in ("k", "tau_e", "tau_b", "eta", "lam", "nu"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    values = sweep.get("values", SWEEP_GRIDS.get(parameter))
    if "values" in sweep and not (isinstance(values, list) and values):
        raise ValueError(f"{args.sweep}: values must be a non-empty list")
    if values is None:
        raise ValueError(f"no default grid for {parameter!r}; give explicit values")
    base = sweep.get("config", {})
    if not isinstance(base, dict):
        raise ValueError(f"{args.sweep}: config must be a JSON object")
    base = {**_config_file(args), **base}
    scene = read_embeddings_csv(args.input)
    if scene.labels is None:
        raise ValueError("sweep needs a labeled scene")
    pipeline = parameter in ("k", "tau_e", "tau_b")
    # Every value of the file's config, the swept key's too, is checked once
    # before any run, so the comment echoes none that a run would refuse.
    _config(args, DiscoveryConfig if pipeline else LossConfig, base)
    if pipeline:
        header, columns = _sweep_discovery(args, scene, parameter, values, base)
    else:
        header, columns = _sweep_loss(args, scene, parameter, values, base)
    comment = json.dumps(
        {"parameter": parameter, "values": values, "config": base}, sort_keys=True
    )
    _emit(args, args.out, _csv_text(header, *columns, comment=comment))
    return EXIT_OK


def _sweep_discovery(args, scene, parameter, values, base):
    protos = _prototypes(args, scene)
    names = [
        "purity",
        "coverage",
        "unknown_prevalence_in_pool",
        "mean_sim_unknown_to_known",
        "mean_sim_unknown_to_background",
    ]
    counts, metrics = [], []
    configs = (_config(args, DiscoveryConfig, base, **{parameter: v}) for v in values)
    for result in _run_each(scene, protos, configs):
        m = coverage_metrics(result, scene.labels)
        counts.append(
            f"{len(result.kept)},{len(result.background)},{len(result.unknown)}"
        )
        metrics.append([m[name] for name in names])
    header = ["value", "n_kept", "n_background", "n_unknown"] + names
    if parameter == "k":
        value_col = [str(int(v)) for v in values]
    else:
        value_col = np.array(values, dtype=np.float64)
    return header, [value_col, counts, np.array(metrics)]


def _sweep_loss(args, scene, parameter, values, base):
    classes, u, t = _sets_from_labels(scene)
    if len(u) == 0:
        raise ValueError("scene has no unlabeled unknowns for the loss sweep")
    fams, losses = [], []
    for v in values:
        cfg = _config(args, LossConfig, base, **{parameter: v})
        report = loss_total(scene, classes, u, t, cfg)
        fams.append(cfg.family.value)
        losses.append([report.l_self, report.l_cross, report.l_total])
    header = ["value", "family", "l_self", "l_cross", "l_total"]
    return header, [np.array(values, dtype=np.float64), fams, np.array(losses)]


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (u64)")
    p.add_argument("--config", default=None, help="JSON file with config overrides")
    p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")


def _add_loss_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--mode", default=None, choices=["owod", "iod"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submine",
        description="Mine unknown items from embedding scenes and audit the losses that train on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic scene CSV")
    _add_common(p)
    p.add_argument("--out", default="scene.csv", help="output CSV path")

    p = sub.add_parser("select", help="run the mining pipeline on a scene CSV")
    _add_common(p)
    p.add_argument("input", help="scene CSV (needs an objectness column)")
    p.add_argument("--prototypes", default=None, help="prototype CSV (default: labeled known rows)")
    p.add_argument("--family", default=None, choices=["fl", "gc", "logdet", "flcg", "gccg", "logdetcg"])
    p.add_argument("--tau-e", dest="tau_e", type=float, default=None)
    p.add_argument("--tau-b", dest="tau_b", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--transform", default=None, choices=TRANSFORMS)
    p.add_argument("--include-background", action="store_true",
                   help="keep conditioned background items in the unknown pool")
    p.add_argument("--out", default="discovery.json", help="result JSON path")
    p.add_argument("--roles-out", default=None, help="flat roles CSV (default: <out>.roles.csv)")

    p = sub.add_parser("loss", help="evaluate the loss on explicit sets or separation cases")
    _add_common(p)
    p.add_argument("input", nargs="?", default=None, help="scene CSV")
    p.add_argument("--sets", default=None, help="JSON with K (or K1..Kn), U, optional T")
    p.add_argument("--cases", nargs="?", const=3, type=int, default=None,
                   help="evaluate N built-in separation cases instead of a scene")
    p.add_argument("--family", default=None, choices=["fl", "gc", "logdet", "all"])
    _add_loss_knobs(p)
    p.add_argument("--out", default=None, help="output path (JSON, or CSV with --cases)")

    p = sub.add_parser("gradcheck", help="finite-difference audit of the analytic gradient")
    _add_common(p)
    p.add_argument("input", help="scene CSV")
    p.add_argument("--sets", required=True, help="JSON with K (or K1..Kn), U, optional T")
    p.add_argument("--family", default=None, choices=["fl", "gc", "logdet"])
    _add_loss_knobs(p)
    p.add_argument("--h", type=float, default=1e-4, help="central-difference step")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative error to pass")
    p.add_argument("--perturb-grad", dest="perturb_grad", type=float, default=0.0,
                   help="corrupt one gradient entry by this amount (negative control)")
    p.add_argument("--out", default=None, help="report JSON path")

    p = sub.add_parser("sweep", help="rerun the pipeline or loss over a parameter grid")
    _add_common(p)
    p.add_argument("input", help="labeled scene CSV")
    p.add_argument("--sweep", required=True,
                   help='JSON {"parameter": ..., "values": [...], "config": {...}}')
    p.add_argument("--prototypes", default=None)
    p.add_argument("--out", default="sweep.csv", help="output CSV path")

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "select": _cmd_select,
    "loss": _cmd_loss,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one serves every call; the
    # reference cycles building it leaves are freed before any command runs.
    parser = build_parser()
    gc.collect()
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        # numpy's warning of an overflow or NaN exits 2 rather than writing NaN or Infinity.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return _HANDLERS[args.command](args)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeWarning) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
