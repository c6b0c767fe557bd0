"""Command-line front end.

Subcommands: generate | select | loss | gradcheck | sweep.  Flag values
override --config file entries, which override built-in defaults.  All file
outputs are deterministic for a fixed seed: floats are written with repr(),
JSON keys are sorted, and CSVs carry the resolved configuration as a single
leading comment line.

Exit codes: 0 success, 2 invalid configuration or inputs, 3 file-system
errors, 4 pipeline stage failure, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .discovery import (
    DiscoveryConfig,
    StageError,
    coverage_metrics,
    known_prototypes,
    run_discovery,
)
from .kernels import EmbeddingSet, IndexSet, read_embeddings_csv, write_embeddings_csv
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


def _fmt(x) -> str:
    return repr(float(x))


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _merge_config(cls, file_cfg: dict, cli_overrides: dict):
    """defaults < config file < explicit CLI flags, with key validation."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(file_cfg) - names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(file_cfg)
    merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    try:
        return cls(**merged)
    except TypeError as e:
        raise ValueError(str(e)) from None


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _config_dict(cfg) -> dict:
    out = dataclasses.asdict(cfg)
    for key, val in out.items():
        if isinstance(val, Family):
            out[key] = val.value
    return out


def _parse_sets(spec: dict, n: int):
    if "K" in spec:
        classes = [IndexSet.of(c) for c in spec["K"]]
    else:
        keyed = sorted(
            (int(k[1:]), k) for k in spec if k.startswith("K") and k[1:].isdigit()
        )
        classes = [IndexSet.of(spec[k]) for _, k in keyed]
    if not classes:
        raise ValueError("sets file defines no known classes (K or K1..Kn)")
    u = IndexSet.of(spec.get("U", ()))
    t = IndexSet.of(spec["T"]) if "T" in spec else IndexSet.of(range(n))
    return classes, u, t


def _sets_from_labels(embeddings: EmbeddingSet):
    if embeddings.labels is None:
        raise ValueError("scene has no labels; pass --sets")
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
    file_cfg = _load_json(args.config) if args.config else {}
    spec = _merge_config(SceneSpec, file_cfg, {"seed": args.seed})
    scene = gen_scene(spec)
    comment = json.dumps(_config_dict(spec), sort_keys=True)
    write_embeddings_csv(scene, args.out, header_comment=comment)
    _say(
        args,
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


def _cmd_select(args) -> int:
    file_cfg = _load_json(args.config) if args.config else {}
    cli = {
        "tau_e": args.tau_e,
        "tau_b": args.tau_b,
        "k": args.k,
        "family": args.family,
        "lam": args.lam,
        "nu": args.nu,
        "epsilon": args.epsilon,
        "transform": args.transform,
    }
    if args.include_background:
        cli["exclude_background_from_pool"] = False
    config = _merge_config(DiscoveryConfig, file_cfg, cli)
    scene = read_embeddings_csv(args.input)
    if args.prototypes:
        protos = read_embeddings_csv(args.prototypes)
    else:
        protos = known_prototypes(scene)
    result = run_discovery(scene, protos, config)
    metrics = (
        coverage_metrics(result, scene.labels) if scene.labels is not None else {}
    )
    payload = json.dumps(result.to_json_dict(metrics), sort_keys=True, indent=2)
    _write_text(args.out, payload + "\n")
    roles_out = args.roles_out or str(Path(args.out).with_suffix("")) + ".roles.csv"
    _write_roles_csv(roles_out, scene, result, config)
    _say(args, payload)
    return EXIT_OK


def _write_roles_csv(path, scene, result, config) -> None:
    comment = json.dumps(_config_dict(config), sort_keys=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["index"] + [f"f{j}" for j in range(scene.d)] + ["truth", "role"]
        )
        for i in sorted(result.kept):
            if i in result.known:
                role = "known"
            elif i in result.background:
                role = "background"
            elif i in result.unknown:
                role = "unknown"
            else:
                role = "rest"
            truth = str(int(scene.labels[i])) if scene.labels is not None else ""
            writer.writerow(
                [str(i)] + [_fmt(v) for v in scene.data[i]] + [truth, role]
            )


# ---------------------------------------------------------------------------
# loss / gradcheck


def _loss_config(args, file_cfg: dict, family) -> LossConfig:
    cli = {
        "family": family,
        "eta": args.eta,
        "lam": args.lam,
        "nu": args.nu,
        "mode": args.mode,
    }
    return _merge_config(LossConfig, file_cfg, cli)


def _cmd_loss(args) -> int:
    file_cfg = _load_json(args.config) if args.config else {}
    if args.cases is not None:
        return _loss_cases(args, file_cfg)
    if args.family == "all":
        raise ValueError("--family all is only valid with --cases")
    if not args.input:
        raise ValueError("an input CSV is required without --cases")
    if not args.sets:
        raise ValueError("--sets is required without --cases")
    scene = read_embeddings_csv(args.input)
    classes, u, t = _parse_sets(_load_json(args.sets), scene.n)
    config = _loss_config(args, file_cfg, args.family)
    report = loss_total(scene, classes, u, t, config)
    payload = json.dumps(
        {
            "l_self": report.l_self,
            "l_cross": report.l_cross,
            "l_total": report.l_total,
            "grad": [[float(v) for v in row] for row in report.grad],
        },
        sort_keys=True,
    )
    if args.out:
        _write_text(args.out, payload + "\n")
    _say(args, payload)
    return EXIT_OK


def _loss_cases(args, file_cfg: dict) -> int:
    families = (
        [f.value for f in Family] if args.family == "all" else [args.family]
    )
    cases = gen_separation_cases(seed=args.seed or 0, n_cases=args.cases)
    lines = []
    header_cfg = None
    for fam in families:
        config = _loss_config(args, file_cfg, fam)
        if header_cfg is None:
            header_cfg = _config_dict(config)
            header_cfg["family"] = "all" if args.family == "all" else fam
        for idx, case in enumerate(cases):
            report = loss_total(
                case.embeddings, [case.known], case.unknown, case.all_items, config
            )
            lines.append(
                [
                    str(idx),
                    _fmt(math.degrees(case.angle)),
                    config.family.value,
                    _fmt(report.l_self),
                    _fmt(report.l_cross),
                    _fmt(report.l_total),
                ]
            )
    text = [f"# {json.dumps(header_cfg, sort_keys=True)}"]
    text.append("case,angle_deg,family,l_self,l_cross,l_total")
    text.extend(",".join(row) for row in lines)
    body = "\n".join(text) + "\n"
    if args.out:
        _write_text(args.out, body)
    _say(args, body.rstrip("\n"))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    file_cfg = _load_json(args.config) if args.config else {}
    if args.family == "all":
        raise ValueError("gradcheck runs one family at a time")
    scene = read_embeddings_csv(args.input)
    classes, u, t = _parse_sets(_load_json(args.sets), scene.n)
    config = _loss_config(args, file_cfg, args.family)
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
    report = dict(result)
    if result["checked"] == 0:
        # No error was measured: write null, not the NaN strict JSON rejects.
        report.update(max_abs_err=None, max_rel_err=None)
    payload = json.dumps(report, sort_keys=True)
    if args.out:
        _write_text(args.out, payload + "\n")
    _say(args, payload)
    if result["checked"] == 0:
        probed = result["checked"] + result["tie_adjacent"]
        print(
            f"error: gradient audit checked nothing: {result['tie_adjacent']} of "
            f"{probed} probed coordinates were tie-adjacent",
            file=sys.stderr,
        )
        return EXIT_CHECK
    return EXIT_OK if result["max_rel_err"] < args.tol else EXIT_CHECK


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    sweep = _load_json(args.sweep)
    parameter = sweep.get("parameter")
    if parameter not in ("k", "tau_e", "tau_b", "eta", "lam", "nu"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    values = sweep.get("values", SWEEP_GRIDS.get(parameter))
    if not values:
        raise ValueError(f"no default grid for {parameter!r}; give explicit values")
    base = sweep.get("config", {})
    if args.config:
        merged = _load_json(args.config)
        merged.update(base)
        base = merged
    scene = read_embeddings_csv(args.input)
    if parameter in ("k", "tau_e", "tau_b"):
        rows, header = _sweep_discovery(args, scene, parameter, values, base)
    else:
        rows, header = _sweep_loss(scene, parameter, values, base)
    comment = json.dumps(
        {"parameter": parameter, "values": values, "config": base}, sort_keys=True
    )
    text = [f"# {comment}", ",".join(header)]
    text.extend(",".join(row) for row in rows)
    body = "\n".join(text) + "\n"
    _write_text(args.out, body)
    _say(args, body.rstrip("\n"))
    return EXIT_OK


def _sweep_discovery(args, scene, parameter, values, base):
    if scene.labels is None:
        raise ValueError("sweep needs a labeled scene")
    protos = (
        read_embeddings_csv(args.prototypes)
        if args.prototypes
        else known_prototypes(scene)
    )
    header = [
        "value",
        "n_kept",
        "n_background",
        "n_unknown",
        "purity",
        "coverage",
        "unknown_prevalence_in_pool",
        "mean_sim_unknown_to_known",
        "mean_sim_unknown_to_background",
    ]
    rows = []
    for v in values:
        cfg = _merge_config(DiscoveryConfig, base, {parameter: v})
        result = run_discovery(scene, protos, cfg)
        m = coverage_metrics(result, scene.labels)
        rows.append(
            [
                _fmt(v) if parameter != "k" else str(int(v)),
                str(len(result.kept)),
                str(len(result.background)),
                str(len(result.unknown)),
                _fmt(m["purity"]),
                _fmt(m["coverage"]),
                _fmt(m["unknown_prevalence_in_pool"]),
                _fmt(m["mean_sim_unknown_to_known"]),
                _fmt(m["mean_sim_unknown_to_background"]),
            ]
        )
    return rows, header


def _sweep_loss(scene, parameter, values, base):
    classes, u, t = _sets_from_labels(scene)
    if len(u) == 0:
        raise ValueError("scene has no unlabeled unknowns for the loss sweep")
    header = ["value", "family", "l_self", "l_cross", "l_total"]
    rows = []
    for v in values:
        cfg = _merge_config(LossConfig, base, {parameter: v})
        report = loss_total(scene, classes, u, t, cfg)
        rows.append(
            [
                _fmt(v),
                cfg.family.value,
                _fmt(report.l_self),
                _fmt(report.l_cross),
                _fmt(report.l_total),
            ]
        )
    return rows, header


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (u64)")
    p.add_argument("--config", default=None, help="JSON file with config overrides")
    p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")


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
    p.add_argument("--transform", default=None, choices=["raw-cosine", "clip-at-zero", "affine-shift"])
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
    p.add_argument("--family", default="fl", choices=["fl", "gc", "logdet", "all"])
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--mode", default=None, choices=["owod", "iod"])
    p.add_argument("--out", default=None, help="output path (JSON, or CSV with --cases)")

    p = sub.add_parser("gradcheck", help="finite-difference audit of the analytic gradient")
    _add_common(p)
    p.add_argument("input", help="scene CSV")
    p.add_argument("--sets", required=True, help="JSON with K (or K1..Kn), U, optional T")
    p.add_argument("--family", default="fl", choices=["fl", "gc", "logdet"])
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--mode", default=None, choices=["owod", "iod"])
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
