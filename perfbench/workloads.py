"""Workload inputs, the ops each workload times, and the checks on their outputs.

Every workload runs one op per family (fl, gc, logdet), so each reports the
same end-to-end metrics: for each family, the median time of its op relative
to the workload's reference work (see the end of this file).

  mine-greedy  ``submine select`` on a scene where greedy selection dominates
  mine-kernel  ``submine sweep`` over tau_b on a scene where the n x n kernel
               dominates: few items pass the objectness filter
  loss-step    one ``loss_total`` call (value and gradient) on a training batch
  loss-audit   ``submine gradcheck``: an exhaustive finite-difference audit

Ops go through the public entry points only: ``submine.cli.main`` for CLI
commands and ``submine.losses.loss_total`` for the training step.  Inputs
are generated from the seed and written to files; the program never sees the
seed.  Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import submine.cli
import submine.kernels
import submine.losses
import submine.scenes
from submine import (
    DiscoveryConfig,
    EmbeddingSet,
    Family,
    IndexSet,
    LossConfig,
    SceneSpec,
    SubmodularObjective,
    conditional_gain,
    cosine_kernel,
    evaluate,
    loss_cross,
    loss_self,
    read_embeddings_csv,
)

FAMILIES = ("fl", "gc", "logdet")

# Set-function identities hold to this absolute tolerance in the repo's tests.
GAIN_TOL = 1e-9
GRADCHECK_TOL = 1e-5
SWEEP_TAU_B = (0.1, 0.3, 0.5)
# Few items pass this threshold, so the sweep's time goes to the n x n kernel.
SWEEP_TAU_E = 0.7

DEFAULT_SIZES = {
    # CLI walkthrough proportions: 2% known, 12% unknown, the rest background.
    "mine-greedy": {"n": 600},
    "mine-kernel": {"n": 2000},
    # Batches keep per_class + unknown below d: log-det's cross term needs the
    # class and unknown embeddings linearly independent.
    "loss-step": {"n": 512, "d": 128, "classes": 8, "per_class": 16, "unknown": 64},
    # n * d <= 5000, so gradcheck probes every coordinate.
    "loss-audit": {"n": 40, "d": 12, "classes": 2, "per_class": 4, "unknown": 4},
}

@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``check`` and ``digest`` are not.

    ``check(result, notes)`` returns a list of failures and may put quality
    figures in ``notes``.  ``digest(result)`` is a fingerprint of the op's
    output, equal across repeats when outputs are byte-identical.
    """

    kind: str
    family: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]
    digest: Callable[[object], str]
    outputs: tuple[Path, ...] = ()
    notes: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.kind} {self.family}"

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs if p.exists())


def _files_digest(paths) -> Callable[[object], str]:
    def digest(rc) -> str:
        h = hashlib.sha256(str(rc).encode())
        for p in paths:
            h.update(p.read_bytes() if p.exists() else b"<missing>")
        return h.hexdigest()

    return digest


def _cli(argv: list[str]) -> Callable[[], int]:
    # Looked up at call time so a tracer's wrappers are seen.
    return lambda: submine.cli.main(argv)


# ---------------------------------------------------------------------------
# inputs


def _mining_spec(seed: int, n: int) -> SceneSpec:
    return SceneSpec(seed=seed, n_total=n, n_known=n // 50, n_unknown=6 * n // 50)


def _stratified_objectness(scene: EmbeddingSet, spec: SceneSpec, seed: int) -> EmbeddingSet:
    """Same bands as gen_scene, but evenly spaced scores in a seeded order.

    gen_scene draws objectness uniformly, so the number of items that pass
    the filter, and with it every greedy budget and the work of each op,
    would change with the seed.  Evenly spaced scores keep the work fixed;
    positions and the order of scores still come from the seed.
    """
    rng = np.random.default_rng([seed, 1])
    labels = scene.labels
    obj = np.empty(scene.n)
    for mask, (lo, hi) in (
        (labels >= 1, spec.objectness_known),
        (labels == 0, spec.objectness_unknown),
        (labels < 0, spec.objectness_background),
    ):
        idx = np.flatnonzero(mask)
        obj[idx] = lo + (hi - lo) * (rng.permutation(len(idx)) + 0.5) / len(idx)
    return EmbeddingSet(scene.data, labels=labels, objectness=obj)


def _write_scene(workdir: Path, scene: EmbeddingSet) -> None:
    submine.kernels.write_embeddings_csv(scene, workdir / "scene.csv")


def _setup_mining(workdir: Path, seed: int, sizes: dict) -> None:
    spec = _mining_spec(seed, sizes["n"])
    scene = _stratified_objectness(submine.scenes.gen_scene(spec), spec, seed)
    _write_scene(workdir, scene)


def _setup_sweep(workdir: Path, seed: int, sizes: dict) -> None:
    _setup_mining(workdir, seed, sizes)
    for fam in FAMILIES:
        spec = {
            "parameter": "tau_b",
            "values": list(SWEEP_TAU_B),
            "config": {"tau_e": SWEEP_TAU_E, "family": fam},
        }
        (workdir / f"sweep-{fam}.json").write_text(json.dumps(spec, sort_keys=True))


def _setup_batch(workdir: Path, seed: int, sizes: dict) -> None:
    """Training batch: `classes` clusters of `per_class`, one unknown cluster, clutter."""
    d, classes = sizes["d"], sizes["classes"]
    rng = np.random.default_rng([seed, 2])
    means = rng.normal(scale=3.0, size=(classes + 1, d))
    spec = SceneSpec(
        seed=seed,
        d=d,
        n_total=sizes["n"],
        n_known=classes * sizes["per_class"],
        n_unknown=sizes["unknown"],
        cluster_means=tuple(tuple(m) for m in means),
        background_mean=(0.0,) * d,
    )
    scene = submine.scenes.gen_scene(spec)
    _write_scene(workdir, scene)
    labels = scene.labels
    sets = {
        "K": [np.flatnonzero(labels == c).tolist() for c in range(1, classes + 1)],
        "U": np.flatnonzero(labels == 0).tolist(),
    }
    (workdir / "sets.json").write_text(json.dumps(sets, sort_keys=True))


def _load_sets(workdir: Path, n: int):
    spec = json.loads((workdir / "sets.json").read_text())
    return [IndexSet.of(k) for k in spec["K"]], IndexSet.of(spec["U"]), IndexSet.of(range(n))


# ---------------------------------------------------------------------------
# select


def check_select(scene: EmbeddingSet, config: DiscoveryConfig, out: Path, roles: Path,
                 rc, notes: dict) -> list[str]:
    """Set sizes, disjointness, and per-pick gains recomputed through the public API."""
    if rc != 0:
        return [f"select exited {rc}"]
    res = json.loads(out.read_text())
    kept, known = IndexSet.of(res["kept"]), IndexSet.of(res["known"])
    bg, un = IndexSet.of(res["background"]), IndexSet.of(res["unknown"])
    errs = []
    want_kept = np.flatnonzero(scene.objectness >= config.tau_e).tolist()
    if list(kept) != want_kept:
        errs.append("kept differs from the objectness filter")
    if len(known) != int((scene.labels >= 1).sum()):
        errs.append("one known item per prototype expected")
    pool = kept.minus(known)
    if len(bg) != math.floor(config.tau_b * len(pool)):
        errs.append(f"|B|={len(bg)} != floor(tau_b*|pool|)")
    pool_u = pool.minus(bg)
    if len(un) != min(config.k, len(pool_u)):
        errs.append(f"|U|={len(un)} != min(k, |pool_u|)")
    if known.intersects(bg) or known.intersects(un) or bg.intersects(un):
        errs.append("known, background and unknown sets overlap")
    if any(i not in kept for s in (known, bg, un) for i in s):
        errs.append("a selected item was not kept")
    if errs:
        return errs
    kernel = cosine_kernel(scene, transform=config.resolved_transform, epsilon=config.epsilon)
    objective = SubmodularObjective(
        config.family, kernel, kept, lam=config.lam, nu=config.nu, epsilon=config.epsilon
    )
    for stage, picks, cond in (("background", bg, known), ("unknown", un, known.union(bg))):
        gains = res["gains"][stage]
        if len(gains) != len(picks):
            errs.append(f"{stage}: {len(gains)} gains for {len(picks)} picks")
            continue
        want = conditional_gain(objective, picks, cond)
        if abs(sum(gains) - want) > GAIN_TOL:
            errs.append(f"{stage}: summed gains {sum(gains)!r} != conditional gain {want!r}")
        acc, prev = cond, evaluate(objective, cond)
        for v, g in zip(picks, gains):
            acc = acc.union(IndexSet((v,)))
            cur = evaluate(objective, acc)
            if abs((cur - prev) - g) > GAIN_TOL:
                errs.append(f"{stage}: gain of pick {v} is {g!r}, f grew by {cur - prev!r}")
                break
            prev = cur
    with roles.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    counts = {role: sum(1 for r in rows if r[-1] == role) for role in ("known", "background", "unknown")}
    if len(rows) != len(kept) or counts != {"known": len(known), "background": len(bg), "unknown": len(un)}:
        errs.append("roles CSV disagrees with the result JSON")
    notes["purity"] = res["metrics"]["purity"]
    return errs


def _select_ops(workdir: Path, sizes: dict, fault: str | None) -> list[Op]:
    scene_csv = workdir / "scene.csv"
    scene = read_embeddings_csv(scene_csv)
    ops = []
    for fam in FAMILIES:
        out, roles = workdir / f"select-{fam}.json", workdir / f"select-{fam}.roles.csv"
        argv = ["select", str(scene_csv), "--family", fam, "--quiet",
                "--out", str(out), "--roles-out", str(roles)]
        config = DiscoveryConfig(family=fam)
        check = partial(check_select, scene, config, out, roles)
        ops.append(Op("select", fam, _cli(argv), check, _files_digest((out, roles)), (out, roles)))
    return ops


def inject_fault(op: Op, fault: str | None) -> None:
    """Negative controls that corrupt a select result file after the op wrote it."""
    if op.kind != "select" or fault not in ("corrupt-gain", "swap-pick"):
        return
    out = op.outputs[0]
    res = json.loads(out.read_text())
    if fault == "corrupt-gain":
        res["gains"]["background"][0] += 1e-6
    else:
        taken = set(res["known"]) | set(res["background"]) | set(res["unknown"])
        res["background"][0] = next(i for i in res["kept"] if i not in taken)
    out.write_text(json.dumps(res, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# sweep


def check_sweep(scene: EmbeddingSet, out: Path, rc, notes: dict) -> list[str]:
    """Each row's counts follow from the filter threshold and the budgets."""
    if rc != 0:
        return [f"sweep exited {rc}"]
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(SWEEP_TAU_B):
        return [f"sweep wrote {len(rows)} rows, expected {len(SWEEP_TAU_B)}"]
    n_kept = int((scene.objectness >= SWEEP_TAU_E).sum())
    pool = n_kept - int((scene.labels >= 1).sum())
    k = DiscoveryConfig().k
    errs, purities = [], []
    for tau_b, row in zip(SWEEP_TAU_B, rows):
        value, kept, n_bg, n_un, purity, coverage = row[:6]
        n_bg_want = math.floor(tau_b * pool)
        want = (tau_b, n_kept, n_bg_want, min(k, pool - n_bg_want))
        if (float(value), int(kept), int(n_bg), int(n_un)) != want:
            errs.append(f"tau_b={tau_b}: row {row[:4]} != {want}")
        if not (0.0 <= float(purity) <= 1.0 and 0.0 <= float(coverage) <= 1.0):
            errs.append(f"tau_b={tau_b}: purity or coverage outside [0, 1]")
        purities.append(float(purity))
    notes["purity"] = float(np.mean(purities))
    return errs


def _sweep_ops(workdir: Path, sizes: dict, fault: str | None) -> list[Op]:
    scene_csv = workdir / "scene.csv"
    scene = read_embeddings_csv(scene_csv)
    ops = []
    for fam in FAMILIES:
        out = workdir / f"sweep-{fam}.csv"
        argv = ["sweep", str(scene_csv), "--sweep", str(workdir / f"sweep-{fam}.json"),
                "--quiet", "--out", str(out)]
        check = partial(check_sweep, scene, out)
        ops.append(Op("sweep", fam, _cli(argv), check, _files_digest((out,)), (out,)))
    return ops


# ---------------------------------------------------------------------------
# loss step


def check_loss(embeddings, classes, u, t, config: LossConfig, report, notes: dict) -> list[str]:
    """l_total = l_self - eta * l_cross, both terms as the public functions give them."""
    errs = []
    if report.l_total != report.l_self - config.eta * report.l_cross:
        errs.append("l_total != l_self - eta * l_cross")
    if report.grad.shape != embeddings.data.shape or not np.all(np.isfinite(report.grad)):
        errs.append("gradient has the wrong shape or non-finite entries")
    # Graph-cut's self term sums over the batch without the unknowns.
    t_self = t.minus(u) if config.family is Family.GRAPH_CUT else t
    for name, got, want in (
        ("l_self", report.l_self, loss_self(embeddings, classes, t_self, config)),
        ("l_cross", report.l_cross, loss_cross(embeddings, classes, u, t, config)),
    ):
        if abs(got - want) > GAIN_TOL * max(1.0, abs(want)):
            errs.append(f"{name} {got!r} != {want!r}")
    return errs


def _loss_digest(report) -> str:
    h = hashlib.sha256(np.array([report.l_self, report.l_cross, report.l_total]).tobytes())
    h.update(np.ascontiguousarray(report.grad).tobytes())
    return h.hexdigest()


def _loss_step_ops(workdir: Path, sizes: dict, fault: str | None) -> list[Op]:
    embeddings = read_embeddings_csv(workdir / "scene.csv")
    classes, u, t = _load_sets(workdir, embeddings.n)
    ops = []
    for fam in FAMILIES:
        config = LossConfig(family=fam)
        run = lambda config=config: submine.losses.loss_total(embeddings, classes, u, t, config)
        check = partial(check_loss, embeddings, classes, u, t, config)
        ops.append(Op("loss_step", fam, run, check, _loss_digest))
    return ops


# ---------------------------------------------------------------------------
# gradient audit


def check_gradcheck(report_path: Path, n_coords: int, rc, notes: dict) -> list[str]:
    """Exit 0, error below tolerance, every coordinate probed, and something checked."""
    if rc != 0:
        return [f"gradcheck exited {rc}"]
    report = json.loads(report_path.read_text())
    errs = []
    if report["checked"] == 0:
        errs.append("audit checked no coordinate")
    if report["checked"] + report["tie_adjacent"] != n_coords:
        errs.append(f"audit probed {report['checked'] + report['tie_adjacent']} of {n_coords} coordinates")
    if not report["max_rel_err"] < GRADCHECK_TOL:
        errs.append(f"max_rel_err {report['max_rel_err']!r} >= {GRADCHECK_TOL}")
    return errs


def _gradcheck_ops(workdir: Path, sizes: dict, fault: str | None) -> list[Op]:
    scene_csv, sets = workdir / "scene.csv", workdir / "sets.json"
    n_coords = sizes["n"] * sizes["d"]
    extra = ["--perturb-grad", "1e-3"] if fault == "perturb-grad" else []
    ops = []
    for fam in FAMILIES:
        out = workdir / f"gradcheck-{fam}.json"
        argv = ["gradcheck", str(scene_csv), "--sets", str(sets), "--family", fam,
                "--tol", str(GRADCHECK_TOL), "--quiet", "--out", str(out)] + extra
        check = partial(check_gradcheck, out, n_coords)
        ops.append(Op("gradcheck", fam, _cli(argv), check, _files_digest((out,)), (out,)))
    return ops


# ---------------------------------------------------------------------------
# reference work
#
# The machine's speed drifts by tens of percent over seconds to minutes as
# other tenants come and go.  Each timed op runs between two runs of a fixed
# piece of reference work of the same kind as the op's bottleneck; the op's
# time over the mean reference time around it is far steadier than either.


def small_call_reference(calls: int = 4000) -> float:
    """Small numpy calls from a Python loop, like greedy's gain evaluations or FD probes."""
    a = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for i in range(calls):
        total += float(np.maximum(a - i * 1e-4, 0.0).sum())
    return total


def memory_reference() -> float:
    """Full passes over an n x n array, like building a similarity kernel."""
    x = np.linspace(-1.0, 1.0, 3000).reshape(1500, 2)
    g = x @ x.T
    return float(np.clip((g + g.T) / 2.0, -1.0, 1.0).sum())


def sweep_reference() -> float:
    """Kernel-sized array passes plus some small calls, in about a sweep's proportions."""
    return memory_reference() + small_call_reference(1000)


def batch_reference() -> float:
    """Dense products and passes over a 512 x 512 Gram matrix, like one loss step."""
    x = np.linspace(-1.0, 1.0, 512 * 128).reshape(512, 128)
    total = 0.0
    for _ in range(3):
        s = np.clip(x @ x.T, -1.0, 1.0)
        total += float((s @ x).sum() + (s * s).sum())
    return total


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int, dict], None]
    ops: Callable[[Path, dict, str | None], list[Op]]
    reference: Callable[[], object]


WORKLOADS = {
    "mine-greedy": Workload(_setup_mining, _select_ops, small_call_reference),
    "mine-kernel": Workload(_setup_sweep, _sweep_ops, sweep_reference),
    "loss-step": Workload(_setup_batch, _loss_step_ops, batch_reference),
    "loss-audit": Workload(_setup_batch, _gradcheck_ops, small_call_reference),
}
