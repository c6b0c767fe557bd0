"""End-to-end acceptance gates.

Each test is one gate: it measures, prints a single pass/fail line (visible
under pytest -s), and then asserts.  Tolerances and runtime budgets are part
of the gate.  Run this file alone with:

    pytest tests/test_acceptance.py -s
"""

import json
import math
import time

import numpy as np

from submine import (
    EmbeddingSet,
    Family,
    IndexSet,
    LossConfig,
    SimilarityKernel,
    SubmodularObjective,
    conditional_gain,
    conditional_gain_closed,
    cosine_kernel,
    evaluate,
    finite_difference_check,
    gen_separation_cases,
    greedy_max,
    hungarian_assign,
    loss_cross,
    loss_total,
    read_embeddings_csv,
)
from submine.cli import EXIT_OK, SWEEP_GRIDS, main
from conftest import TOY_MATRIX
from helpers import (
    brute_force_opt, full_round_greedy, nested_triple, random_objective, random_subset,
)
from test_discovery import brute_assignment_cost
from test_losses import _instance as loss_instance


def _gate(number, name, failures, elapsed, limit):
    """Print the one-line verdict, then fail the test if anything broke."""
    if limit is not None and not elapsed < limit:
        failures.append(f"runtime {elapsed:.2f}s exceeded {limit}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{number}/9] {name}: {verdict}")
    assert not failures, f"{name}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. diminishing returns and the union/intersection inequality


def test_a1_submodular_inequalities():
    start = time.perf_counter()
    failures = []
    # Coverage and cut need non-negative similarities to be submodular, so
    # they run on their default clip-at-zero transform; the volume family
    # takes the raw kernel plus its diagonal shift.
    setups = [
        (Family.FACILITY_LOCATION, "clip-at-zero", 0.5, None),
        (Family.GRAPH_CUT, "clip-at-zero", 0.25, None),
        (Family.GRAPH_CUT, "clip-at-zero", 0.5, None),
        (Family.GRAPH_CUT, "clip-at-zero", 1.0, None),
        (Family.LOG_DET, "raw-cosine", 0.5, 1e-4),
    ]
    for family, transform, lam, eps in setups:
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(4, 21))
            obj = random_objective(
                rng, family, n=n, transform=transform, lam=lam, epsilon=eps
            )
            small, big, v = nested_triple(rng, n)
            gain_small = evaluate(obj, small.union(IndexSet.of([v]))) - evaluate(
                obj, small
            )
            gain_big = evaluate(obj, big.union(IndexSet.of([v]))) - evaluate(obj, big)
            worst = max(worst, gain_big - gain_small)
            a = random_subset(rng, n)
            b = random_subset(rng, n)
            both = IndexSet.of(i for i in a if i in b)
            lhs = evaluate(obj, a) + evaluate(obj, b)
            rhs = evaluate(obj, a.union(b)) + evaluate(obj, both)
            worst = max(worst, rhs - lhs)
        if not worst <= 1e-9:
            failures.append(f"{family.value} lam={lam}: violation {worst:.3e}")
    _gate(1, "submodular inequalities", failures, time.perf_counter() - start, 10.0)


# ---------------------------------------------------------------------------
# 2. closed-form conditional gains match their definition at unit strength


def test_a2_conditional_gain_identities():
    start = time.perf_counter()
    failures = []
    toy = SimilarityKernel(TOY_MATRIX)
    ground = IndexSet.of(range(3))
    toy_checks = [
        (Family.GRAPH_CUT, dict(lam=0.5), 0.7),
        (Family.FACILITY_LOCATION, {}, 0.5),
        (Family.LOG_DET, dict(epsilon=0.0), math.log(0.75)),
    ]
    for family, kwargs, want in toy_checks:
        obj = SubmodularObjective(family, toy, ground, **kwargs)
        got = conditional_gain_closed(obj, [0], [1])
        if abs(got - want) > 1e-9:
            failures.append(f"toy {family.value}: {got} != {want}")
    setups = [
        (Family.FACILITY_LOCATION, "raw-cosine", None),
        (Family.GRAPH_CUT, "clip-at-zero", None),
        (Family.LOG_DET, "raw-cosine", 1e-4),
    ]
    for family, transform, eps in setups:
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 13))
            obj = random_objective(
                rng, family, n=n, transform=transform, epsilon=eps, lam=0.5, nu=1.0
            )
            perm = [int(i) for i in rng.permutation(n)]
            cut = int(rng.integers(1, n + 1))
            a = IndexSet.of(perm[:cut])
            q = IndexSet.of(perm[cut:])
            diff = abs(
                conditional_gain_closed(obj, a, q) - conditional_gain(obj, a, q)
            )
            worst = max(worst, diff)
        if not worst <= 1e-9:
            failures.append(f"{family.value}: max gap {worst:.3e}")
    _gate(2, "conditional gain identities", failures, time.perf_counter() - start, 10.0)


# ---------------------------------------------------------------------------
# 3. greedy approximation bound and lazy equivalence


def test_a3_greedy_guarantee_and_lazy_equivalence():
    start = time.perf_counter()
    failures = []
    bound = 1.0 - 1.0 / math.e
    rng = np.random.default_rng(3003)
    setups = [
        (Family.FACILITY_LOCATION, "clip-at-zero", None),
        (Family.GRAPH_CUT, "clip-at-zero", None),
        (Family.LOG_DET, "raw-cosine", 1e-4),
    ]
    for trial in range(200):
        n = int(rng.integers(8, 16))
        k = int(rng.integers(1, 5))
        fl = random_objective(rng, Family.FACILITY_LOCATION, n=n, transform="clip-at-zero")
        pool = IndexSet.of(range(n))
        greedy = greedy_max(fl, pool, k)
        best = brute_force_opt(fl, pool, k)
        if greedy.objective_value < bound * best.objective_value - 1e-9:
            failures.append(
                f"trial {trial}: greedy {greedy.objective_value} below bound of "
                f"optimum {best.objective_value}"
            )
        for family, transform, eps in setups:
            obj = (
                fl
                if family is Family.FACILITY_LOCATION
                else random_objective(rng, family, n=n, transform=transform, epsilon=eps)
            )
            # greedy_max prunes facility location's rounds (lazy greedy); the
            # naive greedy is the full-round loop.
            lazy = greedy if obj is fl else greedy_max(obj, pool, k)
            if (tuple(lazy.selected), lazy.gains) != full_round_greedy(obj, pool, k):
                failures.append(f"trial {trial}: lazy diverged for {family.value}")
    _gate(
        3,
        "greedy bound and lazy equivalence",
        failures,
        time.perf_counter() - start,
        60.0,
    )


# ---------------------------------------------------------------------------
# 4. the selection pipeline on the shipped default scene


def test_a4_selection_pipeline_fidelity(tmp_path):
    start = time.perf_counter()
    failures = []
    scene_csv = tmp_path / "scene.csv"
    result_json = tmp_path / "mined.json"
    if main(["generate", "--out", str(scene_csv), "--quiet"]) != EXIT_OK:
        failures.append("generate failed")
    code = main(
        [
            "select",
            str(scene_csv),
            "--family",
            "gccg",
            "--tau-e",
            "0.2",
            "--tau-b",
            "0.3",
            "--k",
            "10",
            "--out",
            str(result_json),
            "--quiet",
        ]
    )
    if code != EXIT_OK:
        failures.append(f"select exited {code}")
    else:
        payload = json.loads(result_json.read_text())
        kept = payload["kept"]
        known = set(payload["known"])
        background = set(payload["background"])
        unknown = set(payload["unknown"])
        if len(unknown) != 10:
            failures.append(f"|unknown| = {len(unknown)}, want 10")
        pool_v = len(kept) - len(known)
        if len(background) != math.floor(0.3 * pool_v):
            failures.append(
                f"|background| = {len(background)}, want floor(0.3*{pool_v})"
            )
        if known & background or known & unknown or background & unknown:
            failures.append("selections are not disjoint")
        labels = read_embeddings_csv(scene_csv).labels
        purity = sum(1 for i in unknown if labels[i] == 0) / len(unknown)
        pool = [i for i in kept if i not in known and i not in background]
        prevalence = sum(1 for i in pool if labels[i] == 0) / len(pool)
        if not purity > prevalence:
            failures.append(f"purity {purity} not above prevalence {prevalence}")
    _gate(4, "selection pipeline fidelity", failures, time.perf_counter() - start, 5.0)


# ---------------------------------------------------------------------------
# 5. analytic gradients against central differences


def test_a5_gradient_suite():
    start = time.perf_counter()
    failures = []
    etas = (0.5, 1.0, 1.5)
    nus = (0.5, 1.0)
    for fam in ("fl", "gc", "logdet"):
        rng = np.random.default_rng(5005)
        worst = 0.0
        for trial in range(100):
            e, classes, u, t = loss_instance(rng)
            cfg = LossConfig(
                family=fam, eta=etas[trial % 3], nu=nus[trial % 2], lam=0.5
            )
            report = loss_total(e, classes, u, t, cfg)
            if report.l_total != report.l_self - cfg.eta * report.l_cross:
                failures.append(f"{fam} trial {trial}: total identity broke")
            check = finite_difference_check(e, classes, u, t, cfg, h=1e-4)
            worst = max(worst, check["max_rel_err"])
            scales = rng.uniform(0.25, 4.0, size=e.n)
            scaled = loss_total(
                EmbeddingSet(e.data * scales[:, None]), classes, u, t, cfg
            )
            if abs(scaled.l_total - report.l_total) > 1e-9:
                failures.append(f"{fam} trial {trial}: scale invariance broke")
        if not worst < 1e-5:
            failures.append(f"{fam}: max relative error {worst:.3e}")
    _gate(5, "gradient suite", failures, time.perf_counter() - start, 120.0)


# ---------------------------------------------------------------------------
# 6. growing separation raises the cross term and lowers mined similarity


def test_a6_separation_monotonicity():
    start = time.perf_counter()
    failures = []
    cases = gen_separation_cases()
    for fam in ("fl", "gc"):
        cfg = LossConfig(family=fam)
        values = [
            loss_cross(c.embeddings, [c.known], c.unknown, c.all_items, cfg)
            for c in cases
        ]
        if not all(b >= a - 1e-12 for a, b in zip(values, values[1:])):
            failures.append(f"{fam} cross terms not non-decreasing: {values}")
    mean_sims = []
    for case in cases:
        kernel = cosine_kernel(case.embeddings, transform="clip-at-zero")
        obj = SubmodularObjective(
            Family.GRAPH_CUT, kernel, case.all_items, lam=0.5
        )
        picked = greedy_max(obj, case.unknown, 10, conditioning=case.known).selected
        block = kernel.matrix[np.ix_(picked.as_array(), case.known.as_array())]
        mean_sims.append(float(block.mean()))
    if not (mean_sims[0] > mean_sims[1] > mean_sims[2]):
        failures.append(f"mined-to-known similarity not decreasing: {mean_sims}")
    _gate(6, "separation monotonicity", failures, time.perf_counter() - start, 10.0)


# ---------------------------------------------------------------------------
# 7. assignment oracle


def test_a7_assignment_brute_force_oracle():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7007)
    sizes = []
    sizes.extend(
        (int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(700)
    )
    sizes.extend((int(rng.integers(1, 7)), 6) for _ in range(145))
    sizes.extend((6, int(rng.integers(1, 7))) for _ in range(145))
    sizes.extend((7, 7) for _ in range(10))
    worst = 0.0
    for m, length in sizes:
        cost = rng.normal(size=(m, length))
        pairs = hungarian_assign(cost)
        got = sum(cost[r, c] for r, c in pairs)
        worst = max(worst, abs(got - brute_assignment_cost(cost)))
    if not worst <= 1e-9:
        failures.append(f"max cost gap {worst:.3e} over {len(sizes)} matrices")
    _gate(
        7, "assignment brute-force oracle", failures, time.perf_counter() - start, 10.0
    )


# ---------------------------------------------------------------------------
# 8. byte-identical reruns for every file-writing command


def test_a8_cli_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    cfg_path = tmp_path / "scene_cfg.json"
    cfg_path.write_text(json.dumps({"n_total": 120, "n_known": 6, "n_unknown": 25}))
    scene = tmp_path / "scene.csv"
    sweep_spec = tmp_path / "sweep.json"
    sweep_spec.write_text(json.dumps({"parameter": "k", "values": [0, 3]}))
    runs = {
        "generate": lambda out: main(["generate", "--out", out, "--quiet"]),
        "select": lambda out: main(["select", str(scene), "--out", out, "--quiet"]),
        "loss": lambda out: main(
            ["loss", "--cases", "--family", "all", "--out", out, "--quiet"]
        ),
        "sweep": lambda out: main(
            ["sweep", str(scene), "--sweep", str(sweep_spec), "--out", out, "--quiet"]
        ),
    }
    if main(["generate", "--config", str(cfg_path), "--out", str(scene), "--quiet"]):
        failures.append("scene generation failed")
    for name, run in runs.items():
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        if run(str(first)) != EXIT_OK or run(str(second)) != EXIT_OK:
            failures.append(f"{name} exited non-zero")
            continue
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name} reruns differ")
    # Roles files ride along with select; compare them too.
    select_roles = sorted(tmp_path.glob("select_*.roles.csv"))
    if len(select_roles) == 2:
        if select_roles[0].read_bytes() != select_roles[1].read_bytes():
            failures.append("select role files differ")
    _gate(8, "command determinism", failures, time.perf_counter() - start, None)


# ---------------------------------------------------------------------------
# 9. parameter sweeps emit one metrics row per grid point


def test_a9_sweep_grids(tmp_path):
    start = time.perf_counter()
    failures = []
    cfg_path = tmp_path / "scene_cfg.json"
    cfg_path.write_text(json.dumps({"n_total": 120, "n_known": 6, "n_unknown": 25}))
    scene = tmp_path / "scene.csv"
    if main(["generate", "--config", str(cfg_path), "--out", str(scene), "--quiet"]):
        failures.append("scene generation failed")
    expected_grids = {
        "k": [0, 5, 10, 30, 100],
        "tau_e": [0.05, 0.2, 0.5],
        "tau_b": [0.1, 0.3, 0.5],
        "eta": [0.5, 1.0, 1.5],
    }
    if SWEEP_GRIDS != expected_grids:
        failures.append(f"default grids changed: {SWEEP_GRIDS}")
    for parameter, grid in expected_grids.items():
        spec = tmp_path / f"{parameter}.json"
        spec.write_text(json.dumps({"parameter": parameter}))
        out = tmp_path / f"{parameter}.csv"
        code = main(
            ["sweep", str(scene), "--sweep", str(spec), "--out", str(out), "--quiet"]
        )
        if code != EXIT_OK:
            failures.append(f"{parameter} sweep exited {code}")
            continue
        lines = out.read_text().splitlines()
        rows = lines[2:]
        if len(rows) != len(grid):
            failures.append(
                f"{parameter}: {len(rows)} rows for {len(grid)} grid points"
            )
            continue
        got = [row.split(",")[0] for row in rows]
        want = [str(v) if parameter == "k" else repr(float(v)) for v in grid]
        if got != want:
            failures.append(f"{parameter}: value column {got} != {want}")
    _gate(9, "sweep grids", failures, time.perf_counter() - start, None)
