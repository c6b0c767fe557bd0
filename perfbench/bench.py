"""Run one workload: set up its inputs, check every op, time or trace the ops.

An untraced run (trace=False) gives the end-to-end metrics:

  1. set up the inputs once;
  2. run each op once under tracemalloc, untimed, and check its output; this
     pass gives peak_mb and warms caches;
  3. run whole cycles (one op per family) until the time is up, timing each
     op, and check that every output is byte-identical to the checked one;
     set-up repeats are timed between cycles, and setup_s is their median,
     scaled for the machine's speed (see SetupTimer).

A traced run (trace=True) sets up and checks the same way, then alternates
untraced and traced cycles; the traced cycles give the per-layer metrics and
their ratio to the untraced ones gives trace.overhead_ratio.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import submine  # noqa: E402

if Path(submine.__file__).resolve().parent != ROOT / "src" / "submine":
    raise ImportError(f"submine was not loaded from {ROOT / 'src'}")

from tracer import Target, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SIZES, WORKLOADS, inject_fault, small_call_reference  # noqa: E402

# Set-ups are spread over the run: a burst every tenth of the run, each burst
# repeating the set-up for at least 50 ms (small set-ups take about a
# millisecond), and at least 5 set-ups in all.
SETUP_SPACING = 0.1
SETUP_BURST_SECONDS = 0.05
SETUP_BURST_MAX = 25
SETUP_MIN_REPEATS = 5
# Wall time of small_call_reference() on the machine the benchmark was built
# on (2 vCPU x86-64, Python 3.11, numpy 2.4): set-up times are reported as if
# the machine ran at that speed, since its speed drifts by 20-50% between runs.
REFERENCE_SECONDS = 0.016
WORK_DIR = Path(__file__).resolve().parent / "_work"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "fl_rel": "ref",
    "gc_rel": "ref",
    "logdet_rel": "ref",
    "peak_mb": "MB",
}

PER_LAYER_UNITS = {
    "greedy.background_s": "s",
    "greedy.unknown_s": "s",
    "greedy.background_evals": "count",
    "greedy.unknown_evals": "count",
    "greedy.rounds": "count",
    "greedy.evals_per_round": "ratio",
    "greedy.picks_per_eval": "ratio",
    "objectives.marginal_gain_calls": "count",
    "objectives.commit_calls": "count",
    "objectives.prep_commits": "count",
    "objectives.us_per_gain": "us",
    "kernels.cosine_kernel_s": "s",
    "kernels.cosine_kernel_calls": "count",
    "kernels.kernel_bytes": "bytes",
    "kernels.kernel_peak_mb": "MB",
    "kernels.kept_share": "ratio",
    "kernels.read_csv_s": "s",
    "discovery.pipeline_s": "s",
    "discovery.filter_s": "s",
    "discovery.match_s": "s",
    "discovery.metrics_s": "s",
    "discovery.kept": "count",
    "discovery.purity": "ratio",
    "losses.loss_total_ms": "ms",
    "losses.fd_audit_s": "s",
    "losses.fd_probes": "count",
    "losses.fd_checked": "count",
    "losses.fd_tie_adjacent": "count",
    "losses.fd_checked_ratio": "ratio",
    "losses.fd_us_per_probe": "us",
    "cli.select_overhead_s": "s",
    "cli.sweep_overhead_s": "s",
    "cli.gradcheck_overhead_s": "s",
    "cli.output_bytes": "bytes",
    "scenes.gen_scene_s": "s",
    "scenes.write_csv_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that do not depend on the machine: equal across runs at one seed.
COUNTERS = (
    "greedy.background_evals",
    "greedy.unknown_evals",
    "greedy.rounds",
    "objectives.marginal_gain_calls",
    "objectives.commit_calls",
    "objectives.prep_commits",
    "kernels.cosine_kernel_calls",
    "kernels.kernel_bytes",
    "discovery.kept",
    "losses.fd_probes",
    "losses.fd_checked",
    "losses.fd_tie_adjacent",
    "cli.output_bytes",
)


def _count_prep_commit(span, _result):
    # Commits before the first gain evaluation rebuild the conditioning set.
    if span is not None and not span.counters.get("objectives.marginal_gain"):
        span.counters["prep_commits"] = span.counters.get("prep_commits", 0) + 1


def _observe_filter(span, kept):
    span.counters["kept"] = len(kept)


def _observe_fd(span, report):
    span.counters["checked"] = report["checked"]
    span.counters["tie_adjacent"] = report["tie_adjacent"]


def _observe_kernel(span, kernel):
    span.counters["bytes"] = kernel.matrix.nbytes
    span.counters["n"] = kernel.n


def _observe_greedy(span, result):
    span.counters["evals"] = result.evaluations
    span.counters["rounds"] = len(result.gains)


# Public module attributes the pipeline looks up at call time.
OP_TARGETS = (
    Target("submine.cli", "read_embeddings_csv", "kernels.read_embeddings_csv"),
    Target("submine.cli", "known_prototypes", "discovery.known_prototypes"),
    Target("submine.cli", "run_discovery", "discovery.run_discovery"),
    Target("submine.cli", "coverage_metrics", "discovery.coverage_metrics"),
    Target("submine.cli", "finite_difference_check", "losses.finite_difference_check",
           observe=_observe_fd),
    Target("submine.losses", "loss_total", "losses.loss_total"),
    Target("submine.discovery", "filter_by_objectness", "discovery.filter_by_objectness",
           observe=_observe_filter),
    Target("submine.discovery", "match_knowns", "discovery.match_knowns"),
    Target("submine.discovery", "cosine_kernel", "kernels.cosine_kernel",
           observe=_observe_kernel, memory=True),
    Target("submine.discovery", "select_background", "discovery.select_background"),
    Target("submine.discovery", "select_unknowns", "discovery.select_unknowns"),
    Target("submine.discovery", "greedy_max", "greedy.greedy_max", observe=_observe_greedy),
    Target("submine.greedy", "marginal_gain", "objectives.marginal_gain", kind="count"),
    Target("submine.greedy", "commit", "objectives.commit", kind="count",
           observe=_count_prep_commit),
)
SETUP_TARGETS = (
    Target("submine.scenes", "gen_scene", "scenes.gen_scene"),
    Target("submine.kernels", "write_embeddings_csv", "scenes.write_csv"),
)


# ---------------------------------------------------------------------------
# environment


def _openblas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if it is one."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "submine").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in (99, 90, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(xs, p))
            break
    else:
        out["max"] = xs[-1]
    return out


class Ledger:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, key: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{key}: {'; '.join(errors)}")


def _call(op):
    """Run an op; an exception counts as a failed op, not a crashed run."""
    try:
        return op.run(), None
    except Exception as e:  # the run must go on to report the failure
        return None, f"raised {type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# per-layer metrics from one traced cycle


def layer_metrics(spans, own, lo: int, hi: int) -> dict:
    cyc = spans[lo:hi]

    def named(name):
        return [s for s in cyc if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else ""

    greedy = named("greedy.greedy_max")
    bg = [s for s in greedy if parent_name(s) == "discovery.select_background"]
    un = [s for s in greedy if parent_name(s) == "discovery.select_unknowns"]
    evals = sum(s.counters["evals"] for s in greedy)
    rounds = sum(s.counters["rounds"] for s in greedy)
    gain_calls = sum(s.counters.get("objectives.marginal_gain", 0) for s in cyc)
    gain_s = sum(s.counters.get("objectives.marginal_gain_s", 0.0) for s in cyc)
    kernels = named("kernels.cosine_kernel")
    kept = [s.counters["kept"] for s in named("discovery.filter_by_objectness")]
    fd = named("losses.finite_difference_check")
    checked = sum(s.counters["checked"] for s in fd)
    ties = sum(s.counters["tie_adjacent"] for s in fd)
    probes = 2 * (checked + ties)
    fd_s = total("losses.finite_difference_check")
    steps = [s.duration for s in named("losses.loss_total")]

    def overhead(kind):
        return sum(own[lo + i] for i, s in enumerate(cyc) if s.name == f"op.{kind}")

    return {
        "greedy.background_s": sum(s.duration for s in named("discovery.select_background")),
        "greedy.unknown_s": sum(s.duration for s in named("discovery.select_unknowns")),
        "greedy.background_evals": sum(s.counters["evals"] for s in bg),
        "greedy.unknown_evals": sum(s.counters["evals"] for s in un),
        "greedy.rounds": rounds,
        "greedy.evals_per_round": evals / rounds if rounds else 0.0,
        "greedy.picks_per_eval": rounds / evals if evals else 0.0,
        "objectives.marginal_gain_calls": gain_calls,
        "objectives.commit_calls": sum(s.counters.get("objectives.commit", 0) for s in cyc),
        "objectives.prep_commits": sum(s.counters.get("prep_commits", 0) for s in un),
        "objectives.us_per_gain": 1e6 * gain_s / gain_calls if gain_calls else 0.0,
        "kernels.cosine_kernel_s": total("kernels.cosine_kernel"),
        "kernels.cosine_kernel_calls": len(kernels),
        "kernels.kernel_bytes": sum(s.counters["bytes"] for s in kernels),
        "kernels.kernel_peak_mb": max((s.counters["peak_bytes"] for s in kernels), default=0) / 1e6,
        "kernels.kept_share": (
            sum(k * k for k in kept) / sum(s.counters["n"] ** 2 for s in kernels) if kernels else 0.0
        ),
        "kernels.read_csv_s": total("kernels.read_embeddings_csv"),
        "discovery.pipeline_s": total("discovery.run_discovery"),
        "discovery.filter_s": total("discovery.filter_by_objectness"),
        "discovery.match_s": total("discovery.match_knowns"),
        "discovery.metrics_s": total("discovery.coverage_metrics"),
        "discovery.kept": sum(kept),
        "losses.loss_total_ms": 1e3 * statistics.median(steps) if steps else 0.0,
        "losses.fd_audit_s": fd_s,
        "losses.fd_probes": probes,
        "losses.fd_checked": checked,
        "losses.fd_tie_adjacent": ties,
        "losses.fd_checked_ratio": checked / (checked + ties) if fd else 0.0,
        "losses.fd_us_per_probe": 1e6 * fd_s / probes if probes else 0.0,
        "cli.select_overhead_s": overhead("select"),
        "cli.sweep_overhead_s": overhead("sweep"),
        "cli.gradcheck_overhead_s": overhead("gradcheck"),
    }


def top_self(spans, own, lo: int, hi: int) -> dict:
    """Per op: the span name with the largest self time, and how the wall splits."""
    out = {}
    for i in range(lo, hi):
        op = spans[i]
        if not op.name.startswith("op."):
            continue
        by_name: dict[str, float] = {}
        for j in range(i + 1, hi):
            if spans[j].op != op.op:
                break
            by_name[spans[j].name] = by_name.get(spans[j].name, 0.0) + own[j]
        name, secs = max(by_name.items(), key=lambda kv: kv[1], default=("", 0.0))
        children = sum(s.duration for s in spans[i + 1:hi] if s.parent == i)
        out[op.counters["key"]] = {
            "top": name,
            "top_share": secs / op.duration,
            "wall_s": op.duration,
            "children_s": children,
            "cli_overhead_s": own[i],
        }
    return out


# ---------------------------------------------------------------------------
# the run


class SetupTimer:
    """Times repeats of a workload's set-up, spread over the run.

    Each burst of set-ups sits between two runs of the small-call reference
    work; ``calibrated`` holds each set-up's time scaled to a machine on which
    that reference takes REFERENCE_SECONDS.  Repeats rewrite the same input
    files with the same bytes.  When traced, each repeat is its own op, and
    gen_scene / write_embeddings_csv are spans.
    """

    def __init__(self, workload, workdir, seed, sizes, tracer, seconds) -> None:
        self._run = lambda: workload.setup(workdir, seed, sizes)
        self._tracer = tracer
        self._spacing = SETUP_SPACING * seconds
        self._next = 0.0
        self.times: list[float] = []
        self.calibrated: list[float] = []
        self.layers: list[dict] = []

    def _once(self) -> float:
        tracer = self._tracer
        if tracer:
            lo = len(tracer.spans)
            tracer.install(SETUP_TARGETS)
            span = tracer.begin("setup", new_op=True)
        try:
            elapsed = _timed(self._run)
        finally:
            if tracer:
                tracer.end(span)
                tracer.uninstall()
        if tracer:
            rep = tracer.spans[lo:]
            self.layers.append({
                "scenes.gen_scene_s": sum(s.duration for s in rep if s.name == "scenes.gen_scene"),
                "scenes.write_csv_s": sum(s.duration for s in rep if s.name == "scenes.write_csv"),
            })
        return elapsed

    def _burst(self) -> None:
        ref_before = _timed(small_call_reference)
        times = []
        while len(times) < SETUP_BURST_MAX and sum(times) < SETUP_BURST_SECONDS:
            times.append(self._once())
        scale = 2.0 * REFERENCE_SECONDS / (ref_before + _timed(small_call_reference))
        self.times.extend(times)
        self.calibrated.extend(t * scale for t in times)

    def maybe_run(self) -> None:
        if time.perf_counter() >= self._next:
            self._burst()
            self._next = time.perf_counter() + self._spacing

    def finish(self) -> None:
        while len(self.times) < SETUP_MIN_REPEATS:
            self._burst()


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_cycle(ops, ledger, digests, samples=None, reference=None, tracer=None):
    """One op per family.  With ``samples``, the workload's reference work runs
    before the first op and after every op, and each op's time is also
    recorded relative to the mean of the reference times on either side."""
    t0 = time.perf_counter()
    ref_before = _timed(reference) if samples is not None else 0.0
    for op in ops:
        span = tracer.begin(f"op.{op.kind}", new_op=True) if tracer else None
        start = time.perf_counter()
        result, err = _call(op)
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
            span.counters["key"] = op.key
        if err is None and op.digest(result) != digests.get(op.key):
            err = "output differs from the checked run"
        ledger.record(op.key, [err] if err else [])
        if samples is not None:
            ref_after = _timed(reference)
            samples[op.key].append(elapsed)
            samples[op.key + " rel"].append(2.0 * elapsed / (ref_before + ref_after))
            ref_before = ref_after
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, fault: str | None = None,
                 workdir: Path | None = None) -> dict:
    """One benchmark run.  Returns the result line plus a detail record.

    ``sizes``, ``fault`` and ``workdir`` serve the benchmark's own tests:
    smaller inputs, a negative control ("perturb-grad", "corrupt-gain" or
    "swap-pick"), and a scratch directory.
    """
    workload = WORKLOADS[name]
    sizes = sizes or DEFAULT_SIZES[name]
    workdir = workdir or WORK_DIR / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None

    workload.setup(workdir, seed, sizes)
    setup = SetupTimer(workload, workdir, seed, sizes, tracer, seconds)

    ops = workload.ops(workdir, sizes, fault)
    ledger = Ledger()
    digests: dict[str, str] = {}
    peak = 0
    if not trace:
        tracemalloc.start()
    for op in ops:
        if not trace:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        result, err = _call(op)
        if not trace:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        if err is None:
            inject_fault(op, fault)
            try:
                errors = op.check(result, op.notes)
            except Exception as e:  # a malformed output is a failed check
                errors = [f"check raised {type(e).__name__}: {e}"]
            digests[op.key] = op.digest(result)
        else:
            errors = [err]
        ledger.record(op.key, errors)
    if not trace:
        tracemalloc.stop()

    detail: dict = {"workload": name, "sizes": sizes, "trace": trace}
    purity = [op.notes["purity"] for op in ops if "purity" in op.notes]
    start = time.perf_counter()
    if not trace:
        samples = {key: [] for op in ops for key in (op.key, op.key + " rel")}
        cycles = []
        while True:
            setup.maybe_run()
            cycles.append(_run_cycle(ops, ledger, digests, samples, workload.reference))
            if time.perf_counter() - start + statistics.median(cycles) > seconds:
                break
        setup.finish()
        metrics = {
            "setup_s": statistics.median(setup.calibrated),
            **{f"{op.family}_rel": statistics.median(samples[op.key + " rel"]) for op in ops},
            "peak_mb": peak / 1e6,
        }
        detail["ops"] = {key: tail(xs) for key, xs in samples.items()}
        detail["setup_s"] = tail(setup.calibrated)
        detail["setup_wall_s"] = tail(setup.times)
        units = END_TO_END_UNITS
    else:
        plain, traced, layers, top = [], [], [], {}
        spans = tracer.spans
        while True:
            setup.maybe_run()
            plain.append(_run_cycle(ops, ledger, digests))
            lo = len(spans)
            tracer.install(OP_TARGETS)
            try:
                traced.append(_run_cycle(ops, ledger, digests, tracer=tracer))
            finally:
                tracer.uninstall()
            own = self_times(spans)
            layers.append(layer_metrics(spans, own, lo, len(spans)))
            top = top_self(spans, own, lo, len(spans))
            if time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
                break
        setup.finish()
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        for key in COUNTERS:
            if key in layers[0]:
                metrics[key] = layers[0][key]
                if any(layer[key] != metrics[key] for layer in layers):
                    ledger.record(key, ["count differs between traced cycles"])
        for key in ("scenes.gen_scene_s", "scenes.write_csv_s"):
            metrics[key] = statistics.median(layer[key] for layer in setup.layers)
        metrics["discovery.purity"] = statistics.mean(purity) if purity else 0.0
        metrics["cli.output_bytes"] = sum(op.output_bytes() for op in ops)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        detail["counters"] = {key: metrics[key] for key in COUNTERS}
        detail["top_self"] = top
        detail["absent"] = tracer.absent
        detail["cycles"] = len(traced)
        tracer.dump(workdir / "trace.json")
        units = PER_LAYER_UNITS

    detail["purity"] = statistics.mean(purity) if purity else None
    detail["fail_rate"] = ledger.failed / ledger.attempted
    detail["errors"] = ledger.errors
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return {"result": result, "detail": detail, "env": environment(seed)}
