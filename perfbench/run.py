"""Cold-process benchmark for endolab.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload families|search|end-rings \
        --seed N --seconds S --trace 0|1 [--module-seed M]

Every timed pass runs in a fresh interpreter (``child.py``), because the
library keeps unbounded module-global ``lru_cache``s: repeating a pass in one
process would time warm caches and hide the memo work.  Passes run one at a
time, with no thread or process pools.  A run first sets up the workload
several times without deciding anything (for ``setup_s``), then repeats
whole passes until ``--seconds`` have passed.  With
``--trace 1`` each untraced pass is followed by a traced one, and the
per-layer metrics come from the traced passes.  Times of the verdict phase
are scaled to a reference machine speed measured next to them (see
``reference.py``); the raw medians are printed as well.

Outputs are checked, not just timed: every pass must give the same SHA-256
of its JSON record stream, the stream must equal the stdout of the real
``endolab`` CLI on the same input, ``end-rings`` verdicts must not contradict
the hand-written known answers, and no record may be a ``fail``.  A stream
that differs from the recorded baseline is reported as ``stream_changed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_S  # noqa: E402
from workloads import GATE_SEED, WORKLOADS, cli_invocations  # noqa: E402

SETUP_REPEATS = 10
# Every run must end within 180 s; children are killed past this point.
HARD_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("module_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
)

# Per-layer metrics printed with --trace 1, as prefix -> fields.  Counts
# repeat exactly between passes; times are medians over the traced passes.
# A time is listed only where every workload calls the function (a time that
# is 0 on one workload would read the same on every run); functions that only
# one workload reaches are listed by their call count.
LAYER_FIELDS = {
    "linalg.solve_congruence_system": ("calls", "total_s", "cells"),
    "linalg.kernel_subgroup": ("calls", "total_s"),
    "linalg.subgroup_canonical_form": ("calls", "total_s"),
    "linalg.subgroup_intersection": ("calls", "total_s"),
    "linalg.subgroup_structure": ("calls", "total_s"),
    "linalg.integer_kernel": ("calls", "total_s"),
    "linalg": ("self_s",),
    "homs.hom_group": ("calls", "distinct", "total_s"),
    "homs.end_ring": ("calls", "distinct", "total_s"),
    "homs.summand_test": ("calls", "distinct", "total_s"),
    "homs.HomGroup.coords_of": ("calls", "total_s"),
    "homs.kernel": ("calls", "total_s"),
    "homs.image": ("calls", "total_s"),
    "homs.is_fully_invariant": ("calls",),
    "homs.is_m_generated": ("calls",),
    "homs.find_isomorphism": ("calls",),
    "homs.find_embedding": ("calls",),
    "homs": ("self_s",),
    "modules.enumerate_submodules": ("calls", "distinct", "total_s", "submodules", "cap_hits"),
    "modules.extract": ("calls", "total_s"),
    "modules.is_essential": ("calls", "total_s"),
    "modules.quotient": ("calls",),
    "modules.direct_sum": ("calls",),
    "modules.maximal_submodules": ("total_s",),
    "modules.radical": ("total_s",),
    "modules": ("self_s",),
    "rings.is_regular": ("calls", "distinct", "total_s"),
    "rings.is_abelian_regular": ("calls", "distinct", "total_s"),
    "rings.is_unit_regular": ("calls", "total_s"),
    "rings.regularity_witness": ("calls", "total_s"),
    "rings.is_unit": ("calls", "total_s"),
    "rings.enumerate_elements": ("calls", "elements", "cap_hits"),
    "rings": ("self_s",),
    "lab.is_endoregular": ("calls", "distinct"),
    "lab.is_abelian_endoregular": ("calls", "distinct"),
    "lab.analyze": ("calls",),
    "lab.check.direct-sum-characterization": ("calls",),
    "lab": ("self_s",),
    "incidence.build_incidence_algebra": ("calls",),
    "incidence.build_mx": ("calls",),
    "workspace.parse_workspace": ("total_s",),
    "workspace.random_modules": ("calls",),
    "workspace.same_ring_families": ("calls",),
    "workspace.record_to_json": ("calls",),
    "workspace": ("self_s",),
    "verdicts.agree": ("calls",),
    "verdicts.cap_exceeded": ("ring-elements", "module-elements", "endomorphisms",
                              "homomorphisms"),
}
PER_LAYER = tuple(
    (f"{prefix}.{field}", "s" if field.endswith("_s") else "count")
    for prefix, fields in LAYER_FIELDS.items() for field in fields
) + (("trace.overhead_ratio", "ratio"),)


def note(line: str) -> None:
    print(line, flush=True)


def machine_notes() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load = fh.read().strip()
    except OSError:
        load = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": load}


class Runner:
    def __init__(self, root: str, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.begin = time.monotonic()
        self.work = os.path.join(root, ".perfbench")
        self.spec = {"root": root, "workload": args.workload,
                     "module_seed": args.module_seed}
        self.errors: list[str] = []
        self.spawned = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.begin)

    def child(self, **extra) -> tuple[dict | None, float]:
        """Run one fresh-interpreter pass; returns its result and spawn time."""
        # The seed fixes each child's string-hash layout, so a run repeats
        # exactly; passes still differ from one another.
        env = {**os.environ, "PYTHONHASHSEED": str((self.args.seed * 1000 + self.spawned) % 2**32)}
        self.spawned += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps({**self.spec, **extra})],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.errors.append("pass killed at the run's time limit")
            return None, spawned
        if proc.returncode != 0:
            self.errors.append(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None, spawned
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned

    def cli_stream_hash(self, object_ids: list[str]) -> str | None:
        wl = WORKLOADS[self.args.workload]
        env = {**os.environ, "PYTHONPATH": os.path.join(self.root, "src"),
               "PYTHONIOENCODING": "utf-8"}
        digest = hashlib.sha256()
        for cli_args in cli_invocations(self.args.workload, os.path.join(HERE, wl["workspace"]),
                                        self.args.module_seed, object_ids):
            try:
                proc = subprocess.run([sys.executable, "-m", "endolab.cli", *cli_args],
                                      cwd=self.root, env=env, capture_output=True,
                                      timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                self.errors.append("endolab CLI killed at the run's time limit")
                return None
            if proc.returncode != 0:
                self.errors.append(f"endolab {' '.join(cli_args)} exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace').strip()[-2000:]}")
                return None
            digest.update(proc.stdout)
        return digest.hexdigest()


def scaled_times(res: dict) -> list[float]:
    """Object times of one pass, each scaled by the mean of the reference
    times measured just before and just after it (see reference.py)."""
    refs = res["ref_s"]
    return [t * 2 * NOMINAL_S / (refs[i] + refs[i + 1])
            for i, (_, t) in enumerate(res["objects"])]


def quartile_spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def main() -> int:
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="fixes the string-hash seed of each child process")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--module-seed", type=int, default=GATE_SEED,
                        help="seed of the random modules of `search` (gate seed by default)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "endolab", "__init__.py")):
        print("error: run from the root of an endolab checkout (src/endolab not found)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args)
    os.makedirs(runner.work, exist_ok=True)

    notes = machine_notes()
    note(f"machine: nproc={notes['nproc']} python={notes['python']} cpu={notes['cpu']!r} "
         f"loadavg={notes['loadavg']!r}")
    note(f"workload={args.workload} seed={args.seed} module_seed={args.module_seed} "
         f"seconds={args.seconds:g} trace={args.trace}; one child process at a time")

    # Set-up times are not scaled: they are mostly process start and imports,
    # which do not speed up with the machine the way the reference does.
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        res, spawned = runner.child(setup_only=True)
        if res is not None:
            setups.append(res["ready"] - spawned)

    passes: list[dict] = []
    traced: list[dict] = []
    trace_out = os.path.join(runner.work, f"trace-{args.workload}.json")
    while not runner.errors and (
            not passes or time.monotonic() - runner.begin < args.seconds):
        res, spawned = runner.child()
        if res is None:
            break
        passes.append(res)
        setups.append(res["ready"] - spawned)
        if args.trace:
            res, _ = runner.child(trace_out=trace_out)
            if res is None:
                break
            traced.append(res)
    measured = time.monotonic() - runner.begin

    if not passes or (args.trace and not traced):
        for err in runner.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    first = passes[0]
    done = passes + traced
    object_ids = [o[0] for o in first["objects"]]
    cli_hash = runner.cli_stream_hash(object_ids)
    problems = runner.errors + [f"known answer contradicted: {bad}"
                                for p in done for bad in p["known_answer_failures"]]
    problems += [f"internal inconsistency: {bad}"
                 for p in done for bad in p["internal_inconsistencies"]]
    hashes = sorted({p["hash"] for p in done})
    if len(hashes) > 1:
        problems.append(f"record stream differs between passes: {hashes}")
    if cli_hash is not None and cli_hash != first["hash"]:
        problems.append(f"record stream {first['hash']} differs from the endolab CLI "
                        f"stream {cli_hash}")

    refs = [r for p in passes for r in p["ref_s"]]
    samples_ms = [[t * 1000 for t in scaled_times(p)] for p in passes]
    run_times = [sum(ts) / 1000 for ts in samples_ms]
    layers: dict[str, float] = {}
    if args.trace:
        names = sorted(set().union(*(t["layers"] for t in traced)))
        traced_scale = [NOMINAL_S / statistics.median(t["ref_s"]) for t in traced]
        for name in names:
            values = [t["layers"].get(name, 0) for t in traced]
            if name.endswith("_s"):
                layers[name] = statistics.median(v * k for v, k in zip(values, traced_scale))
                continue
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            layers[name] = values[0]
        layers["trace.overhead_ratio"] = (
            statistics.median(sum(scaled_times(t)) for t in traced)
            / statistics.median(run_times))

    failed = sum(p["fail_records"] for p in done) + len(problems)
    attempted = sum(p["verdicts"] for p in done) + len(problems)

    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["streams"]
    key = args.workload if args.workload != "search" else f"search/{args.module_seed}"
    expected = baseline.get(key)

    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_times),
        # Median over objects of each object's median time over the passes.
        "module_p50_ms": statistics.median(map(statistics.median, zip(*samples_ms))),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "decided_ratio": first["decided"] / first["verdicts"],
    }

    note(f"objects={len(object_ids)} verdicts/pass={first['verdicts']} passes={len(passes)} "
         f"traced_passes={len(traced)} setups={len(setups)} measured_s={measured:.3f}")
    note(f"reference: median {statistics.median(refs):.6g} s, nominal {NOMINAL_S} s")
    note(f"setup_s samples: {quartile_spread(setups)}")
    note(f"run_s samples: {quartile_spread(run_times)}; "
         f"raw median {statistics.median(sum(t for _, t in p['objects']) for p in passes):.6g} s")
    pooled = [t for ts in samples_ms for t in ts]
    if len(pooled) >= 200:
        p95 = statistics.quantiles(pooled, n=100)[94]
        note(f"module_p95_ms = {p95:.4f} ms (n={len(pooled)} object samples)")
    note(f"failed_ratio = {failed}/{attempted}")
    note(f"stream sha256 = {first['hash']} (cli {cli_hash}, baseline {expected})")
    if expected is not None and expected != first["hash"]:
        note(f"stream_changed: baseline {expected} -> {first['hash']}")
    for problem in problems:
        note(f"error: {problem}")

    if args.trace:
        note(f"tracing overhead: traced run_s / untraced run_s = "
             f"{layers['trace.overhead_ratio']:.4f}; spans in {trace_out}")
        listed = {name for name, _ in PER_LAYER}
        for name in sorted(set(layers) - listed):
            note(f"  (traced) {name} = {layers[name]:.6g}")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        note(f"  {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
