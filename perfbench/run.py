"""Seeded closed-loop benchmark of the ddcircuits toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/`` directory only.  One process, one thread, one client: the next op
starts when the last one returns.  Each op's output is checked outside the
timed interval.

Untraced (``--trace 0``): whole rounds of the seeded pool run until the
first ``trace_rounds`` rounds are done and ``--seconds`` have elapsed; the
end-to-end metrics are printed.  Op and set-up times are measured in units
of a fixed reference job timed beside them, so that the machine's own
changes of speed cancel out (see README.md).  Traced (``--trace 1``): the
first ``trace_rounds`` rounds run, each op once traced and once untraced;
the per-layer metrics are printed and the spans are written to
``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/ddcircuits`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import TRACED, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "ddcircuits"
MODULES = ("ratlin", "polyhedron", "lp", "circuits", "conformal", "ddstep", "ocnp", "reductions", "cli")
SETUP_SAMPLES = 7  # one before the loop, the rest spread over the checked rounds

END_TO_END_UNITS = {
    "ops_per_kref": "1/kref",
    "op_ref_gmean": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# A fixed rational elimination, benchmark-side, timed next to every op.
REFERENCE_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 6) for j in range(7)) for i in range(7)
)
REFERENCE_REPEATS = 5
# The reference job's median time on the 2-core x86_64 VM the benchmark was
# built on.  ``setup_s`` is the set-up time in reference units times this,
# so it reads in seconds at that machine's nominal speed.
REFERENCE_NOMINAL_S = 0.0007
DERIVED_UNITS = {
    "lp.solve_lp.calls_per_op": "calls/op",
    "lp.solve_lp.max_bits": "bits",
    "circuits.enumerate_circuits.circuits": "count",
    "circuits.enumerate_circuits.circuits_per_kernel": "ratio",
    "conformal.decompose.terms": "count",
    "ddstep.augment.steps": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def _eliminate(matrix) -> Fraction:
    """Determinant of ``matrix`` by Gaussian elimination over ``Fraction``."""
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            for j in range(col, len(rows)):
                rows[r][j] -= f * rows[col][j]
    return det


def reference_s() -> float:
    """Seconds the reference job takes now: ``REFERENCE_REPEATS`` eliminations.

    The job is plain ``Fraction`` arithmetic like the program's own, so it
    slows down with the machine and not with the program.  The collector is
    off while it runs, so the program's heap does not change its cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            _eliminate(REFERENCE_MATRIX)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if was_enabled:
            gc.enable()


def import_program() -> SimpleNamespace:
    """Import the package afresh from ``src/``, so each set-up pays the import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.import_module(PACKAGE)
    mods = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    origin = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return mods


def set_up(workload, seed: int, rounds: int, workdir: str):
    """Import, generate the pool (writing any files) and run one untimed warm-up op.

    Returns the set-up's wall seconds, its time in reference units (the
    reference job runs just before and just after it), the modules and the
    pool.
    """
    ref_before = reference_s()
    start = time.perf_counter()
    mods = import_program()
    pool = workload.generate(seed, rounds, mods, workdir)
    try:
        workload.op(mods, pool[0])
    except Exception:  # the same op fails again when timed and is counted there
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    return elapsed, elapsed / ((ref_before + reference_s()) / 2), mods, pool


def run_ops(workload, mods, pool, *, seconds: float, min_ops: int, tracer=None, on_round=None) -> dict:
    """Closed loop over the pool in whole rounds; checks run outside the timed interval.

    Stops after the first round boundary at which ``min_ops`` ops are done
    and ``seconds`` have elapsed.  An op fails if it raises, if its check
    fails, or if its output bytes differ from an earlier op on the same
    instance.  The reference job runs before the first op and after each
    op, before its check; an op's time in reference units is its time over
    the mean of the reference runs on either side of it.  With a tracer,
    every op also runs once untraced next to its traced run (alternating
    which goes first), so that the two timings see the same machine state;
    those untraced runs count as attempted ops.  ``on_round(k)`` runs after
    the k-th round unless the loop stops there.  The output digest covers
    the instances of the first ``min_ops`` ops.
    """
    round_len = len(workload.classes)
    first: dict[int, tuple[bytes, bool]] = {}
    latencies: list[float] = []
    in_refs: list[float] = []
    op_log: list[tuple[int, float, float]] = []
    untraced: list[float] = []
    ops = attempted = failed = 0
    ref_before = reference_s()
    refs = [ref_before]

    def timed(idx: int, op_id) -> tuple[float, float] | None:
        """Run, time and check one op; (seconds, reference units), or None if it failed."""
        nonlocal attempted, failed, ref_before
        inst = pool[idx]
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = workload.op(mods, inst)
            raised = False
        except Exception:
            raised = True
            traceback.print_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        ref_after = reference_s()
        refs.append(ref_after)
        in_ref = (t1 - t0) / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        attempted += 1
        ok = not raised
        if ok:
            data = workload.canonical(result)
            if idx not in first:
                try:
                    first[idx] = (data, workload.check(mods, inst, result))
                except Exception:
                    traceback.print_exc()
                    first[idx] = (data, False)
            ok = first[idx] == (data, True)
        if ok:
            return t1 - t0, in_ref
        failed += 1
        print(f"failed op on {workload.name} instance {idx}", file=sys.stderr)
        return None

    start = time.perf_counter()
    while True:
        idx = ops % len(pool)
        if tracer is None:
            pair = [(latencies, None)]
        else:
            pair = [(latencies, ops), (untraced, None)]
            if ops % 2:
                pair.reverse()
        for sink, op_id in pair:
            timing = timed(idx, op_id)
            if timing is not None:
                sink.append(timing[0])
                if sink is latencies:
                    in_refs.append(timing[1])
                    op_log.append((idx, *timing))
        ops += 1
        if ops == min_ops:
            digest_ops = len(first)
            digest = hashlib.sha256(b"".join(first[i][0] for i in sorted(first))).hexdigest()
        if ops % round_len:
            continue
        if ops >= min_ops and time.perf_counter() - start >= seconds:
            break
        if on_round is not None:
            on_round(ops // round_len)
    return {
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "in_refs": in_refs,
        "op_log": op_log,
        "refs": refs,
        "busy_s": sum(latencies),
        "untraced_s": sum(untraced),
        "digest": digest,
        "digest_ops": digest_ops,
    }


def out_path(name: str) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / name


def write_json(name: str, doc) -> None:
    with open(out_path(name), "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def measure(workload, seed: int, seconds: float, trace: bool, rounds: int, workdir: str):
    gc.collect()
    elapsed, elapsed_ref, mods, pool = set_up(workload, seed, rounds, workdir)
    gc.collect()
    # The first trace_rounds rounds run in every mode: they are the traced
    # pass and the instances that the output digest covers.
    n_checked = min(workload.trace_rounds, rounds) * len(workload.classes)

    if not trace:
        # Set-ups back to back share one stretch of machine speed, so the
        # samples are spread over the checked rounds instead.  Each starts
        # from a collected heap and is discarded; the ops keep the first.
        setup_times, setup_refs = [elapsed], [elapsed_ref]
        probe_dir = os.path.join(workdir, "setup-probe")
        os.mkdir(probe_dir)
        checked_rounds = n_checked // len(workload.classes)
        schedule = [1 + i * checked_rounds // (SETUP_SAMPLES - 1) for i in range(SETUP_SAMPLES - 1)]

        def probe(done_rounds: int) -> None:
            for _ in range(schedule.count(done_rounds)):
                gc.collect()
                wall, in_ref, _, _ = set_up(workload, seed, rounds, probe_dir)
                setup_times.append(wall)
                setup_refs.append(in_ref)
                gc.collect()

        res = run_ops(workload, mods, pool, seconds=seconds, min_ops=n_checked, on_round=probe)
        lat, in_refs = res["latencies"], res["in_refs"]
        if not lat:
            raise SystemExit(f"error: every {workload.name} op failed")
        metrics = {
            "ops_per_kref": 1000 * len(in_refs) / sum(in_refs),
            "op_ref_gmean": math.exp(statistics.fmean(map(math.log, in_refs))),
            "setup_s": REFERENCE_NOMINAL_S * statistics.median(setup_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        write_json(f"ops-{workload.name}-seed{seed}.json", {"columns": ["instance", "seconds", "ref"], "ops": res["op_log"]})
        # Quantiles and wall-clock figures, printed for reading only: the
        # quantiles of a mix of size classes jump between runs of the same code.
        notes = {
            "op_ref_p50": (statistics.median(in_refs), "ref"),
            "op_ref_p90": (p90(in_refs), "ref"),
            "ops_per_s": (len(lat) / res["busy_s"], "1/s"),
            "op_s_p50": (statistics.median(lat), "s"),
            "op_s_p90": (p90(lat), "s"),
            "reference_s": (statistics.median(res["refs"]), "s"),
            "setup_wall_s": (statistics.median(setup_times), "s"),
        }
    else:
        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            res = run_ops(workload, mods, pool, seconds=0, min_ops=n_checked, tracer=tracer)
        finally:
            tracer.uninstall()
        if not res["latencies"] or not res["untraced_s"]:
            raise SystemExit(f"error: every traced {workload.name} op failed")
        notes = {}
        metrics = tracer.summary(res["ops"])
        metrics["trace.overhead_frac"] = res["busy_s"] / res["untraced_s"] - 1
        units = per_layer_units()
        tracer.write(str(out_path(f"spans-{workload.name}-seed{seed}.jsonl")))
        for name in TRACED:
            if metrics[f"{name}.calls"]:
                share = metrics[f"{name}.self_s"] / res["busy_s"]
                print(f"# {name:36s} calls {metrics[f'{name}.calls']:7d}  self {share:6.1%} of op time")

    attempted, failed = res["attempted"], res["failed"]
    print(f"# workload {workload.name} op {workload.op_text}")
    print(f"# seed {seed} ops {res['ops']} latency samples {len(res['latencies'])}")
    print(f"# output_sha256 {res['digest']} over {res['digest_ops']} instances")
    print(f"# failed_frac {failed / attempted} ratio")
    for name, (value, unit) in notes.items():
        print(f"# {name} {value} {unit}")
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None, help="pool size in rounds of size classes (smoke tests use 1)"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    rounds = args.rounds if args.rounds is not None else workload.default_rounds
    if rounds < 1:
        parser.error("--rounds must be at least 1")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
