"""Tiny-size smoke test of the benchmark: run with ``python3 -m pytest perfbench -q``.

Each workload runs one round of its pool untraced and traced.  The test
checks that every metric named in BENCHMARK.json is printed with its unit,
that no op fails, that the two same-seed runs print equal output digests,
and that the predicted zero call counts hold.  It also checks that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]

# Calls that each workload must never make: an LP-only change cannot move
# verify-circulation, and an enumeration change cannot move the other two.
PREDICTED_ZERO = {
    "ocnp-circulation": ["circuits.enumerate_circuits.calls"],
    "verify-circulation": ["lp.solve_lp.calls", "lp.verify_unique.calls"],
    "augment-dense": ["circuits.enumerate_circuits.calls", "lp.verify_unique.calls"],
}
# Calls that show each workload exercises the layer it was chosen for.
PREDICTED_NONZERO = {
    "ocnp-circulation": ["lp.verify_unique.calls", "cli.main.calls", "polyhedron.parse_instance_text.calls"],
    "verify-circulation": ["circuits.enumerate_circuits.calls", "ratlin.kernel_basis.calls"],
    "augment-dense": ["lp.solve_lp.calls", "conformal.decompose.calls", "ddstep.augment.steps"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*COMMAND, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--rounds", "1"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def printed(lines: list[str]) -> dict[str, tuple[str, str]]:
    """The '# name value unit' summary lines as name -> (value, unit)."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#":
            out[parts[1]] = (parts[2], parts[3])
    return out


def digest(lines: list[str]) -> str:
    return next(line.split()[2] for line in lines if line.startswith("# output_sha256"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    results = {}
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_bench(workload, trace)
        assert code == 0
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        shown = printed(lines)
        assert shown["failed_frac"] == ("0.0", "ratio")
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert shown[name][1] == unit
            assert float(shown[name][0]) == result["metrics"][name]["value"]
        results[trace] = (result, digest(lines))

    # One pool round is both the untraced pass and the traced pass here.
    assert results[0][1] == results[1][1]
    layer = results[1][0]["metrics"]
    for name in PREDICTED_ZERO[workload]:
        assert layer[name]["value"] == 0, name
    for name in PREDICTED_NONZERO[workload]:
        assert layer[name]["value"] > 0, name


def test_refuses_without_sources():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert code != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare)
