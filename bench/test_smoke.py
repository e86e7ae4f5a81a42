"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest bench/test_smoke.py -q

Checks that each run ends with a result line of the documented shape, that
every metric named in BENCHMARK.json is emitted with its unit, and that the
result checks pass. The query workload's failed calls are the known
``qratio --mod`` exit-code defect, so only their kind is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("error_rate ") for line in lines)
    if trace:
        # The split the workloads are chosen for.
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert (values["intpoly.mul.large_calls"] > 0) == (workload == "apery")
        assert (values["cli.main.calls"] > 0) == (workload == "query")
    if workload == "query":
        failures = [line for line in lines if line.startswith("failed x")]
        assert all("cli.qratio.mod: ContractBreach: exit 2, expected 1" in f for f in failures)
    else:
        assert result["failed"] == 0, lines


def test_references_agree_with_the_library():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from qlucas.intpoly import cyclotomic

    import workloads

    for b in range(1, 121):
        assert workloads._cyclotomic_ref(b) == cyclotomic(b).to_strings()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
