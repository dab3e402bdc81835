"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py

Checks that every workload emits every metric BENCHMARK.json declares, with
its unit; that a wrong reference error is counted as a failed operation; and
that the benchmark refuses to run, without a result line, when the fracstep
sources are missing. Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from worker import WORK, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return detail, result


def check_metrics(declared):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[group]}
        for workload in WORKLOADS:
            detail, result = result_of(run("--workload", workload, "--size", "tiny", "--trace", str(trace)))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (workload, detail["failures"])
            assert detail["failed_frac"] == 0.0
            print(f"ok  {workload} emits its {group} metrics")


def copy_bench(dest):
    """A fresh copy of the benchmark's files and BENCHMARK.json under dest."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def check_wrong_reference():
    # A copy of the benchmark with one wrong reference error, run on the real sources.
    wrong = WORK / "wrong"
    copy_bench(wrong)
    (wrong / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = wrong / "bench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    key = "mlf_decay a=0.5 (3,3) M=64"
    reference["solve-long"][key] *= 10.0
    path.write_text(json.dumps(reference), encoding="utf-8")
    try:
        detail, result = result_of(run("--workload", "solve-long", "--size", "tiny",
                                       cwd=wrong, script=wrong / "bench" / "run.py"))
    finally:
        shutil.rmtree(wrong)
    assert not result["correct"]
    assert result["failed"] == detail["passes"], result
    assert detail["failed_frac"] == result["failed"] / result["attempted"] > 0.0
    assert all(f.startswith(key) for f in detail["failures"]), detail["failures"]
    print("ok  a wrong reference error counts in failed_frac")


def check_refuses_without_sources():
    bare = WORK / "bare"
    copy_bench(bare)
    try:
        proc = run("--workload", "solve-long", cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the fracstep sources")


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(declared)
    check_wrong_reference()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
