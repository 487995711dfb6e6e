"""Every script in demos/ runs standalone, as the README says, exits 0 and
prints its locked stdout.

tests/golden/demos/<demo>.txt holds each demo's stdout.  Only demo 07 is
normalized before the comparison: it writes its sample file into a fresh
temporary directory and prints CLI reports whose `ms:` field is wall time.

Regenerate only for an intended change of output, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_demos.py --write
"""
import functools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _normalized(demo: Path, text: str) -> str:
    if not demo.stem.startswith("07_"):
        return text
    text = re.sub(r"\S*[/\\](sample\.kdg)", r"<tmp>/\1", text)
    return re.sub(r"^ms: \d+$", "ms: <ms>", text, flags=re.M)


@functools.cache
def _run(demo: Path) -> subprocess.CompletedProcess:
    """One run of a demo in a fresh working directory, shared by the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_locked_output(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr
    want = (GOLDEN / f"{demo.stem}.txt").read_text()
    assert _normalized(demo, run.stdout) == want


def test_normalization_touches_only_paths_and_timings():
    demo = ROOT / "demos" / "07_module_files_and_cli.py"
    text = "$ koszuldg homology --module /tmp/abc/sample.kdg\nms: 12\nms: x\n"
    assert _normalized(demo, text) == (
        "$ koszuldg homology --module <tmp>/sample.kdg\nms: <ms>\nms: x\n")
    assert _normalized(DEMOS[0], text) == text


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        run = _run(demo)
        if run.returncode:
            sys.exit(f"{demo.name} exited {run.returncode}:\n{run.stderr}")
        (GOLDEN / f"{demo.stem}.txt").write_text(_normalized(demo, run.stdout))
        print("wrote", demo.stem)
