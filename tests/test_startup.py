"""What the package and the CLI import at start-up, checked in fresh interpreters.

Each check runs in a child, because this session has already imported the
package. Children run with `-S` on this process's `sys.path`: they can import
what this process can, but no `.pth` file runs, so none can import zipfile or
tempfile first and hide a module that shardvcs itself loads.
"""

import json
import os
import select
import subprocess
import sys
from pathlib import Path

import shardvcs

SRC = str(Path(shardvcs.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *filter(None, sys.path)])}

# Neither `import shardvcs.cli` nor `serve-middleman` needs any of these.
NOT_AT_START = (
    "cryptography",
    "shardvcs.bench",
    "shardvcs.protocol",
    "shardvcs.envelope",
    "shardvcs.ledger",
    "shardvcs.cas",
    "shardvcs.config",
    "zipfile",
    "statistics",
    "tempfile",
    "dataclasses",
    "inspect",
)


def _unwanted(modules) -> list[str]:
    return sorted(m for m in modules if any(m == n or m.startswith(n + ".") for n in NOT_AT_START))


def _child(code: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_imports_no_submodule():
    out = _child("import sys, shardvcs; print(sorted(m for m in sys.modules if m.startswith('shardvcs.')))")
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_layer_a_command_may_not_use():
    loaded = _child("import sys, shardvcs.cli; print('\\n'.join(sys.modules))").split()
    assert "shardvcs.middleman" in loaded
    assert _unwanted(loaded) == []


def test_pushing_a_file_loads_neither_the_benchmark_nor_zipfile(tmp_path):
    payload = tmp_path / "f.bin"
    payload.write_bytes(b"x")
    code = "import sys; from shardvcs.cli import main; assert main(sys.argv[1:]) == 0; print('\\n'.join(sys.modules))"
    loaded = _child(code, "push", str(payload), "--owner", "alice", "--state-dir", str(tmp_path / "s")).split()
    assert "shardvcs.protocol" in loaded
    assert [m for m in ("shardvcs.bench", "statistics", "tempfile", "zipfile") if m in loaded] == []


def test_serve_middleman_imports_no_unused_layer_before_it_listens():
    child = subprocess.Popen(
        [sys.executable, "-S", "-X", "importtime", "-m", "shardvcs.cli", "serve-middleman", "--port", "0"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([child.stdout], [], [], 30.0)
        line = child.stdout.readline() if ready else ""
    finally:
        child.terminate()
        _, err = child.communicate(timeout=10)
        child.stdout.close()
    assert "listening on" in line, err
    imported = [row.rsplit("|", 1)[1].strip() for row in err.splitlines() if row.startswith("import time:")]
    assert "shardvcs.middleman" in imported
    assert _unwanted(imported) == []


def test_every_export_loads_on_first_access_from_its_own_module():
    code = """
import json, sys
import shardvcs
listed = set(dir(shardvcs))
shardvcs.Share
after_share = sorted(m for m in sys.modules if m.startswith("shardvcs."))
unresolved = [name for name in shardvcs.__all__ if getattr(shardvcs, name, None) is None]
try:
    shardvcs.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
from shardvcs import cas, envelope, protocol
print(json.dumps({
    "unlisted": sorted(set(shardvcs.__all__) - listed),
    "after_share": after_share,
    "unresolved": unresolved,
    "unknown": unknown,
    "modules": [cas.__name__, envelope.__name__, protocol.__name__],
}))
"""
    got = json.loads(_child(code))
    assert got["unlisted"] == []
    assert got["after_share"] == ["shardvcs.sss"]
    assert got["unresolved"] == []
    assert got["unknown"] == "module 'shardvcs' has no attribute 'no_such_name'"
    assert got["modules"] == ["shardvcs.cas", "shardvcs.envelope", "shardvcs.protocol"]


def test_startup_time_script_reports_the_service_the_floor_and_the_machine():
    script = Path(__file__).resolve().parents[1] / "scripts" / "startup_time.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--spawns", "2", SRC], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(": median ")[0] for line in lines[:2]] == [SRC, "python -c pass"]
    assert all(line.endswith("(2 spawns)") for line in lines[:2])
    assert lines[2].startswith("# machine: nproc=") and "bytecode_cache=" in lines[2]
