"""The checker trusts only `arith`: its import graph is pinned here, so a
producer module cannot slip into what `check()` relies on."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nonelliptic
import nonelliptic.certify
import nonelliptic.checker
from conftest import imports_outside_stdlib

SRC = Path(nonelliptic.__file__).resolve().parent


def test_importing_the_checker_loads_only_arith():
    code = ("import json, sys, nonelliptic.checker\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'nonelliptic']\n"
            "print(json.dumps(sorted(loaded)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert json.loads(proc.stdout) == ["nonelliptic", "nonelliptic.arith",
                                       "nonelliptic.checker"], proc.stderr


def test_checker_source_imports_only_the_stdlib_and_arith():
    assert imports_outside_stdlib(SRC / "checker.py") == {".arith"}


def test_certify_reexports_the_checker():
    # the benchmark's gate calls certify.Certificate.from_dict and certify.check
    assert nonelliptic.certify.check is nonelliptic.checker.check
    assert nonelliptic.certify.Certificate is nonelliptic.checker.Certificate
