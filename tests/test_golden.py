import json
import os
import subprocess
import sys
from pathlib import Path

import golden_outputs
from tomcat import cli


def test_outputs_are_the_golden_bytes():
    # the whole sequence in one child process started at two BLAS threads:
    # train and each encode group run on one thread, and every other output
    # byte must not depend on the count
    want = json.loads(golden_outputs.GOLDEN.read_text(encoding="utf-8"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, golden_outputs.__file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["build"] == want["build"], (
        f"the golden outputs were recorded with numpy {want['build']['numpy']} and "
        f"{want['build']['blas']}, this is numpy {got['build']['numpy']} and "
        f"{got['build']['blas']}: re-base them with 'golden_outputs.py --write' if "
        "this build is the one to hold")
    moved = sorted(name for name, digest in want["outputs"].items()
                   if got["outputs"].get(name) != digest)
    assert moved == [], f"outputs that differ from the golden ones: {moved}"
