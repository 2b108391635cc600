"""One fresh-process set-up, timed: import, pack, build the solver or gateway.

Run by ``run.py`` as ``python3 setup_probe.py <src> <cohort.npz> <spec-json>``.
Loading the cohort file is not timed.  Prints the set-up seconds as JSON.
"""

import time

t_import = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import repro  # noqa: E402,F401
from repro.bitmatrix.matrix import BitMatrix  # noqa: E402

spec = json.loads(sys.argv[3])
if spec["kind"] == "gateway":
    from repro.service.http import Gateway  # noqa: E402
else:
    from repro.core.solver import MultiHitSolver  # noqa: E402
import numpy as np  # noqa: E402

imported = time.perf_counter() - t_import

with np.load(sys.argv[2]) as data:
    tumor, normal = data["tumor"], data["normal"]

t_build = time.perf_counter()
packed = (BitMatrix.from_dense(tumor), BitMatrix.from_dense(normal))
if spec["kind"] == "gateway":
    gateway = Gateway(spec["state_dir"]).start()
    built = time.perf_counter() - t_build
    gateway.stop()
else:
    solver = MultiHitSolver(**spec["solver"])
    built = time.perf_counter() - t_build

print(json.dumps({"setup_s": imported + built}))
