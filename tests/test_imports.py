"""The import contract: robroc takes scipy's compiled LAPACK module without
importing scipy.linalg, and scipy.special only when a true AUC is asked
for, so that `import robroc.cli` stays cheap.

Each check runs in a fresh interpreter, since this test process has long
since imported both packages.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HEAVY = ("scipy.linalg", "scipy.special", "numpy.f2py", "numpy.testing")

PROBE = """
import importlib.machinery, json, sys
order = sys.argv[1]
if order == "file_absent":
    # no extension file is found, so the loader imports scipy.linalg
    importlib.machinery.EXTENSION_SUFFIXES[:] = []
if order == "scipy_first":
    import scipy.linalg
import robroc.cli
loaded = [name for name in %r if name in sys.modules]
import numpy as np
import scipy.linalg.lapack as lapack
from scipy.special import ndtr
from robroc import huber, model_select, simulate
same = [getattr(huber, name) is getattr(lapack, name) for name in ("dgeqp3", "dorgqr", "dtrtrs")]
same.append(model_select.dpotrs is lapack.dpotrs)
scn = simulate.scenario("III")
X = np.linspace(0.0, 1.0, 7)[:, None]
spread = np.sqrt(scn.scale_d(X) ** 2 + scn.scale_nd(X) ** 2)
auc = np.array_equal(simulate.true_auc(scn, X[:, 0]), ndtr((scn.mean_d(X) - scn.mean_nd(X)) / spread))
print(json.dumps({"loaded": loaded, "same": same, "auc": auc}))
""" % (HEAVY,)


def probe(order: str) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", PROBE, order], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("order", ["robroc_first", "scipy_first", "file_absent"])
def test_cli_import_and_lapack_routines(order):
    got = probe(order)
    if order == "robroc_first":
        assert got["loaded"] == []
    else:
        # imported up front, or by the loader when no extension file is found
        assert "scipy.linalg" in got["loaded"]
    assert got["same"] == [True] * 4
    assert got["auc"]
