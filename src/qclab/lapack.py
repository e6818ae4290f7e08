"""The four LAPACK routines qclab calls, from scipy's compiled bindings.

dstebz/dstein give the tridiagonal eigenpairs and zgttrf/zgttrs the
Crank-Nicolson solves.  They come from scipy's `_flapack` extension,
loaded from its file without running `scipy/linalg/__init__.py`.  That
package import costs ~0.34 s and ~26 MB of peak RSS (its array-API layer
pulls in numpy.f2py, numpy.testing, numpy.ma, numpy.random and
numpy.polynomial), against ~0.02 s and ~3 MB for this module (2-vCPU
Xeon VM, scipy 1.17.1), and qclab needs none of it.  `import scipy` runs
first, for scipy's own platform set-up.  The extension is left out of sys.modules, and a later
`import scipy.linalg` hands out the same routine objects.

Import this module inside the functions that solve, so that runs which
never solve load no scipy.
"""
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)  # already loaded by scipy.linalg itself
if _flapack is None:
    _directory = str(Path(scipy.__path__[0]) / "linalg")
    _spec = FileFinder(_directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        _NAME
    )
    if _spec is None:
        raise ImportError(f"scipy's LAPACK bindings (_flapack) not found in {_directory}")
    _flapack = module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)
    # CPython registers a single-phase extension module as it creates it;
    # a child without its package in sys.modules would confuse a later
    # `import scipy.linalg._flapack`, which then gets a copy of this one
    sys.modules.pop(_NAME, None)

dstebz = _flapack.dstebz
dstein = _flapack.dstein
zgttrf = _flapack.zgttrf
zgttrs = _flapack.zgttrs
