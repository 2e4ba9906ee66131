"""What ``import morsim`` loads, checked in a fresh interpreter.

    python tests/import_graph.py emit|sweep.parse_config

A caller that only solves points (``import morsim, morsim.lindblad`` and one
call each of the two density-matrix routes) loads neither ``morsim.sweep``
nor the ``json``, ``csv`` and ``decimal`` that only the writer needs.  Then
the attribute path given as the argument, read from ``morsim`` with no
import statement, resolves and loads the sweep layer; every name of
``morsim.__all__`` resolves, is listed by ``dir(morsim)`` and is bound by
``from morsim import *``.  The last line printed is the file ``morsim``
was loaded from.  Exits 1 with the first failed check.
"""

import sys
from functools import reduce

import morsim
import morsim.lindblad

SWEEP_LAYER = ("morsim.sweep", "json", "csv", "decimal")


def main(path: str) -> None:
    p = morsim.SystemParams(Omega=5.0, Delta=5.0, G1=20.0, G2=10.0, delta=1.0)
    morsim.probe_response_finite(p, 1e-3)
    morsim.probe_response_perturbative(p)
    loaded = [name for name in SWEEP_LAYER if name in sys.modules]
    assert not loaded, f"solving points loaded {loaded}"

    value = reduce(getattr, path.split("."), morsim)
    assert "morsim.sweep" in sys.modules, f"morsim.{path} did not load morsim.sweep"
    assert value is getattr(sys.modules["morsim.sweep"], path.rsplit(".", 1)[-1]), path

    unresolved = [name for name in morsim.__all__ if not hasattr(morsim, name)]
    assert not unresolved, f"morsim.__all__ names undefined {unresolved}"
    unlisted = set(morsim.__all__) - set(dir(morsim))
    assert not unlisted, f"dir(morsim) lacks {sorted(unlisted)}"
    namespace = {}
    exec("from morsim import *", namespace)
    unbound = [name for name in morsim.__all__
               if namespace.get(name, namespace) is not getattr(morsim, name)]
    assert not unbound, f"from morsim import * did not bind {unbound}"
    print(morsim.__file__)


if __name__ == "__main__":
    try:
        main(sys.argv[1])
    except AssertionError as failed:
        sys.exit(f"import graph: {failed}")
