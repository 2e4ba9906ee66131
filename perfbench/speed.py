"""Machine-speed reference for the end-to-end timings.

On a shared machine the same pass can take 1.7x longer when neighbouring
work competes for the core, in phases lasting seconds to minutes. So a run
times a fixed reference kernel before and after each step of a pass and
scales the step's wall time by ``REFERENCE_S`` over the reference time
measured around it. The result reads as seconds on the quiet machine the
benchmark was defined on; the raw wall times are printed beside it.

The kernel mixes the kinds of work morsim does (frozen-dataclass copies,
small complex numpy systems, ``Decimal`` formatting, csv and json text),
so contention slows it as it slows the program. It does not use morsim, so
no change to the program changes it.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from decimal import Context, Decimal

# Median time of ``reference()`` on a quiet 2-core x86-64 VM
# (Python 3.11, numpy 2.4), the unit the corrected timings are expressed in.
REFERENCE_S = 0.018

_TWELVE = Context(prec=12)


@dataclass(frozen=True)
class _Sample:
    x: float
    y: float


def reference() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    import numpy as np

    start = time.perf_counter()
    rhs = np.array([[-1j, 0.0], [0.0, -1j], [0.0, 0.0]], dtype=complex)
    big = np.eye(16, dtype=complex) * 3.0 + 0.1j
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    sample = _Sample(1.0, 2.0)
    records = []
    for i in range(720):
        sample = replace(sample, x=0.25 * i)
        m = np.array([[-(1 + 1j * sample.x), 0.0, 1j],
                      [0.0, -(1 + 0.5j * sample.x), 2j],
                      [1j, 2j, -(2 + 1j * sample.y)]], dtype=complex)
        z = complex(np.linalg.solve(m, rhs)[0, 0])
        if i % 8 == 0:
            big[0, 1] = z
            z += complex(np.linalg.solve(big, big[:, 0])[1])
        writer.writerow([format(_TWELVE.create_decimal(Decimal(v)), "f")
                         for v in (z.real, z.imag, abs(z), sample.x)])
        records.append({"i": i, "re": z.real, "im": z.imag})
    json.dumps(records, indent=2)
    return time.perf_counter() - start
