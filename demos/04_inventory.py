"""The tone/break-index inventory and its two-way parameter mapping.

Every contour row pairs a symbolic label with the analogical synthesizer
parameters it compiles to; every break index pairs with a (silence, reset)
realization.  Both directions are exercised below, including the
diagnostic placeholder for third-party markup with unknown tuples.
"""

from prosomark.emit import (DEFAULT_TABLE, bi_to_params, params_to_tobi,
                            tone_to_params)
from prosomark.prosody import BI_REALIZATION, ev

print("=== break indices")
for bi, (silence, reset) in BI_REALIZATION.items():
    events = " ".join(e.markup for e in bi_to_params(bi))
    print(f"  {bi.label:<6} {events}")

print("\n=== tone rows (label -> parameters -> label)")
for row in DEFAULT_TABLE.rows:
    labels = " ".join(c.label for c in row.contours)
    rendered = " ".join(e.markup for e in row.flat_params())
    back = params_to_tobi(row.flat_params())
    ok = back == [(labels, row.bi.label if row.bi else None)]
    print(f"  {labels:<18} {rendered}")
    assert ok, row.row_id
print("all rows invert exactly")

print("\n=== inspecting third-party markup")
stream = [ev(pbas=54.0, rate=170, volm=+0.3),   # a known tuple
          ev(pbas=12.3, rate=999, volm=+9.9),   # an unknown one
          ev(slnc=400)]                          # a bare title break
for labels, bi in params_to_tobi(stream):
    print(f"  contour={labels or '-':<8} break={bi or '-'}")
