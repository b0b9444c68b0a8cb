"""Direct speech, point of view, and downstepped continuations.

The fox flatters the crow across three sentences inside one quotation.
With point-of-view tracking on, the continuation sentences chain onto the
opening exclamative with downstepped contours (H-!H*-1); with tracking
off, those chains disappear.  Compare the two annotation outputs below.
"""

from prosomark import Config, render_tobi, run_pipeline
from prosomark.lexica import data_path

FIXTURES = data_path("fixtures")
text = (FIXTURES / "fox_crow.txt").read_text(encoding="utf-8")
sidecar = (FIXTURES / "fox_crow.ann").read_text(encoding="utf-8")

cfg = Config().load_lexica()
with_pov = run_pipeline(text, sidecar, cfg)

span = with_pov.pov_spans[0]
print(f"direct speech over sentences {span.sentences[0]}..{span.sentences[-1]}")

print("\n=== with point-of-view tracking (downstep chain)")
print(render_tobi(with_pov.doc, with_pov.script))

cfg_off = Config().load_lexica()
cfg_off.pov_tracking = False
without = run_pipeline(text, sidecar, cfg_off)

print("=== without point-of-view tracking (no downstep)")
print(render_tobi(without.doc, without.script))

print("note the missing 'BI-2 H-!H*-1' after '!' and after 'exquisite BI-2 .'")
