"""prosomark: expressive prosodic markup from plain English text.

Compiles text (optionally with a clause-level annotation sidecar) into
embedded speech-command markup for a synthesizer and a parallel symbolic
annotation in an extended tone-and-break-index inventory.
"""

from .annotations import (AnnotationSet, ClauseFeatures, DiscourseNode,
                          TopicRecord, TopicStack, classify_relevance,
                          derive_moves, parse_sidecar, render_sidecar,
                          shallow_analyze, update_topic_stack)
from .config import Config, parse_config_file
from .emit import (ProsodicScript, params_to_tobi, render_markup, render_tobi,
                   tone_to_params)
from .ingest import (Document, Sentence, Token, classify_comma, split_document,
                     tokenize)
from .phrasing import BreathGroup, classify_junction, render_groups, segment
from .pipeline import PipelineResult, ProsodyManager, run_pipeline
from .prosody import (DEFAULT_TABLE, BreakIndex, MappingTable, ParamEvent,
                      ToneContour, match_frozen, select_tone,
                      track_point_of_view)

__version__ = "0.1.0"
