"""repro.obs — unified observability: spans, metrics, traces, forensics.

The runtime's four counting surfaces (serving SLO windows, allocator
stats, tensor-cache counters, the simulated device timeline) grew up
separately; this package is the layer that reads them as one story:

* :mod:`repro.obs.trace` — spans.  One serving request (or one engine
  iteration) is one tree of timed :class:`Span` s with a shared trace
  id, recorded in the one bounded event log of
  :mod:`repro.check.instrument` and armed with its ``span`` category
  (``REPRO_TRACE=span`` / ``instrument.capture("span")``; one global
  load + ``is None`` per hook when disarmed).
* :mod:`repro.obs.export` — the Chrome trace-event exporter: wall-clock
  spans merged with the *simulated* device timeline streams into one
  Perfetto-loadable ``trace.json``, plus the schema validator the
  obs-smoke CI job gates on (span nesting, one root per offered
  request, completed+failed+shed partition the roots).
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` (counter /
  gauge / histogram / probe) with a JSON-lines exporter and one
  renderer; the CLI registers probes over the serving, allocator,
  cache and timeline stats for ``--metrics-out``.
* :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  recent events dumped automatically on request failure, shed burst,
  ``parallel_run`` timeout, or a stuck worker.
"""

from repro.obs.export import (
    build_chrome_trace,
    export_chrome_trace,
    validate_trace,
    validate_trace_file,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import RECORDER, FlightRecorder
from repro.obs.trace import Span

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RECORDER",
    "Span",
    "build_chrome_trace",
    "export_chrome_trace",
    "validate_trace",
    "validate_trace_file",
]
