"""The correlation engines every equivalence test compares.

``naive`` is the per-position oracle; ``batched`` is the production
engine with its automatic matmul/FFT choice, and ``fft`` / ``matmul``
are the same engine with each arithmetic path forced.
"""

import sys

from repro.dsss.engine import BatchedCorrelationEngine
from repro.oracles import NaiveCorrelationEngine

ENGINES = {
    "naive": NaiveCorrelationEngine,
    "batched": BatchedCorrelationEngine,
    "fft": lambda codes: BatchedCorrelationEngine(codes, fft_min_length=1),
    "matmul": lambda codes: BatchedCorrelationEngine(
        codes, fft_min_length=sys.maxsize
    ),
}
