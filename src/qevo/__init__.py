"""Evolutionary training of qubit-phase neural networks for time-series forecasting.

The package covers the full pipeline: raw trace parsing and interval
aggregation (`trace_io`), normalization and sliding-window dataset
construction (`dataset`), the variable-architecture qubit network
(`network`), the self-adaptive evolutionary trainer (`evolve`), error
metrics (`metrics`), a command-line front end (`cli`), and `testkit`, which
holds only the independent references the tests compare against.
"""

__version__ = "0.1.0"
