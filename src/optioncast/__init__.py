"""Option forecasting research toolkit.

Modules:

- ``market_data``: quote CSV ingestion, seeded GBM synthetic series, the
  13-feature classifier windows, and their split and z-scoring.
- ``bs_core``: closed-form European call pricing.
- ``qrm``: quasi-reversibility extrapolation of tomorrow's option price.
- ``lstm``: from-scratch two-layer LSTM direction classifier with exact BPTT.
- ``fusion``: confusion metrics, the joint precision of independent
  classifiers and the unanimous-vote correlation diagnostic.
- ``trading``: the EST-versus-ask threshold strategy and its bid/ask backtest.
- ``binomial``: binomial wealth projection, martingale check, and Wald
  log-expectation.
- ``cli``: the ``optioncast`` command.
"""

__version__ = "0.1.0"
