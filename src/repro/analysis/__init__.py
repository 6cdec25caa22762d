"""Analysis: paper reference data, table rendering, reproduction drivers.

``repro.analysis.paperdata`` transcribes every number the paper
publishes; ``repro.analysis.report`` re-runs each experiment and prints
it next to the published value (EXPERIMENTS.md is its output);
``repro.analysis.claims`` is the ledger of what the repo asserts about
those numbers (imported on demand — only ``python -m repro claims``
pays for declaring it), and :func:`fidelity` scores their distance from
the paper's.
"""

from .paperdata import (BROWSER_TABLES, CONTENT_NUMBERS, MODEM_TABLE,
                        PROTOCOL_TABLES, PaperCell, TABLE3, Table3Row)
from .report import (generate_experiments_report,
                     reproduce_browser_table, reproduce_content_experiments,
                     reproduce_future_work, reproduce_modem_experiment,
                     reproduce_protocol_table, reproduce_robustness,
                     reproduce_table3, TABLE_NUMBERS)
from .tables import (ComparisonRow, Fidelity, fidelity,
                     format_comparison_table, format_simple_table, ratio)

__all__ = [
    "BROWSER_TABLES", "CONTENT_NUMBERS", "MODEM_TABLE", "PROTOCOL_TABLES",
    "PaperCell", "TABLE3", "Table3Row",
    "generate_experiments_report", "reproduce_browser_table",
    "reproduce_content_experiments", "reproduce_future_work",
    "reproduce_modem_experiment",
    "reproduce_protocol_table", "reproduce_robustness",
    "reproduce_table3", "TABLE_NUMBERS",
    "ComparisonRow", "Fidelity", "fidelity", "format_comparison_table",
    "format_simple_table", "ratio",
]
