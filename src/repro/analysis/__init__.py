"""Analysis: paper reference data, table rendering, reproduction drivers.

``repro.analysis.paperdata`` transcribes every number the paper
publishes; ``repro.analysis.report`` re-runs each experiment and prints
it next to the published value.  The benchmark suite and EXPERIMENTS.md
are thin wrappers over this package.
"""

from .paperdata import (BROWSER_TABLES, CONTENT_NUMBERS, MODEM_TABLE,
                        PROTOCOL_TABLES, PaperCell, TABLE3, Table3Row)
from .report import (generate_experiments_report,
                     reproduce_browser_table, reproduce_content_experiments,
                     reproduce_future_work, reproduce_modem_experiment,
                     reproduce_protocol_table, reproduce_robustness,
                     reproduce_table3, TABLE_NUMBERS)
from .tables import (ComparisonRow, format_comparison_table,
                     format_simple_table, ratio)

__all__ = [
    "BROWSER_TABLES", "CONTENT_NUMBERS", "MODEM_TABLE", "PROTOCOL_TABLES",
    "PaperCell", "TABLE3", "Table3Row",
    "generate_experiments_report", "reproduce_browser_table",
    "reproduce_content_experiments", "reproduce_future_work",
    "reproduce_modem_experiment",
    "reproduce_protocol_table", "reproduce_robustness",
    "reproduce_table3", "TABLE_NUMBERS",
    "ComparisonRow", "format_comparison_table", "format_simple_table",
    "ratio",
]
