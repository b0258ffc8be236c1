from .testfuncs import gramacy1d, sine_linear, sun5d
from .results import ExperimentResult, write_result_files
from .tables import run_table1, run_table2
from .example1 import run_example1
from .example2 import run_example2

__all__ = [
    "gramacy1d",
    "sine_linear",
    "sun5d",
    "ExperimentResult",
    "write_result_files",
    "run_table1",
    "run_table2",
    "run_example1",
    "run_example2",
]
