"""Connection-tableau theorem proving with MCTS search and learned guidance."""

import sys

__version__ = "0.1.0"

# term structures nest one stack frame per level; deep chains (path limits up
# to 1000) need more headroom than the interpreter default
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

from .checker import check_proof_texts  # noqa: E402
from .config import Config, load_config  # noqa: E402
from .guidance import DefaultGuidance, ModelGuidance  # noqa: E402
from .loop import run_iteration, run_loop, solve_one  # noqa: E402
from .mcts import extract_training_data, search_problem  # noqa: E402
from .problems import parse_problem  # noqa: E402

__all__ = [
    "Config",
    "DefaultGuidance",
    "ModelGuidance",
    "check_proof_texts",
    "extract_training_data",
    "load_config",
    "parse_problem",
    "run_iteration",
    "run_loop",
    "search_problem",
    "solve_one",
]
