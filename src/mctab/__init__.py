"""Connection-tableau theorem proving with MCTS search and learned guidance."""

__version__ = "0.1.0"

from .checker import check_proof_texts
from .config import Config, load_config
from .guidance import DefaultGuidance, ModelGuidance
from .loop import run_loop, solve_one
from .mcts import extract_training_data, search_problem
from .problems import parse_problem

__all__ = [
    "Config",
    "DefaultGuidance",
    "ModelGuidance",
    "check_proof_texts",
    "extract_training_data",
    "load_config",
    "parse_problem",
    "run_loop",
    "search_problem",
    "solve_one",
]
