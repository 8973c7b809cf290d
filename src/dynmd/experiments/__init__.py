from .config import parse_bool, parse_config, parse_floats, parse_trajectory
from .runner import (
    RunEvaluation,
    ScenarioResult,
    evaluate_run,
    read_losses_csv,
    run_scenario,
    write_agents_csv,
    write_losses_csv,
    write_meta,
    write_regret_csv,
    write_weights_csv,
)
from .video import STAY, VideoData, VideoScenario, generate_video
from .votes import VoteStream, load_votes, save_votes, synthetic_votes

__all__ = [
    "RunEvaluation",
    "STAY",
    "ScenarioResult",
    "VideoData",
    "VideoScenario",
    "VoteStream",
    "evaluate_run",
    "generate_video",
    "load_votes",
    "parse_bool",
    "parse_config",
    "parse_floats",
    "parse_trajectory",
    "read_losses_csv",
    "run_scenario",
    "save_votes",
    "synthetic_votes",
    "write_agents_csv",
    "write_losses_csv",
    "write_meta",
    "write_regret_csv",
    "write_weights_csv",
]
