"""Builders for the pathological planar continua, one snapshot per stage."""

from .examples import basic_dendrite, cantor_fan, harmonic_comb
from .dendrite import build_dendrite_d, cut_ball, rising_width, sample_path_d
from .trees import (
    PlottedTreePresentation,
    RecoveredTree,
    build_dendrite_h,
    fat_tree,
    h_cut_box,
    placed_fat_tree,
    plot_point,
    plotted_tree,
    probe_balls,
    recover_tree,
)
from .comb import build_dendroid_k, comb_center, comb_cut_box, comb_width, rising_scale
from .regions import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    Direction,
    delta_cube,
    n_coefficients,
    normalize_level,
    v_region,
)
from .fanq import (
    BlockGraph,
    BlockRecord,
    DestinationTrack,
    build_cantor_fan_q,
    check_touch,
)

__all__ = [
    "basic_dendrite",
    "harmonic_comb",
    "cantor_fan",
    "build_dendrite_d",
    "sample_path_d",
    "rising_width",
    "cut_ball",
    "plot_point",
    "plotted_tree",
    "probe_balls",
    "recover_tree",
    "RecoveredTree",
    "PlottedTreePresentation",
    "fat_tree",
    "placed_fat_tree",
    "build_dendrite_h",
    "h_cut_box",
    "build_dendroid_k",
    "comb_center",
    "comb_width",
    "comb_cut_box",
    "rising_scale",
    "Direction",
    "LEFT",
    "RIGHT",
    "DOWN",
    "UP",
    "delta_cube",
    "v_region",
    "normalize_level",
    "n_coefficients",
    "DestinationTrack",
    "BlockRecord",
    "BlockGraph",
    "build_cantor_fan_q",
    "check_touch",
]
