"""Junction trees: structure, construction, synthetic generation, rerooting."""

from repro.jt.junction_tree import Clique, JunctionTree
from repro.jt.build import junction_tree_from_network
from repro.jt.generation import (
    parameter_sweep_tree,
    synthetic_tree,
    template_tree,
)
from repro.jt.rerooting import (
    clique_cost,
    critical_path_weight,
    reroot,
    select_root,
    select_root_bruteforce,
)
from repro.jt.validate import check_running_intersection, check_tree_structure
from repro.jt.calibration import check_calibrated, separator_disagreements

__all__ = [
    "check_calibrated",
    "separator_disagreements",
    "Clique",
    "JunctionTree",
    "junction_tree_from_network",
    "template_tree",
    "synthetic_tree",
    "parameter_sweep_tree",
    "clique_cost",
    "critical_path_weight",
    "select_root",
    "select_root_bruteforce",
    "reroot",
    "check_running_intersection",
    "check_tree_structure",
]
