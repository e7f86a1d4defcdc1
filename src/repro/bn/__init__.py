"""Bayesian networks and their conversion prerequisites.

Provides the directed graphical model (:class:`BayesianNetwork`), random
network generators for synthetic workloads, and the structural steps used to
turn a network into a junction tree: moralization and triangulation.
"""

from repro.bn.network import BayesianNetwork
from repro.bn.generation import random_network, chain_network, naive_bayes_network
from repro.bn.moralization import moralize
from repro.bn.triangulation import triangulate, elimination_cliques
from repro.bn.cpd import (
    deterministic_cpd,
    noisy_or_cpd,
    tabular_cpd,
    uniform_cpd,
)
from repro.bn.dbn import DynamicBayesianNetwork, make_hmm

__all__ = [
    "BayesianNetwork",
    "random_network",
    "chain_network",
    "naive_bayes_network",
    "moralize",
    "triangulate",
    "elimination_cliques",
    "uniform_cpd",
    "tabular_cpd",
    "deterministic_cpd",
    "noisy_or_cpd",
    "DynamicBayesianNetwork",
    "make_hmm",
]
