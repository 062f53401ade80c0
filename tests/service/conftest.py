"""Shared fixtures for the service-layer suite."""

import pytest

from repro.engine.config import make_system
from repro.graph.datasets import build_graph

SCALE = 2.0 ** -16


@pytest.fixture()
def service_graph():
    return build_graph("twitter", SCALE, seed=1)


@pytest.fixture()
def make_service(service_graph):
    """Factory: a fresh durable system + service over the shared graph."""

    def build(quotas=None, crashes=None, faults=None, workers=1,
              mode="sortreduce", config=None):
        system = make_system("grafboost", SCALE,
                             num_vertices_hint=service_graph.num_vertices,
                             durable=True, crashes=crashes, faults=faults,
                             workers=workers, mode=mode)
        flash_graph = system.load_graph(service_graph)
        return system.service_for(flash_graph, service_graph.num_vertices,
                                  config=config, quotas=quotas)

    return build
