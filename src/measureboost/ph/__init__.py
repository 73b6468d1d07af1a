from .complexes import FilteredComplex, cech_filtration, rips_filtration
from .persistence import persistence, betti_oracle
from .diagrams import (
    PersistenceDiagram,
    diagram_to_measure,
    save_diagrams_jsonl,
    load_diagrams_jsonl,
)
from .bottleneck import bottleneck, bottleneck_bruteforce

__all__ = [
    "FilteredComplex",
    "cech_filtration",
    "rips_filtration",
    "persistence",
    "betti_oracle",
    "PersistenceDiagram",
    "diagram_to_measure",
    "save_diagrams_jsonl",
    "load_diagrams_jsonl",
    "bottleneck",
    "bottleneck_bruteforce",
]
