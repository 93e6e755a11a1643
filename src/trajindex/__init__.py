"""Compressed in-memory index for trajectories of objects on a grid.

Periodic snapshots (k2-trees with an id permutation) give absolute
positions; grammar-compressed movement logs connect them, with enough
metadata per rule to jump over whole subsequences during queries.
"""

from .engine import IndexParams, TrajectoryIndex
from .ingest import Records, normalize, parse_binary, parse_csv
from .oracle import Oracle

__version__ = "0.1.0"

__all__ = [
    "IndexParams",
    "Oracle",
    "Records",
    "TrajectoryIndex",
    "normalize",
    "parse_binary",
    "parse_csv",
    "__version__",
]
