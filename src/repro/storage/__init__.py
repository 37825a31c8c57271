"""Persistence: GraphQL-syntax serialization, the durable store (one
log file of logical records) and the database facade."""

from .database import GraphDatabase
from .faults import CrashPoint, FaultStats, FaultyLog, SimulatedCrash
from .graphstore import GraphStore
from .serializer import (
    collection_from_text,
    collection_to_text,
    graph_from_text,
    graph_to_text,
    load_collection,
    load_graph,
    save_collection,
    save_graph,
)
from .wal import (
    FSYNC_COMMIT,
    FSYNC_NEVER,
    ChecksumError,
    RecoveryResult,
    StorageError,
    TransientIOError,
    WriteAheadLog,
)

__all__ = [
    "ChecksumError",
    "CrashPoint",
    "FSYNC_COMMIT",
    "FSYNC_NEVER",
    "FaultStats",
    "FaultyLog",
    "GraphDatabase",
    "GraphStore",
    "RecoveryResult",
    "SimulatedCrash",
    "StorageError",
    "TransientIOError",
    "WriteAheadLog",
    "collection_from_text",
    "collection_to_text",
    "graph_from_text",
    "graph_to_text",
    "load_collection",
    "load_graph",
    "save_collection",
    "save_graph",
]
