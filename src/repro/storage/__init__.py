"""Persistence: GraphQL-syntax serialization and the database facade."""

from .database import GraphDatabase
from .faults import CrashPoint, FaultStats, FaultyPageFile, SimulatedCrash
from .graphstore import GraphStore
from .pager import (
    PAGE_SIZE,
    ChecksumError,
    PageFile,
    RecordFile,
    SlottedPage,
    StorageError,
    TransientIOError,
)
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
    FSYNC_ALWAYS,
    FSYNC_COMMIT,
    FSYNC_NEVER,
    RecoveryResult,
    WriteAheadLog,
    recover,
    scan_wal,
    wal_path_for,
)

__all__ = [
    "ChecksumError",
    "CrashPoint",
    "FSYNC_ALWAYS",
    "FSYNC_COMMIT",
    "FSYNC_NEVER",
    "FaultStats",
    "FaultyPageFile",
    "GraphDatabase",
    "GraphStore",
    "PAGE_SIZE",
    "PageFile",
    "RecordFile",
    "RecoveryResult",
    "SimulatedCrash",
    "SlottedPage",
    "StorageError",
    "TransientIOError",
    "WriteAheadLog",
    "collection_from_text",
    "collection_to_text",
    "graph_from_text",
    "graph_to_text",
    "load_collection",
    "load_graph",
    "recover",
    "save_collection",
    "save_graph",
    "scan_wal",
    "wal_path_for",
]
