"""Index structures: attribute, profile and path-feature stores."""

from .attribute_index import AttributeIndexSet
from .path_index import (
    PathIndex,
    PathIndexStats,
    enumerate_label_paths,
    pattern_features,
)
from .profile_index import ProfileIndex

__all__ = [
    "AttributeIndexSet",
    "PathIndex",
    "PathIndexStats",
    "enumerate_label_paths",
    "pattern_features",
    "ProfileIndex",
]
