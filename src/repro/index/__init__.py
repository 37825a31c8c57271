"""Index structures: attribute and profile stores, label-path features."""

from .attribute_index import AttributeIndexSet
from .path_index import enumerate_label_paths, pattern_features
from .profile_index import ProfileIndex

__all__ = [
    "AttributeIndexSet",
    "enumerate_label_paths",
    "pattern_features",
    "ProfileIndex",
]
