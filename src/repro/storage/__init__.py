"""Massive-data substrate: binary codec, chunked datasets and catalogs."""

from repro.storage.catalog import DatasetCatalog
from repro.storage.codec import (
    CHUNK_HEADER_SIZE,
    CodecError,
    ReadingChunk,
    decode_chunk,
    encode_chunk,
)
from repro.storage.dataset import CPSDataset, CPSDatasetWriter, DatasetMeta, IOStats
from repro.storage.forest_io import load_cube, load_forest, save_cube, save_forest
from repro.storage.serialize import (
    clusters_size_bytes,
    decode_cluster,
    decode_clusters,
    encode_cluster,
    encode_clusters,
)

__all__ = [
    "DatasetCatalog",
    "CHUNK_HEADER_SIZE",
    "CodecError",
    "ReadingChunk",
    "decode_chunk",
    "encode_chunk",
    "CPSDataset",
    "CPSDatasetWriter",
    "load_cube",
    "load_forest",
    "save_cube",
    "save_forest",
    "DatasetMeta",
    "IOStats",
    "clusters_size_bytes",
    "decode_cluster",
    "decode_clusters",
    "encode_cluster",
    "encode_clusters",
]
