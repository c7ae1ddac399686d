"""Vector indexes: exact and approximate nearest-neighbour search.

The paper's pipeline is nearest-neighbour-bound end to end — SDCN's
structural input is a KNN graph, DBSCAN is defined by
epsilon-neighbourhood queries, and serving predicts by distance to stored
points.  This package supplies the standard database answer, an ANN index,
behind one protocol:

* :class:`FlatIndex` — exact blocked scan; recall 1.0, the baseline;
* :class:`IVFPQIndex` — the inverted-file engine: a k-means coarse
  quantizer routes vectors to ``nlist`` cells and a query scans the
  ``nprobe`` nearest.  ``coding="none"`` (backend ``"ivf"``) keeps raw
  float32 cells scored exactly, with a fully vectorised build;
  ``coding="pq"``/``"sq"`` (backend ``"ivfpq"``) keeps quantized codes
  (:class:`ProductQuantizer` / :class:`ScalarQuantizer` from
  :mod:`repro.index.quant`) with exact top-``rerank`` re-scoring — the
  million-vector, larger-than-RAM backend.  Its cells are memory-mapped
  and loaded lazily for every coding.

All backends support cosine and Euclidean metrics, incremental
:meth:`add` for streaming (an attached IVF index copies its cells into
memory first), and round-trip through the versioned
:mod:`repro.serialize` checkpoint format — so indexes persist,
hot-reload and rotate alongside model generations.  Integration points:
``repro.graphs.knn.sparse_knn_graph(..., backend=...)`` for graph
construction, ``DBSCAN(index=...)`` for out-of-sample density queries,
and the serving API's ``POST /models/{name}/neighbors`` / ``POST
/search`` routes for similarity search over tables.
"""

from .base import INDEX_BACKENDS, INDEX_DTYPE, VectorIndex, create_index
from .flat import FlatIndex
from .ivfpq import IVFPQIndex
from .quant import ProductQuantizer, ScalarQuantizer
from .storage import MappedArrays

__all__ = [
    "INDEX_BACKENDS",
    "INDEX_DTYPE",
    "VectorIndex",
    "create_index",
    "FlatIndex",
    "IVFPQIndex",
    "ProductQuantizer",
    "ScalarQuantizer",
    "MappedArrays",
]
