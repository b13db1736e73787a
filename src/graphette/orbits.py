"""Node orbits of graphettes and their numbering across a catalog.

Two nodes of a graphette share an orbit when some automorphism maps one onto
the other.  A table build reads each canonical's orbit labels off the
relabelings its own sweep finds (canon.build_canonical_map), as the minimum
node index of each orbit, and keeps them in catalog.orbit_labels; this
module numbers those orbits consecutively across the catalog
(``assign_global_orbit_ids``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import CanonicalCatalog


@dataclass(frozen=True)
class GlobalOrbitIndex:
    """Consecutive orbit numbering across a whole catalog.

    The global id of a node's orbit is bases[canonical_id] plus the rank of
    its local label among that canonical's sorted labels; node_ids[c, u]
    holds that id for node u of canonical c, so a decode is one gather.
    """

    k: int
    bases: np.ndarray
    total_orbits: int
    node_ids: np.ndarray


def assign_global_orbit_ids(catalog: CanonicalCatalog) -> GlobalOrbitIndex:
    """Number all orbits across the catalog consecutively.

    Canonicals are numbered in id order, and within one canonical each orbit
    by its label's rank among the row's distinct labels (minimum node index).
    """
    labels = catalog.orbit_labels
    if labels.shape != (len(catalog), catalog.k):
        raise ValueError(f"orbit labels {labels.shape} do not fit {len(catalog)} canonicals")
    order = np.argsort(labels, axis=1, kind="stable")
    ordered = np.take_along_axis(labels, order, axis=1)
    first = np.ones(labels.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    counts = first.sum(axis=1)
    bases = np.cumsum(counts) - counts
    node_ids = np.empty(labels.shape, dtype=np.int64)
    np.put_along_axis(node_ids, order, bases[:, None] + np.cumsum(first, axis=1) - 1, axis=1)
    return GlobalOrbitIndex(catalog.k, bases, int(counts.sum()), node_ids)
