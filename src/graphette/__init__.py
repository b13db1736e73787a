"""Constant-time graphette and orbit identification via canonical lookup tables."""

from .canon import (
    CanonicalCatalog,
    LookupTable,
    build_canonical_map,
)
from .core import (
    Graphette,
    HostGraph,
    Permutation,
    apply_permutation,
    bit_length,
    decode,
    edge_bit,
    encode,
    induced_bits,
    is_connected,
)
from .orbits import (
    GlobalOrbitIndex,
    assign_global_orbit_ids,
)
from .sampler import (
    GraphetteReport,
    SampleAccumulator,
    SamplingStrategy,
    draw_sample,
    estimate,
    exhaustive_enumerate,
    load_graph,
    sample_distribution,
    write_report_tsv,
)
from .store import TableSet, deserialize, serialize

__version__ = "0.1.0"
