"""Constant-time graphette and orbit identification via canonical lookup tables."""

from .canon import (
    CanonicalCatalog,
    LookupTable,
    are_isomorphic,
    build_canonical_map,
)
from .core import (
    Graphette,
    HostGraph,
    Permutation,
    apply_permutation,
    bit_length,
    complement,
    decode,
    degree_sequence,
    edge_bit,
    encode,
    induced_bits,
    is_connected,
)
from .orbits import (
    AutomorphismSet,
    CycleSet,
    GlobalOrbitIndex,
    OrbitPartition,
    assign_global_orbit_ids,
    compute_orbit_partitions,
    enumerate_orbits,
    generate_automorphisms,
    orbit_partition,
    split_cycles,
)
from .sampler import (
    GraphetteReport,
    SampleAccumulator,
    SamplingStrategy,
    accumulate,
    draw_sample,
    estimate,
    exhaustive_enumerate,
    load_graph,
    sample_distribution,
    write_report_tsv,
)
from .store import TableSet, deserialize, serialize

__version__ = "0.1.0"
