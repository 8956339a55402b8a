"""Power graphs of finite groups and their exact Laplacian spectra.

Build cyclic, dicyclic, generalized quaternion, direct-product and
table-defined groups; construct their power graphs; compute Laplacian
spectra with exact integer certification; decompose p-group power graphs
recursively; and machine-check the structural claims tying connectivity,
spectral radius multiplicity and Laplacian integrality together.
"""

from .groups import (
    Factorization,
    FiniteGroup,
    GroupValidationError,
    cyclic_group,
    dicyclic_group,
    direct_product,
    euler_phi,
    factorize,
    from_table,
    generalized_quaternion,
    hat_up_set,
    is_p_group,
    load_table_file,
    parse_group_spec,
    primitive_classes,
    up_set,
)
from .graphs import (
    CutCertificate,
    Graph,
    complement,
    components,
    induced_subgraph,
    power_graph,
    proper_power_graph,
    reduced_cyclic_graph,
    vertex_connectivity,
)
from .spectra import (
    CharPolyContradiction,
    FactoredCharPoly,
    Spectrum,
    algebraic_connectivity,
    clique_charpoly,
    join_charpoly,
    spectral_radius,
    spectral_radius_multiplicity,
    spectrum,
    union_charpoly,
)
from .pgroup import (
    DecompTree,
    EigenvalueForm,
    check_multiple_property,
    classify_eigenvalues,
    decompose,
    tree_charpoly,
    tree_string,
)
from .verify import (
    ClaimReport,
    ConjectureRow,
    check_cyclic_algcon,
    check_cyclic_kappa_eq_mu,
    check_cyclic_radius_mult,
    check_dicyclic_bundle,
    check_pgroup_bundle,
    pgroup_catalog,
    scan_conjecture,
)

__version__ = "0.1.0"
