"""modsym: exact modular symmetric functions and generalized Stirling numbers.

The library computes every quantity by at least two independent routes
(algebraic definitions, recurrences, generating functions) and validates
them against brute-force combinatorial oracles (weighted lattice paths and
tilings, filtered set partitions, permutation tuples).  All arithmetic is
exact integer arithmetic.
"""

from modsym.enumeration import (
    CyclePermutation,
    LatticePath,
    SetPartition,
    Tiling,
    count_equal_minset_tuples,
    count_nested_minset_tuples,
    count_partitions_bounded,
    count_partitions_mod,
    count_partitions_zeromod,
    cycles_from_one_line,
    diff_vector,
    gen_cycle_perms,
    gen_lattice_paths,
    gen_nested_tuples,
    gen_partitions_bounded,
    gen_partitions_mod,
    gen_set_partitions,
    gen_tilings,
    partitions_from_composition,
    path_to_tiling,
    tiling_to_path,
)
from modsym.identities import (
    IdentityCase,
    IdentityInfo,
    Ranges,
    VerifyReport,
    check_cell,
    list_identities,
    mutation_selftest,
    verify,
    verify_all,
)
from modsym.polycore import (
    Monomial,
    Polynomial,
    TruncatedSeries,
    make_monomial,
    series_mul,
)
from modsym.stirling import (
    omega_poly,
    stirling1,
    stirling1_higher,
    stirling1_mod,
    stirling1_mod_rec,
    stirling2,
    stirling2_mod,
    stirling2_mod_series,
    triangle_csv,
    triangle_from_csv,
    triangle_json_obj,
    triangle_rows,
)
from modsym.symfun import (
    bounded_elem_sym,
    comp_sym,
    elem_sym,
    lmodular_sym,
    modular_all_ones,
    modular_series,
    modular_sym,
)

__version__ = "0.1.0"
