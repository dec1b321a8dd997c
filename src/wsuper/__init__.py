"""wsuper: exact-arithmetic engine for minimal W-superalgebras.

Builds basic Lie superalgebras over the rationals, the short grading of a
minimal nilpotent, PBW normal forms in U(g), the Whittaker model, the
W-superalgebra generators, and verifies their commutation relations and
constants with zero numerical tolerance.
"""

__version__ = "1.0.0"

from .algebra import (AlgebraReport, SuperAlgebra, build_gl, build_osp,
                      build_psl22, build_sl, check_algebra, export_table,
                      import_table, normalized_form)
from .catalog import CATALOG_NAMES, family_setup, minimal_setup
from .errors import (DegeneracyError, InputError, NotMinimalError, TableError,
                     ValidationError)
from .generators import (WGenerator, casimir, standard_generators, theta_v,
                         theta_w)
from .grading import (MinimalSetup, SL2Triple, build_minimal_setup,
                      find_sl2_triple, kw_dimensions)
from .relations import (C0Result, RELATION_IDS, RelationReport, SuiteResult,
                        c0_double_sum, c0_formula, extract_c0, identities_suite,
                        one_dim_rep, run_suite, verify_scalar_reduction,
                        verify_b_invariance, verify_centrality, verify_deg0,
                        verify_deg01, w_pbw_check)
from .whittaker import (WhittakerElement, ad_act, is_w_element, multiply_q,
                        project, sigma, supercommutator_q)
