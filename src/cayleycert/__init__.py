"""Exact certificates for equivariant birational maps.

The package builds, over Q and quadratic extensions Q(sqrt(d)), the
classical Cayley transforms of matrix groups, the five-link equivariant
birational chain between the norm-one torus and its Lie algebra for the
rank-2 unitary group, the twisted rank-2 torus machinery, and the Picard
lattice bookkeeping of the degree-6 del Pezzo compactification.  Every
construction carries machine-checkable certificates: equivariance
identities, two-sided birational inverses, lattice invariants, and
self-intersection ledgers, all decided by exact arithmetic.
"""

from .errors import (CayleyCertError, DegenerateError, ExponentOverflowError,
                     FieldMismatchError, PreconditionError, SamplingError,
                     StructureError, TermBudgetError)
from .field import QuadExt, QuadField, conj, scalar_str
from .group import (ActionGen, GroupSpec, apply_action, compose_actions,
                    cycle, identity_perm, perm_sign, same_action, st_tw_embed,
                    transposition, twist_action)
from .poly import (Poly, RatFunc, chart_restrict, ratfunc_compose, ratfunc_equal,
                   term_budget)
from .ratmap import (Block, Certificate, EquivMap, MapPair, Relation, VarietySpec,
                     Verdict, check_equivariance, check_group_relations,
                     check_inverse_pair, check_target_relations, compose,
                     compose_pair, random_point)
from .classical import (MatrixAlg, cayley_conjugation_equivariance,
                        cayley_transform, cayley_transform_of_skew, orthogonal_alg,
                        pgl_cayley, symplectic_alg, unitary_alg)
from .su3 import build_su3_chain, end_to_end, phi_inverse
from .surfaces import SurfaceSpec, singular_points, surface_membership
from .picard import (LedgerStep, inter, invariant_sublattice, ledger_run,
                     line_classes, standard_actions)
from .catalog import all_ids, run_construction

__version__ = "0.1.0"
