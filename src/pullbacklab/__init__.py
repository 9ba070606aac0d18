"""pullback-lab: pullback iteration of marked rational maps on Bers fibers,
with realized/obstructed classification and Levy-multicurve certificates."""

__version__ = "0.1.0"

from .certify import (Classification, LevyCertificate, certify_obstructed,
                      classify_run, emit_levy_certificate,
                      find_separating_annulus, injectivity_test,
                      verify_certificate)
from .errors import (AmbiguousCycle, BranchJumpSuspected, ChartOverflow,
                     CollisionDetected, DegenerateTriple, EndpointMismatch,
                     InjectivityUndetermined, InvalidBranchDatum,
                     NearCriticalValue, NoApplicableComparison,
                     NoSeparatingAnnulus, NotPostsingularlyFinite,
                     PullbackLabError, RootFindingFailure)
from .fiber import (BranchDatum, PullbackRun, RunStatus, Tolerances, Trace,
                    TrivialMarkedSpec, compose_iterate_run, init_run,
                    run_until, step_until, stopping_status, teich_step_bound)
from .hyperbolic import (ELL_STAR, RoundAnnulus, annulus_modulus,
                         geodesic_length_bound, path_length_upper_bound)
from .lifting import (LiftResult, Path, cancel_retraces, concatenate,
                      lift_closed_curve, lift_path, path_clearance,
                      simplify_path)
from .local import LocalFixedChart, ScaledComplex
from .ratmap import (FixedPointData, PostsingularAnalysis, RationalMap,
                     compose, critical_points, critical_values, fixed_points,
                     iterate, postsingular_analysis, preimages)
from .sphere import (INF, Configuration, MobiusTransform, ModuliCoordinates,
                     SpherePoint, chordal, forget_coordinates, is_inf,
                     mobius_apply, mobius_from_triples,
                     normalize_configuration)

__all__ = [name for name in dir() if not name.startswith("_")]
