"""Quantitative Levy-multicurve certificates.

On an obstructed run the marked point collapses onto a repelling puncture;
once a round annulus separates the collapsing cluster with modulus above
(k+4) pi e^{k d0} / ell*, a certificate is emitted: injectivity evidence,
degree-1 core-curve lifts, side point counts, and the implied geodesic
length bound below ell* = log(3 + 2 sqrt(2)).
"""

import copy
import math

from pullbacklab import (ELL_STAR, BranchDatum, RationalMap,
                         annulus_modulus, certify_obstructed, init_run,
                         run_until, verify_certificate)

g = RationalMap([-2, 0, 1])
run = init_run(g, [BranchDatum(0.0, math.sqrt(2))])
run_until(run, max_iters=2000)

cert = certify_obstructed(run, engine_version="demo")
print("certificate emitted at step", cert.step)
print("   k = %d marked dimension, d0 bound %.4f" % (cert.k, cert.d0_bound))
print("   threshold (k+4) pi e^{k d0} / ell* = %.4f" % cert.threshold)
print("   annulus modulus %.4f  (log radii %.1f .. %.2f)"
      % (cert.modulus, cert.annulus.log_rin, cert.annulus.log_rout))
print("   geodesic length bound %.6f < ell* = %.6f"
      % (cert.length_bound, ELL_STAR))
print("   side counts: inner A=%d B=%d / outer A=%d B=%d"
      % (cert.inner_count_A, cert.inner_count_B,
         cert.outer_count_A, cert.outer_count_B))
print("   representative curves:", len(cert.representative_curves),
      "each enclosing", cert.cluster_labels)
for j, (center, vertex) in enumerate(cert.representative_curves):
    print("      curve %d: center %.4g%+.4gj, |vertex| %.4g"
          % (j, center.real, center.imag, abs(vertex)))

print("\nre-derived and compared field by field:",
      bool(verify_certificate(cert, run)))
tampered = copy.copy(cert)
tampered.modulus = cert.modulus * 0.5
result = verify_certificate(tampered, run)
print("tampered modulus rejected:", not bool(result))
print("   first mismatch:", result.mismatches[0])
