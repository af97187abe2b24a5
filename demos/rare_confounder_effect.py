"""How close is P(y_x) to P(y|x) when the only confounder is rare?

Scenario: 1500 patients had access to a new medicine; 1260 chose to take it
and 780 of those recovered.  Family history confounds both the choice and
the recovery, but only about 1% of patients have it, and the joint
distribution with family history was never collected.

With P(x) and P(y|x) from the observational table and the prior
P(u) <= 0.01, the confounded-effect route pins the causal effect to a
narrow interval, no covariate data needed.  The exact range of P(y_x) over
every model of the confounder graph, in closed form, confirms the
certificate.
"""

import numpy as np

from epsident import (
    ConfoundedEffectInput,
    StudyCounts,
    confounded_effect_range,
    effect_sandwich,
    eps_identify_effect_confounded,
    eps_identify_effect_confounded_simple,
    from_counts,
)

obs = from_counts(StudyCounts(780, 480, 210, 30, kind="observational"))
p_x = obs.p_x
p_y_given_x = obs.p_y_given_x
u_max = 0.01

print("observational study (1500 patients)")
print(f"  P(x)    = {p_x:.4f}   (chose the medicine)")
print(f"  P(y|x)  = {p_y_given_x:.4f} (recovery rate among takers)")
print(f"  prior:  P(u) <= {u_max}  (family history is rare)")
print()

eps = 0.025
inp = ConfoundedEffectInput(p_y_given_x=p_y_given_x, p_x=p_x, u_max=u_max, c=0.8)
ident = eps_identify_effect_confounded(inp, eps)
print(f"slack constant c = 0.8, radius eps = {eps}")
print(f"  firing threshold on P(u): {ident.condition.threshold_value:.5f}")
print(f"  identified: P(y_x) = {ident.q:.4f} +- {eps}")
print(f"  certified interval: [{ident.certified.lo:.4f}, {ident.certified.hi:.4f}]")
print()

simple = eps_identify_effect_confounded_simple(p_y_given_x, p_x, u_max, eps=0.035)
print("coarse route (only needs P(x) >= 1/2, fixes c = 0.4):")
print(f"  identified: P(y_x) = {simple.q:.4f} +- 0.035")
print()

print("exact range over every confounder model matching P(x), P(y|x):")
band = confounded_effect_range(p_x, p_y_given_x, u_max)
print(f"  attainable effects: [{band.lo:.4f}, {band.hi:.4f}]")
inside = ident.certified.contains_interval(band)
print(f"  inside the certificate: {'yes' if inside else 'NO'}")

print()
print("the sandwich that powers the certificate, at a few slack values:")
for c in np.linspace(0.2, p_x - u_max, 4):
    iv = effect_sandwich(p_y_given_x, p_x, u_max, c)
    print(f"  c = {c:.2f}: {p_y_given_x:.4f} - {p_y_given_x - iv.lo:.4f} "
          f"<= P(y_x) <= {p_y_given_x:.4f} + {iv.hi - p_y_given_x:.4f}")
print()
print("conclusion: the causal effect of the medicine is within 0.025 of"
      f" {ident.q:.2f} even though the confounder joint was never measured.")
