"""The two-layer demand closure: how the sovereign premium is priced by
complementarity, what erodes the hard core, when the feedback loop stays a
contraction, and where the core map has stationary points.

Run:  python demos/04_premium_closure.py
"""

from debtregime import (
    EconState,
    ThetaLaw,
    TwoLayerParams,
    comparative_statics,
    demand_at,
    feedback_gain,
    fixed_point_scan,
    monotone_path,
    solve_premium,
)
from debtregime.closure import zero_premium_boundary_theta

base = TwoLayerParams()  # core 0.65, psi 0.97, z 2%, max captivity 6%
econ = EconState(b_prev=2.40, r_n=0.022, g_n=0.030, pi=0.027, d=0.020)

print("== the demand schedule ==")
for rho in (0.0, 0.005, 0.01, 0.02):
    print(f"  demand at rho={rho * 100:.1f}%: {demand_at(rho, base):.4f}")

print("\n== case classification across stress readings ==")
for name, p in (
    ("baseline", base),
    ("core erosion", base.with_theta(0.55)),
    ("external stress", TwoLayerParams(z=0.03)),
    ("combined", TwoLayerParams(theta=0.55, z=0.03)),
):
    sol = solve_premium(p)
    rho = "-" if sol.rho is None else f"{sol.rho * 100:.3f}%"
    print(f"  {name:<16} {sol.case:<15} rho={rho:<8} slack={sol.slack * 100:+.2f} pp")

print("\n== comparative statics in the stress case ==")
cs = comparative_statics(TwoLayerParams(theta=0.55, z=0.02))
print(f"  d rho/d theta = {cs['d_rho_d_theta']:+.4f}   "
      f"d rho/d psi = {cs['d_rho_d_psi']:+.4f}   d rho/d z = {cs['d_rho_d_z']:+.1f}")
print("  a larger core or stronger institutions lower the premium; the "
      "outside option passes through one-for-one")

print("\n== eroding core: when does the premium switch on? ==")
law = ThetaLaw(kappa_theta=0.02, g0=0.0)
path = monotone_path(base, law, econ, horizon=8)
boundary = zero_premium_boundary_theta(base)
print(f"  zero-premium boundary at core share {boundary:.4f}")
for row in path["periods"]:
    print(f"  t={row['t']}: theta={row['theta']:.3f}  case={row['case']:<15} "
          f"rho={row['rho'] * 100:.3f}%  eta={row['eta']:.3f}")
print(f"  first stress period: t={path['first_case_c']}")

print("\n== stationary points of the core map ==")
p = TwoLayerParams(theta=0.9, z=0.0291, phi_req=0.95)  # thin margin, wide gap
law_hot = ThetaLaw(kappa_theta=0.01, g0=4.0)
eta_b = feedback_gain(p.with_theta(zero_premium_boundary_theta(p)), law_hot)
print(f"  loop gain at the boundary: {eta_b:.2f} (explosive above 1)")
scan = fixed_point_scan(p, law_hot, pi=0.027, r_rep=0.01)
for fp in scan["fixed_points"]:
    buf = "-" if fp["buffer"] is None else f"{fp['buffer']:+.3f}"
    print(f"  theta*={fp['theta_star']:.4f}  {fp['type']:<7} "
          f"slope={fp['slope']:.2f}  buffer={buf}")
print(f"  diagnostics: {scan['diagnostics'] or 'none'}")
print("  a safe saturated state and a stress state coexist astride the "
      "boundary: which one obtains is a matter of expectations, so keeping "
      "a buffer above the boundary is structurally necessary")
