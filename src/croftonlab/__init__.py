"""croftonlab: numerical verification of integral geometry in complex space forms.

Subpackages:
  coeffcore   exact rational-pi coefficient tables and combinatorial identities
  extalg      numeric exterior algebra on the boundary coframe
  geom        concrete domains, boundary quadrature, space-form geometry
  valuations  Hermitian intrinsic volumes and curvature integrals of shapes
  planes      spaces of complex r-planes, Monte Carlo plane measures
  varcheck    variation formulas against finite differences
  checks      the verifications shared by the CLI and the acceptance suite
  cli         command-line front end
"""

__version__ = "0.1.0"
