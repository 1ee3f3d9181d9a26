"""SPD matrix utilities.

Walks through the small-matrix toolbox the filter is built on: Cholesky
factorization, symmetric square roots and the eigenvalue floor that a
rank-deficient first frame needs.
"""

import numpy as np

from memtrack import spdmat

rng = np.random.default_rng(7)

print("== Cholesky and reconstruction ==")
m = rng.standard_normal((3, 3))
a = m @ m.T + np.eye(3)
ell = spdmat.cholesky(a)
print("relative reconstruction error:",
      np.linalg.norm(ell @ ell.T - a) / np.linalg.norm(a))

print("\n== Symmetric square root ==")
s = spdmat.sym_sqrt(a)
print("||S S - A|| / ||A|| =", np.linalg.norm(s @ s - a) / np.linalg.norm(a))

print("\n== Eigenvalue floor ==")
wobbly = np.array([[1.0, 2.0], [0.0, -0.3]])
fixed = spdmat.eigen_floor(wobbly, 1e-6)
print("input eigenvalues :", np.linalg.eigvalsh(0.5 * (wobbly + wobbly.T)))
print("output eigenvalues:", np.linalg.eigvalsh(fixed))
