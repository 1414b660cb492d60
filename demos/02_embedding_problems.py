"""Deciding solvability of embedding problems over twisted function fields.

Run with:  python demos/02_embedding_problems.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from skewgalois import (
    CoprimalityFailure,
    FFGaloisExt,
    cyclic_group,
    decide_sigma_solvability,
    find_weak_solutions,
    frobenius,
    lemma1_check,
    lift_sigma,
    make_field,
    problem_from_quotient,
)
from skewgalois.ffield import FieldAut

K = make_field(2, 2)          # F_4
L3 = make_field(2, 6)         # F_64: degree 3 over K
L2 = make_field(2, 4)         # F_16: degree 2 over K
sigma = frobenius(K, 1)       # order 2

print("sigma = Frobenius of F_4, order", sigma.order)

print("\nExtending sigma to F_64 ([L:K] = 3, coprime to 2):")
ext3 = FFGaloisExt(K, L3)
tau = lift_sigma(ext3, sigma)
print("  unique tau = frob^%d of order %d" % (tau.k, tau.order))
print("  both characterizations agree:", lemma1_check(ext3, sigma, tau))

print("\nExtending sigma to F_16 ([L:K] = 2, not coprime):")
ext2 = FFGaloisExt(K, L2)
try:
    lift_sigma(ext2, sigma)
except CoprimalityFailure as exc:
    print("  blocked:", exc)

print("\nEmbedding problem C_3 -> Gal(F_64/F_4):")
ep = problem_from_quotient(ext3, cyclic_group(3), [0, 1, 2])
print("  weak solutions (g, order):", [(w.g, w.order) for w in find_weak_solutions(ep)])
verdict = decide_sigma_solvability(ep, sigma)
print("  verdict:", verdict.to_json())

print("\nEmbedding problem C_2 x C_2 -> Gal(F_16/F_4) with the same sigma:")
from skewgalois.groups import direct_product

V4 = direct_product(cyclic_group(2), cyclic_group(2))
ep2 = problem_from_quotient(ext2, V4, [0, 1, 0, 1])
verdict2 = decide_sigma_solvability(ep2, sigma)
print("  verdict:", verdict2.to_json())
print("  (the order of sigma shares a factor with [L:K], so no twisted solution exists)")

print("\nSame problem with sigma = id (order 1):")
verdict3 = decide_sigma_solvability(ep2, FieldAut(K, 0))
print("  verdict:", verdict3.to_json())
