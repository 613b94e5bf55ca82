"""The ordered K0 picture for the constant-1/2 sequence at scale 3.

Run:  python3 demos/ktheory_tour.py
"""

from fractions import Fraction

from ncsolenoid import (
    AngleSequence,
    ExtensionElement,
    QnRational,
    cohomologous,
    colimit_report,
    trace,
    xi_cocycle,
)
from ncsolenoid.ktheory import MIRROR, as_pair, connecting_matrix, embedding_matrix, mat_mul
from ncsolenoid.nadic import NadicInteger

alpha = AngleSequence.constant(3, Fraction(1, 2))
J = alpha.carrier

print("carrier tower:", [J.at(k) for k in range(7)])

x = QnRational(1, 1, 3)
y = QnRational(2, 1, 3)
print("xi(1/3, 2/3) =", xi_cocycle(J, x, y))

a = ExtensionElement(alpha, 0, x)
b = ExtensionElement(alpha, 0, y)
print("(0, 1/3) + (0, 2/3) =", (a + b).to_json())
print("as a concrete point:", as_pair(a + b).to_json())
print("trace(1, 1/3) =", trace(ExtensionElement(alpha, 1, x)))

print("stage map F_0:", connecting_matrix(alpha, 0))
U0 = embedding_matrix(alpha, 0)
U1 = embedding_matrix(alpha, 1)
F0 = connecting_matrix(alpha, 0)
print("U_1 (D F_0 D) == U_0:", mat_mul(U1, mat_mul(MIRROR, mat_mul(F0, MIRROR))) == U0)

report = colimit_report(alpha, depth=4)
print("colimit check:", {k: report[k] for k in ("match", "stages", "covered")})

psi = cohomologous(NadicInteger.iota(5, 3), NadicInteger.iota(0, 3), depth=4)
print("witness for iota(5) vs iota(0):", psi.to_json())
