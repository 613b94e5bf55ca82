"""Classification: a cross-scale match, a separated pair, and bundle data.

Run:  python3 demos/classification_tour.py
"""

from fractions import Fraction

from ncsolenoid import (
    AngleSequence,
    NadicInteger,
    bundle_data,
    isomorphic,
    replay_witness,
)

thirds_2 = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
thirds_4 = AngleSequence.constant(4, Fraction(1, 3))
fifths_2 = AngleSequence(2, Fraction(1, 5), NadicInteger.from_value(Fraction(-1, 5), 2))

print("scale 2 terms:", [str(thirds_2.value(n)) for n in range(4)])
print("scale 4 terms:", [str(thirds_4.value(n)) for n in range(4)])

verdict = isomorphic(thirds_2, thirds_4, bound=16)
print("thirds over 2 vs thirds over 4:", verdict.to_json())
print("witness replays:", replay_witness(thirds_2, thirds_4, verdict))

separated = isomorphic(thirds_2, fifths_2, bound=16)
print("thirds vs fifths:", separated.to_json())
# Conjugate actions have isomorphic twisted algebras, so a No rules conjugacy out.
print("actions conjugate:", "No" if separated.is_no else "undecided")

data = bundle_data(thirds_2)
print("bundle q, k, lambda:", data.q, data.k, data.lam)
print("v u == lambda u v:", data.v @ data.u == (data.u @ data.v).scaled(data.lam))
print("base space:", data.base_label)

five = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
data5 = bundle_data(five)
print("scale-5 example bundle q, k:", data5.q, data5.k)
