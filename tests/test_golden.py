"""Ring output checked byte for byte against ``tests/data/ring_golden.json``.

The file holds ``class_to_str`` of every ordered basis product of G(2,5) over
Q and F_3, of G(3,6) over Q, and of the Kunneth products CP^1 x CP^1 over Q
and F_2 and G(2,4) x CP^3 over Q and F_3; the powers c_1^d, d <= 8, of the
first Chern generator of those products; and ``decomposition_to_json`` of
the decomposition search on CP^2 and G(2,4).  Regenerate it, only when an
output change is intended, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

from qhcalc.ladders import search_decompositions
from qhcalc.qalgebra import GroundField
from qhcalc.rings import CPn, Grassmannian, kunneth
from qhcalc.serialize import class_to_str, decomposition_to_json

GOLDEN = Path(__file__).resolve().parent / "data" / "ring_golden.json"
ELL_MAX, NU_MAX = 3, 2
C1_POWER_MAX = 8


def _product_rings():
    f2, f3 = GroundField(2), GroundField(3)
    return (
        ("CP^1 x CP^1 over Q", kunneth(CPn(n=1), CPn(n=1))),
        ("CP^1 x CP^1 over F_2", kunneth(CPn(n=1, field=f2), CPn(n=1, field=f2))),
        ("G(2,4) x CP^3 over Q", kunneth(Grassmannian(k=2, N=4), CPn(n=3))),
        ("G(2,4) x CP^3 over F_3",
         kunneth(Grassmannian(k=2, N=4, field=f3), CPn(n=3, field=f3))),
    )


def ring_outputs() -> dict:
    out = {}
    for name, ring in (
        ("G(2,5) over Q", Grassmannian(k=2, N=5)),
        ("G(2,5) over F_3", Grassmannian(k=2, N=5, field=GroundField(3))),
        ("G(3,6) over Q", Grassmannian(k=3, N=6)),
        *_product_rings(),
    ):
        basis = [ring.basis_class(label) for label in ring.basis_labels()]
        out[f"products in {name}"] = {
            f"{class_to_str(a)} * {class_to_str(b)}": class_to_str(a * b)
            for a in basis
            for b in basis
        }
    for name, ring in _product_rings():
        u = ring.first_chern_generator()
        out[f"powers c_1^d, d <= {C1_POWER_MAX}, in {name}"] = [
            class_to_str(u ** d) for d in range(C1_POWER_MAX + 1)
        ]
    for name, ring in (("CP^2", CPn(n=2)), ("G(2,4)", Grassmannian(k=2, N=4))):
        out[f"decompositions of {name}, ell <= {ELL_MAX}, nu <= {NU_MAX}"] = [
            decomposition_to_json(dec) for dec in search_decompositions(ring, ELL_MAX, NU_MAX)
        ]
    return out


def test_ring_output_matches_golden():
    assert ring_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(ring_outputs(), indent=1, sort_keys=True) + "\n")
