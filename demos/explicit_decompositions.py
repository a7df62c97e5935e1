"""Three explicit Waring decompositions, each verified by reconstruction.

First the monomial z1 * z2^(k-1), split into k powers whose nodes are the
k-th roots of unity stretched to radius sqrt(k - 1).  Then the order-4 and order-5 identities on the node set
{1, -1, 2, -2}.  Finally the slice-pencil method on the cubic 3xy^2 - x^3,
which needs two powers over C but three over R: the two fields genuinely
disagree on this tensor.
"""

from waring import (
    binary_monomial_tensor,
    decompose_monomial_rank_k,
    decompose_sym222_pencil,
    make_decomposition,
    parse_quantic,
    quantic_to_tensor,
    render_quantic,
    tensor_to_quantic,
    verify,
)

for k in (3, 5):
    d = decompose_monomial_rank_k(k)
    rep = verify(d, binary_monomial_tensor(k))
    print(f"z1*z2^{k-1}: {len(d.terms)} terms on the circle of radius sqrt({k - 1}) (k={k}), "
          f"residual {rep.residual:.2e}")
    for weight, vector in d.terms:
        print(f"  {weight:+.4f} * (1, {vector[1]:+.4f})")

print()
a31 = quantic_to_tensor(parse_quantic("48*x1^3*x2"))
d31 = make_decomposition(4, 2, [(8, (1, 1)), (-8, (1, -1)), (-1, (1, 2)), (1, (1, -2))])
print("48 x^3 y as 8(x+y)^4 - 8(x-y)^4 - (x+2y)^4 + (x-2y)^4:",
      "residual", verify(d31, a31).residual)

a41 = quantic_to_tensor(parse_quantic("60*x1^4*x2"))
d41 = make_decomposition(
    5, 2, [(8, (1, 1)), (-8, (1, -1)), (-1, (1, 2)), (1, (1, -2)), (48, (0, 1))]
)
print("60 x^4 y with the same nodes plus 48 y^5:   ",
      "residual", verify(d41, a41).residual)

print()
cubic = quantic_to_tensor(parse_quantic("3*x1*x2^2 - 1*x1^3"))
print("cubic:", render_quantic(tensor_to_quantic(cubic)))

over_c = decompose_sym222_pencil(cubic, "C")
print(f"over C: {over_c.classification}, {len(over_c.decomposition.terms)} terms")
for weight, vector in over_c.decomposition.terms:
    print(f"  {weight:+.3f} * {vector}")

over_r = decompose_sym222_pencil(cubic, "R")
print(f"over R: {over_r.classification}, {len(over_r.decomposition.terms)} terms")
for weight, vector in over_r.decomposition.terms:
    print(f"  {weight.real:+.3f} * ({vector[0].real:+.3f}, {vector[1].real:+.3f})")

print("both verified:",
      verify(over_c.decomposition, cubic).ok and verify(over_r.decomposition, cubic).ok)
